#pragma once
// Client <-> citroend wire protocol.
//
// There is deliberately NO second codec or framing here: every message
// is a persist-codec payload (the same bit-exact little-endian Writer/
// Reader the journal, checkpoints and sandbox job/result frames use)
// wrapped in the sandbox/ipc CRC32 length-prefixed frame — so the serving
// socket inherits the pipe transport's torn-read, bit-flip and oversized-
// frame handling for free, and property tests written against
// FrameDecoder cover the daemon too.
//
// Every message starts with a u8 MsgType tag. A malformed payload decodes
// to false and the peer is dropped, mirroring the worker pool's "never
// trust a confused peer" rule.
//
// Backpressure is typed: an over-quota or mid-drain submission is
// answered with a Reject frame carrying a machine-readable RejectReason
// and a retry-after hint, never by unbounded queueing or a silent close.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/matrix.hpp"

namespace citroen::serve {

/// Bumped when any message layout changes; Hello carries it and the
/// daemon rejects mismatches (BadRequest) instead of misparsing.
/// v2: Inspect/InspectOk live-introspection messages.
inline constexpr std::uint32_t kProtocolVersion = 2;

enum class MsgType : std::uint8_t {
  // client -> daemon
  Hello = 1,    ///< first frame on every connection: tenant + version
  Submit = 2,   ///< new tuning job
  Attach = 3,   ///< (re-)subscribe to an accepted job by id
  Cancel = 4,   ///< cancel an accepted job
  Inspect = 5,  ///< request a live daemon snapshot (InspectOk answer)
  // daemon -> client
  HelloOk = 10,  ///< handshake accepted
  Accept = 11,   ///< job admitted (durable: it survives a daemon crash)
  Reject = 12,   ///< typed backpressure / error frame
  Status = 13,   ///< attach answer: where the job currently stands
  Progress = 14, ///< periodic per-job progress while attached
  Result = 15,   ///< terminal frame for a job
  InspectOk = 16,  ///< structured snapshot (the `citroen-cli status` body)
};

const char* msg_type_name(MsgType t);

/// Why a request was refused. Transient reasons carry a retry-after hint;
/// permanent ones mean the request itself is wrong.
enum class RejectReason : std::uint8_t {
  OverTenantJobs = 1,    ///< tenant's concurrent-job quota exhausted
  OverTenantBudget = 2,  ///< tenant's in-flight eval-budget quota exhausted
  OverCapacity = 3,      ///< daemon-wide concurrent-job cap reached
  Draining = 4,          ///< daemon is draining; resubmit after restart
  BadRequest = 5,        ///< malformed/unsupported request (permanent)
  UnknownJob = 6,        ///< attach/cancel for an id this daemon never had
};

const char* reject_reason_name(RejectReason r);
/// Transient rejects are worth retrying against the same daemon.
bool reject_is_transient(RejectReason r);

/// What a client asks the daemon to tune. `method` is any name the
/// bench runners accept ("citroen" or a baseline); `budget` is the
/// evaluation budget the tuner is configured with — the unit the
/// per-tenant budget quota is charged in.
struct JobSpec {
  std::string program;        ///< bench_suite program name
  std::string machine = "arm";
  std::string method = "citroen";
  std::uint32_t budget = 30;
  std::uint64_t seed = 1;
};

enum class JobState : std::uint8_t {
  Queued = 1,
  Running = 2,
  Done = 3,
  Cancelled = 4,
};

const char* job_state_name(JobState s);

struct HelloMsg {
  std::string tenant;
  std::uint32_t version = kProtocolVersion;
};

struct SubmitMsg {
  JobSpec spec;
};

struct AttachMsg {
  std::uint64_t job_id = 0;
};

struct CancelMsg {
  std::uint64_t job_id = 0;
};

struct HelloOkMsg {
  bool draining = false;
  std::uint64_t epoch = 0;  ///< daemon start counter (bumps across restarts)
};

struct AcceptMsg {
  std::uint64_t job_id = 0;
};

struct RejectMsg {
  RejectReason reason = RejectReason::BadRequest;
  std::string message;
  double retry_after_seconds = 0.0;  ///< 0 = not worth retrying here
};

struct StatusMsg {
  std::uint64_t job_id = 0;
  JobState state = JobState::Queued;
  std::uint64_t evals_done = 0;
  std::uint64_t budget = 0;
};

struct ProgressMsg {
  std::uint64_t job_id = 0;
  std::uint64_t evals_done = 0;
  std::uint64_t budget = 0;
};

enum class ResultStatus : std::uint8_t {
  Ok = 1,
  Cancelled = 2,
  Failed = 3,
};

struct ResultMsg {
  std::uint64_t job_id = 0;
  ResultStatus status = ResultStatus::Ok;
  Vec curve;          ///< best-so-far speedup curve (bit-exact doubles)
  std::string error;  ///< set when status == Failed
};

struct InspectMsg {
  bool include_flight = true;  ///< false trims the flight-recorder tail
};

/// One tenant row of the live snapshot: admission usage + quota limits
/// and the DRR scheduler's view (deficit, runnable-queue depth).
struct TenantSnap {
  std::string tenant;
  std::uint64_t jobs_in_flight = 0;
  std::uint64_t evals_in_flight = 0;
  std::uint64_t max_jobs = 0;
  std::uint64_t max_evals = 0;
  std::int64_t drr_deficit = 0;   ///< 0 when not in the scheduler ring
  std::uint64_t queued_jobs = 0;  ///< runnable jobs waiting in the ring
  std::uint64_t evals_total = 0;  ///< lifetime evals charged (this epoch)
};

struct JobSnap {
  std::uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::Queued;
  std::uint64_t evals_done = 0;
  std::uint64_t budget = 0;
};

/// Peer-pool health merged across the running jobs' pools (every job
/// stack is configured with the same endpoint list).
struct PeerSnap {
  std::string endpoint;
  bool connected = false;
  bool banned = false;
  std::int64_t consecutive_failures = 0;
  std::int64_t clock_offset_ns = 0;  ///< remote − local, last handshake
};

struct FlightSnap {
  std::uint64_t seq = 0;
  std::uint64_t ts_ns = 0;
  std::string kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string detail;
};

/// The live daemon snapshot. Counter values come from ONE coherent
/// obs::MetricsSnapshot (labeled children under their flattened wire
/// names), taken in the same event-loop iteration as the tenant/job
/// rows — so `citroen-cli status --json` and a Prometheus scrape of the
/// same instant agree.
struct InspectOkMsg {
  std::uint64_t epoch = 0;
  bool draining = false;
  std::uint64_t clients = 0;  ///< live client connections
  std::vector<TenantSnap> tenants;
  std::vector<JobSnap> jobs;
  // Prefix-cache health (sim::PrefixCacheStats, the fields an operator
  // watches for warm-start efficacy).
  std::uint64_t cache_builds = 0;
  std::uint64_t cache_full_hits = 0;
  std::uint64_t cache_prefix_hits = 0;
  std::uint64_t cache_disk_hits = 0;
  // Corpus warm-start health.
  std::uint64_t corpus_entries = 0;
  std::uint64_t corpus_lookups = 0;
  std::uint64_t corpus_hits = 0;
  bool corpus_writable = false;
  std::vector<PeerSnap> peers;
  std::vector<FlightSnap> flight;  ///< recent coarse events, oldest first
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Render an InspectOk snapshot as a JSON object (the `--json` output;
/// also what the live gate feeds through python's json.tool). Stable
/// key order, strict JSON.
std::string status_json(const InspectOkMsg& m);
/// Render as the human `citroen-cli status` text.
std::string status_text(const InspectOkMsg& m);

/// Peek the tag of an encoded message (Unknown/garbage -> 0).
std::uint8_t peek_type(const std::string& payload);

std::string encode(const HelloMsg& m);
std::string encode(const SubmitMsg& m);
std::string encode(const AttachMsg& m);
std::string encode(const CancelMsg& m);
std::string encode(const InspectMsg& m);
std::string encode(const InspectOkMsg& m);
std::string encode(const HelloOkMsg& m);
std::string encode(const AcceptMsg& m);
std::string encode(const RejectMsg& m);
std::string encode(const StatusMsg& m);
std::string encode(const ProgressMsg& m);
std::string encode(const ResultMsg& m);

bool decode(const std::string& payload, HelloMsg* m, std::string* error);
bool decode(const std::string& payload, SubmitMsg* m, std::string* error);
bool decode(const std::string& payload, AttachMsg* m, std::string* error);
bool decode(const std::string& payload, CancelMsg* m, std::string* error);
bool decode(const std::string& payload, InspectMsg* m, std::string* error);
bool decode(const std::string& payload, InspectOkMsg* m, std::string* error);
bool decode(const std::string& payload, HelloOkMsg* m, std::string* error);
bool decode(const std::string& payload, AcceptMsg* m, std::string* error);
bool decode(const std::string& payload, RejectMsg* m, std::string* error);
bool decode(const std::string& payload, StatusMsg* m, std::string* error);
bool decode(const std::string& payload, ProgressMsg* m, std::string* error);
bool decode(const std::string& payload, ResultMsg* m, std::string* error);

}  // namespace citroen::serve
