#pragma once
// Wire protocol between the worker pool (dist/pool.hpp, the supervisor)
// and its workers, layered on the ipc.hpp frame transport. Payloads use
// the persist codec, so the doubles inside interpreter runs cross the
// process boundary bit-exactly — a prerequisite for the pool's
// byte-identity guarantee.
//
// Job frame (supervisor -> worker):
//   u8  kind          (JobKind)
//   u64 id            (monotonic per supervisor; echoed in the result)
//   u8  has_plan      (fault plan attached?)
//   [FaultPlan]       (when has_plan)
//   SequenceAssignment
//
// Result frame (worker -> supervisor):
//   u8  status        (ResultStatus)
//   u64 id
//   u8  built
//   u64 binary_hash
//   u64 run_count     ( ExecResult x run_count )
//   u64 obs_event_count    ( ObsEvent x obs_event_count )
//   u64 obs_counter_count  ( (str name, u64 delta) x obs_counter_count )
//
// The obs tail piggybacks the worker's trace events and metric-counter
// deltas for this job on the existing result frame — same codec, same
// CRC framing — so sandboxed runs appear in the supervisor's trace and
// registry without a second wire format. Both lists are empty when the
// corresponding obs layer is disabled, costing 16 bytes per result.
//
// ExecResult ships only the fields the serial evaluation path consumes
// (ok, trap, hung, ret, cycles, instructions). The per-module cycle map
// is deliberately dropped: only the evaluator constructor's baseline run
// reads it, and that run never crosses the IPC boundary.
//
// The progress cell is the crash-signature side channel: one shared
// (MAP_SHARED | MAP_ANONYMOUS) cache line per worker holding an atomic
// u64 that packs (job id, stage, pass id). The worker updates it before
// every pass execution; when the worker dies, the supervisor reads the
// cell to report which pass of which job was active at death.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/interpreter.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"

namespace citroen::sandbox {

enum class JobKind : std::uint8_t {
  Evaluate = 1,  ///< build + measure (full pure evaluation)
  Compile = 2,   ///< build only (vetting for compile()/compile_batch())
};

struct SandboxJob {
  std::uint64_t id = 0;
  JobKind kind = JobKind::Evaluate;
  bool has_plan = false;
  sim::FaultPlan plan;  ///< meaningful only when has_plan
  sim::SequenceAssignment assignment;
};

enum class ResultStatus : std::uint8_t {
  Ok = 1,   ///< pure evaluation completed (result may still be "unbuilt")
  Oom = 2,  ///< allocation failure contained in-worker (std::bad_alloc)
};

/// One worker-side trace event in wire form. Strings are owned here (the
/// worker's interned pointers mean nothing across the process boundary);
/// the supervisor re-interns them on ingest. Empty arg_name/str_arg mean
/// "absent". No tid: workers are single-threaded, and the supervisor
/// files ingested events under the worker's pid.
struct ObsEventWire {
  std::string name;
  std::string cat;
  std::string arg_name;
  std::string str_arg;
  std::uint64_t ts_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t arg = 0;
  char phase = 'I';
};

struct SandboxResult {
  std::uint64_t id = 0;
  ResultStatus status = ResultStatus::Ok;
  sim::PureEvalResult pure;
  /// Trace events emitted in the worker while running this job.
  std::vector<ObsEventWire> obs_events;
  /// Per-counter increments since the worker's previous result frame.
  std::vector<std::pair<std::string, std::uint64_t>> obs_counters;
};

std::string encode_job(const SandboxJob& job);
/// False (with `error` set) on a malformed payload — the peer is confused
/// and gets torn down, never trusted further.
bool decode_job(const std::string& payload, SandboxJob* job,
                std::string* error);

std::string encode_result(const SandboxResult& res);
bool decode_result(const std::string& payload, SandboxResult* res,
                   std::string* error);

// ---- obs appendix helpers -------------------------------------------------
// Shared by every process pair that ships obs state over a Result frame:
// the worker pool <- a fork worker, and the pool <- a peer (which reuses
// the same SandboxResult codec).

/// Record current counter values as the delta baseline. Child processes
/// call this once after fork/startup so the first result frame ships
/// only activity since then, not the counters inherited from the parent.
void baseline_obs_counters();

/// Drain this process's trace ring into `res->obs_events` (caller must
/// be quiescent — single-threaded worker/peer between jobs) and append
/// per-counter increments since the last call to `res->obs_counters`.
/// No-ops per layer when tracing/metrics are disabled.
void collect_obs_deltas(SandboxResult* res);

/// Splice a remote process's piggybacked obs deltas into the local trace
/// sink and metrics registry. Events are filed under `pid` (tid 0 —
/// workers and peers are single-threaded per connection); name strings
/// arrive owned and get re-interned. `clock_offset_ns` is (remote clock
/// − local clock) from the handshake: remote timestamps are re-based by
/// subtracting it (saturating), so spans from another machine land in
/// the local CLOCK_MONOTONIC timeline. Same-machine forks pass 0.
void ingest_result_obs(const SandboxResult& res, std::uint32_t pid,
                       std::int64_t clock_offset_ns = 0);

// ---- progress cell --------------------------------------------------------

enum class WorkerStage : std::uint8_t {
  Idle = 0,     ///< between jobs
  Build = 1,    ///< running pass pipelines (pass id meaningful)
  Measure = 2,  ///< interpreting the built binary
  Reply = 3,    ///< serializing/writing the result frame
};

const char* worker_stage_name(WorkerStage s);

/// Packs (job_id low 32 bits, stage, pass id) into one atomic word so a
/// torn read is impossible by construction.
struct ProgressCell {
  std::atomic<std::uint64_t> word{0};
};

inline std::uint64_t pack_progress(std::uint64_t job_id, WorkerStage stage,
                                   std::uint16_t pass_id) {
  return (job_id << 32) |
         (std::uint64_t{static_cast<std::uint8_t>(stage)} << 16) |
         std::uint64_t{pass_id};
}

struct Progress {
  std::uint32_t job_id_lo = 0;  ///< low 32 bits of the job id
  WorkerStage stage = WorkerStage::Idle;
  std::uint16_t pass_id = 0;
};

inline Progress unpack_progress(std::uint64_t word) {
  Progress p;
  p.job_id_lo = static_cast<std::uint32_t>(word >> 32);
  p.stage = static_cast<WorkerStage>((word >> 16) & 0xff);
  p.pass_id = static_cast<std::uint16_t>(word & 0xffff);
  return p;
}

/// mmap one shared anonymous ProgressCell (survives fork, shared between
/// supervisor and worker). nullptr when the platform refuses.
ProgressCell* map_progress_cell();
void unmap_progress_cell(ProgressCell* cell);

}  // namespace citroen::sandbox
