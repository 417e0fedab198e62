#pragma once
// citroend: the crash-tolerant tuning-as-a-service daemon.
//
// One single-threaded event loop owns everything: a Unix-domain (and
// optionally TCP) listener, the per-connection frame readers, the
// admission controller, the DRR scheduler and the job table. Between
// socket polls it advances exactly one tuner step of whichever job the
// scheduler picks, so client traffic and tuning work interleave without
// locks — and the whole accept/scheduler loop is trivially TSan-clean
// and deterministic.
//
// Robustness properties (each enforced by tests/ext_serving):
//   - Admission control: over-quota or over-capacity submissions get a
//     typed Reject frame with a retry hint; the daemon never queues
//     unboundedly.
//   - Fair scheduling: deficit round robin over tenants; a greedy tenant
//     with many jobs still gets one quantum per rotation.
//   - Crash-resume: every accepted job is durable (meta + journal +
//     checkpoint) BEFORE its Accept frame is sent. A SIGKILLed daemon
//     restarted with resume=true recovers every in-flight job via the
//     RunSession replay protocol and finishes it byte-identically;
//     clients reconnect and re-attach by job id.
//   - Graceful drain: SIGTERM (or request_stop()) stops admissions,
//     keeps stepping until every job finishes or the drain deadline
//     passes, checkpoints the stragglers, and exits with the watchdog
//     taxonomy — 0 everything completed, 75 resumable work remains.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"

namespace citroen::serve {

struct ServerConfig {
  std::string socket_path;  ///< Unix-domain listener (required)
  int tcp_port = 0;         ///< optional TCP listener on 127.0.0.1; 0 = off
  std::string state_dir;    ///< job metas + journals + checkpoints
  bool resume = false;      ///< recover jobs from state_dir at startup
  QuotaConfig quotas;
  std::uint64_t drr_quantum = 32;  ///< eval-credits per tenant visit
  double drain_deadline_seconds = 20.0;
  int fsync_every = 64;       ///< per-job journal fsync cadence
  int checkpoint_every = 10;  ///< per-job checkpoint cadence (records)
  /// Mains install SIGINT/SIGTERM -> drain; tests drive request_stop().
  bool install_signal_handlers = true;
  /// A client that cannot absorb a frame for this long is dropped (a
  /// stalled reader must not stall the daemon).
  double client_write_timeout_seconds = 5.0;
  /// Poll timeout while idle (no runnable job), milliseconds.
  int idle_poll_ms = 100;
  /// Directory for the prefix cache's persistent disk tier. Empty falls
  /// back to $CITROEN_CACHE_DIR; still empty keeps the cache RAM-only.
  std::string cache_dir;
  /// Remote evaluation peers (dist/pool.hpp endpoint syntax) every job's
  /// worker pool farms measurements to. Empty falls back to
  /// $CITROEN_PEERS; still empty stays local.
  std::vector<std::string> peers;
  /// Directory of the cross-program transfer corpus (corpus/corpus.hpp):
  /// fresh citroen jobs warm-start from it, finished ones append their
  /// winners. Empty falls back to $CITROEN_CORPUS; still empty disables
  /// the corpus. The daemon's event loop is the single writer (it holds
  /// the corpus flock for its lifetime); a busy lock degrades to
  /// read-only lookups.
  std::string corpus_dir;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, (optionally) resume, serve until drained. Returns the process
  /// exit status: persist::kExitComplete, persist::kExitInterrupted, or
  /// 1 on a setup failure (bad socket path / state dir).
  int run();

  /// Thread-safe graceful-drain trigger (tests, embedding code) — the
  /// programmatic equivalent of SIGTERM.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  // ---- introspection (tests) ----------------------------------------------
  std::size_t num_jobs() const { return jobs_.size(); }
  const AdmissionController& admission() const { return admission_; }

 private:
  struct Conn;

  bool setup_listeners(std::string* error);
  void close_listeners();
  void resume_jobs();
  void accept_clients(int listen_fd);
  /// Drain every complete frame already readable on `c`; false when the
  /// connection died (caller removes it).
  bool service_conn(Conn& c);
  bool handle_frame(Conn& c, const std::string& payload);
  /// Sniff the first readable bytes of a pre-Hello connection: a plain
  /// HTTP GET (a Prometheus scraper / curl) is answered with the metrics
  /// text from ONE registry snapshot and closed. True when handled.
  bool maybe_serve_http(Conn& c);
  /// One coherent daemon snapshot: tenant/job/peer rows and the metrics
  /// counters all read in the same event-loop iteration.
  InspectOkMsg build_inspect(bool include_flight) const;
  bool send(Conn& c, const std::string& payload);
  void send_result(Conn& c, const TuningJob& job);
  void broadcast_progress(const TuningJob& job);
  void broadcast_result(const TuningJob& job);
  void step_one();
  void finish_job(TuningJob& job);
  void begin_drain(const char* why);
  void update_gauges();

  ServerConfig config_;
  AdmissionController admission_;
  DrrScheduler scheduler_;
  std::map<std::uint64_t, std::unique_ptr<TuningJob>> jobs_;
  /// Jobs whose stacks could not be rebuilt at resume (error message).
  std::map<std::uint64_t, std::string> failed_;
  std::shared_ptr<sim::PrefixCache> cache_;
  std::shared_ptr<corpus::TransferCorpus> corpus_;

  std::vector<std::unique_ptr<Conn>> conns_;
  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t epoch_ = 0;
  /// Lifetime evals charged per tenant this epoch. Kept by the server
  /// (not the obs registry) so `citroen-cli status` shows it even when
  /// metrics are disabled.
  std::map<std::string, std::uint64_t> tenant_evals_total_;
  /// Peer-pool health as of the last step of a dist-wired job. Jobs drop
  /// their evaluator stack (and its pool) on completion, so Inspect would
  /// otherwise report an empty fleet between jobs.
  std::vector<PeerSnap> last_peer_health_;
  bool draining_ = false;
  double drain_deadline_ = 0.0;
  std::atomic<bool> stop_{false};
};

}  // namespace citroen::serve
