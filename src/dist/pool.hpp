#pragma once
// One worker pool, two transports.
//
// `WorkerPool` decorates a `sim::ProgramEvaluator` with an ordered list
// of workers that run the pure part of an evaluation (pass pipelines and
// interpreter runs, `ProgramEvaluator::pure_evaluate`) outside this
// process. A worker is one of two transports, both speaking the same
// CRC-framed Job/Result codec (sandbox/ipc.hpp, sandbox/protocol.hpp):
//
//   - a socket peer (`citroen-peer`, dist/peer.hpp) for scale-out: a
//     fingerprint-checked Hello handshake, heartbeats on idle links, and
//     a clock offset that re-bases the peer's trace events;
//   - a fork worker (sandbox/worker.hpp) for containment: rlimit caps, a
//     wall-clock deadline, and a shared-mmap progress cell that names the
//     pass active when the worker died.
//
// Results always come from the in-process serial replay
// (`base.evaluate`/`base.compile`) with the worker's build summaries
// installed in the base's build cache and its interpreter runs as a
// measure memo — what batch prefetch would have left there — so
// order-sensitive state (fault-injector counters, the identical-binary
// cache, accounting) advances exactly as without the pool, and output is
// byte-identical whichever worker ran a job, or none. The base runs a
// pass for a vetted candidate only where it needs the IR itself.
//
// The policy, written once for both transports:
//
//   - One worker per job. Each unvetted candidate runs on exactly one
//     worker. An Ok result is installed and is the candidate's
//     verdict; a socket result other than Ok leaves it unvetted.
//   - Blame. A fork worker's death (signal, exit, corrupt stream, blown
//     deadline) blames the candidate it was running with a WorkerCrash,
//     WorkerTimeout or WorkerOOM verdict, and that candidate never
//     reaches the in-process path. A socket failure (peer-lost,
//     peer-timeout, peer-protocol) blames nothing: the job is requeued,
//     up to `max_attempts_per_job` socket attempts.
//   - Ladder. Free workers take queued jobs in list order, sockets
//     first. A job no socket could finish goes on to a fork worker; with
//     no fork worker left it falls to the in-process path. Compile-only
//     vetting skips sockets, and so does every job while a fault
//     injector is installed (peers ignore fault plans).
//   - Breaker. Every worker counts consecutive failures (a finished job
//     resets the count) and is banned for the run at
//     `breaker_threshold`. A dead fork worker is respawned after a
//     jittered exponential backoff; a socket reconnects once its backoff
//     gate has passed and a job is queued for it. Fatal verdicts stay
//     authoritative after every fork worker is banned.
//
// Nothing is forked or connected before the first job is dispatched.
// Not thread-safe: one pool belongs to one run thread, like the
// ProgramEvaluator it wraps.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/wire.hpp"
#include "sandbox/ipc.hpp"
#include "sandbox/protocol.hpp"
#include "sim/evaluator.hpp"

namespace citroen::dist {

struct PoolConfig {
  /// Fork workers, clamped to [0, 16]. They overlap with CITROEN_THREADS
  /// tuner threads, each of which owns its own pool.
  int fork_workers = 0;
  /// Socket peer endpoints: "unix:<path>" (or any string containing '/')
  /// for Unix sockets, "tcp:<ip>:<port>" or "<ip>:<port>" for TCP.
  std::vector<std::string> peers;
  /// Everything a peer needs to rebuild the base evaluator (wire.hpp).
  ProgramSpec spec;
  /// Wall-clock deadline per job; past it a fork worker is SIGKILLed
  /// (WorkerTimeout) and a socket is torn down (peer-timeout, requeued).
  /// <= 0 disables.
  double job_wall_timeout_seconds = 30.0;
  /// Deadline for connect + Hello/HelloOk on one socket attempt.
  double connect_timeout_seconds = 5.0;
  /// An idle socket is pinged every few seconds and torn down
  /// (peer-timeout) if no Pong arrives within this.
  double heartbeat_timeout_seconds = 2.0;
  /// Socket attempts per job before it goes on down the ladder.
  int max_attempts_per_job = 3;
  /// Consecutive failures that ban one worker for the rest of the run.
  int breaker_threshold = 3;
  double backoff_seconds = 0.05;     ///< first respawn / reconnect delay
  double backoff_max_seconds = 1.0;  ///< delay ceiling
  /// TEST HOOK: SIGKILL the process serving the job with this id right
  /// after dispatching it (-1 = never): the fork worker, or the socket
  /// peer whose pid arrived in HelloOk (localhost peers only).
  std::int64_t kill_job_id = -1;
};

struct PoolStats {
  // Both transports.
  std::uint64_t jobs_dispatched = 0;  ///< job frames written (incl. retries)
  std::uint64_t jobs_ok = 0;          ///< Ok results installed as verdicts
  std::uint64_t local_fallback = 0;   ///< jobs left to the in-process path
  std::uint64_t bans = 0;             ///< workers banned by their breaker
  std::uint64_t backoffs = 0;         ///< respawn / reconnect delays applied
  // Fork workers.
  std::uint64_t forks = 0;            ///< spawns, incl. respawns
  std::uint64_t respawns = 0;         ///< spawns replacing a dead worker
  std::uint64_t jobs_oom = 0;         ///< contained OOMs (WorkerOOM)
  std::uint64_t worker_crashes = 0;   ///< deaths classified WorkerCrash
  std::uint64_t worker_timeouts = 0;  ///< deaths classified WorkerTimeout
  std::uint64_t breaker_trips = 0;    ///< 1 once every fork worker is banned
  // Sockets.
  std::uint64_t connects = 0;            ///< successful handshakes
  std::uint64_t reconnect_attempts = 0;  ///< connect tries (incl. retries)
  std::uint64_t reassigned = 0;          ///< jobs requeued after a failure
  std::uint64_t peer_lost = 0;
  std::uint64_t peer_timeout = 0;
  std::uint64_t peer_protocol = 0;
  std::uint64_t brownouts = 0;           ///< 1 once every socket is banned
};

/// Builds a ProgramSpec matching `base` for stacks whose evaluator was
/// constructed as ProgramEvaluator(make_program(name, seed),
/// machine_by_name(machine)) — the convention every gate uses.
ProgramSpec make_program_spec(const sim::ProgramEvaluator& base,
                              const std::string& machine,
                              std::uint64_t workload_seed = 42);

/// Split a comma-separated endpoint list (the CITROEN_PEERS format).
std::vector<std::string> parse_peer_list(const std::string& csv);

class WorkerPool final : public sim::Evaluator {
 public:
  WorkerPool(sim::ProgramEvaluator& base, PoolConfig config);
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  const ir::Program& base_program() const override {
    return base_.base_program();
  }
  const std::string& program_name() const override {
    return base_.program_name();
  }
  double o3_cycles() const override { return base_.o3_cycles(); }
  double o0_cycles() const override { return base_.o0_cycles(); }
  std::int64_t reference_output() const override {
    return base_.reference_output();
  }
  std::vector<std::pair<std::string, double>> hot_modules() const override {
    return base_.hot_modules();
  }
  bool is_quarantined(const sim::SequenceAssignment& seqs) const override {
    return base_.is_quarantined(seqs);
  }

  /// Records the injector for fork job frames (workers re-derive its
  /// real-fault decisions purely) and forwards it to the base.
  void set_fault_injector(const sim::FaultInjector* injector) override;

  sim::CompileOutcome compile(const sim::SequenceAssignment& seqs,
                              bool keep_program = false) const override;
  sim::EvalOutcome evaluate(const sim::SequenceAssignment& seqs) override;

  /// Vet the whole batch across the pool (pipelined, one job in flight
  /// per worker), then forward the survivors to the base prefetch, which
  /// finds their builds installed. Candidates with a fatal verdict are
  /// withheld from the base.
  void prefetch(std::span<const sim::SequenceAssignment> batch,
                bool with_measure = true) override;

  double total_compile_seconds() const override {
    return base_.total_compile_seconds();
  }
  double total_measure_seconds() const override {
    return base_.total_measure_seconds();
  }
  int num_compiles() const override { return base_.num_compiles(); }
  int num_measurements() const override { return base_.num_measurements(); }
  int num_cache_hits() const override { return base_.num_cache_hits(); }

  const PoolStats& stats() const { return stats_; }
  /// Every worker is banned: everything now runs in-process.
  bool degraded() const;
  /// Socket peers configured, not necessarily alive.
  int peer_count() const { return num_sockets_; }
  /// Last handshake-measured clock offset of socket `i` (remote − local
  /// CLOCK_MONOTONIC, ns; 0 before the first connect).
  std::int64_t peer_clock_offset_ns(int i) const {
    return workers_[static_cast<std::size_t>(i)].clock_offset_ns;
  }

  /// One row of socket health for the Inspect snapshot.
  struct PeerHealth {
    std::string endpoint;
    bool connected = false;
    bool banned = false;
    int consecutive_failures = 0;
    std::int64_t clock_offset_ns = 0;
  };
  std::vector<PeerHealth> peer_health() const;

 private:
  enum class Kind : std::uint8_t { Socket, Fork };

  struct Worker {
    Kind kind = Kind::Fork;
    std::uint32_t slot = 0;  ///< index among workers of its kind
    std::string endpoint;    ///< sockets only
    pid_t pid = 0;           ///< fork child, or the peer's pid from HelloOk
    int fd = -1;             ///< result pipe, or the socket
    int job_fd = -1;         ///< job pipe (fork workers only)
    std::unique_ptr<sandbox::FrameReader> reader;
    sandbox::ProgressCell* cell = nullptr;  ///< fork workers only
    std::int64_t clock_offset_ns = 0;       ///< sockets only
    bool live = false;
    bool banned = false;
    int failures = 0;         ///< consecutive; the breaker's count
    double next_attempt = 0;  ///< monotonic gate for the next (re)start
    double last_activity = 0;
    std::ptrdiff_t job = -1;  ///< index into jobs_, -1 when idle
    std::uint64_t job_id = 0;
    double deadline = 0;
    bool awaiting_pong = false;
    double pong_deadline = 0;
  };

  /// What the pool learned about a candidate signature. Fatal verdicts
  /// (kind != None) apply to compile and evaluate alike; an Ok verdict
  /// covers evaluate() only when `measured`.
  struct Verdict {
    sim::FailureKind kind = sim::FailureKind::None;
    bool measured = false;
    std::string why;
  };

  struct Job {
    const sim::SequenceAssignment* seqs = nullptr;
    std::uint64_t sig = 0;
    int socket_attempts = 0;
  };

  bool start(Worker& w) const;
  bool spawn(Worker& w) const;
  bool connect(Worker& w) const;
  /// Close the worker's fds and progress cell, SIGKILLing and reaping a
  /// fork child not yet reaped.
  void teardown(Worker& w) const;
  /// Settle a failed worker: blame or requeue its in-flight job, tear it
  /// down, then ban it or schedule its restart.
  void fail(Worker& w, sim::FailureKind kind, const std::string& extra) const;
  void blame_fork_death(Worker& w, bool timed_out,
                        const std::string& extra) const;
  void count_socket_failure(Worker& w, sim::FailureKind kind) const;
  void ban(Worker& w) const;
  void publish_peer_metrics(const Worker& w) const;

  bool takes(const Worker& w, const Job& job) const;
  void dispatch(Worker& w, std::size_t job_index) const;
  /// Drain every complete frame the worker has sent.
  void service(Worker& w) const;
  void finish(Worker& w, sandbox::SandboxResult res) const;

  void remember(std::uint64_t sig, Verdict v) const;
  const Verdict* find_verdict(std::uint64_t sig, bool need_measured) const;
  /// The candidate's verdict, vetting it first when it has none.
  const Verdict* vet(const sim::SequenceAssignment& seqs,
                     bool with_measure) const;
  /// Vet every candidate in `batch` that lacks a (sufficient) verdict.
  void run_jobs(std::span<const sim::SequenceAssignment> batch,
                bool with_measure) const;

  sim::ProgramEvaluator& base_;
  PoolConfig config_;
  const sim::FaultInjector* injector_ = nullptr;
  int num_sockets_ = 0;

  // Dispatch state is logically part of a const vetting query
  // (compile() is const in the Evaluator interface), hence mutable.
  mutable std::vector<Worker> workers_;  ///< sockets first, then forks
  mutable std::unordered_map<std::uint64_t, Verdict> verdicts_;
  mutable std::vector<Job> jobs_;         ///< the batch being vetted
  mutable std::deque<std::size_t> queue_; ///< jobs_ indices not in flight
  mutable bool measure_ = true;  ///< the batch's jobs build and measure
  mutable bool sockets_ = true;  ///< the batch may use sockets
  mutable PoolStats stats_;
  mutable std::uint64_t next_job_id_ = 0;
  mutable std::uint64_t ping_nonce_ = 0;
  mutable std::uint64_t jitter_state_ = 0;  ///< splitmix64 jitter stream
};

/// The pool an evaluator stack builds: CITROEN_SANDBOX=1 adds
/// CITROEN_SANDBOX_WORKERS fork workers (default 2), and socket peers
/// come from `peers`, or from CITROEN_PEERS when `peers` is empty. Null
/// when neither transport is configured: callers use `base` itself.
std::unique_ptr<WorkerPool> make_worker_pool(
    sim::ProgramEvaluator& base, const std::string& machine,
    const std::vector<std::string>& peers = {});

}  // namespace citroen::dist
