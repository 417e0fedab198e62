#pragma once
// One crash-safe tuning run (TuningRun), and the served job built on it.
// The daemon's TuningJob and the bench runners (bench/tuner_runner.hpp)
// drive the same TuningRun, so the crash-resume gate exercises the code
// a daemon job runs; each caller keeps its own transfer-corpus policy.
//
// Durability (everything routed through src/persist/): a run named R
// keeps R.journal (write-ahead journal of its evaluations) and R.ckpt
// (atomic checkpoint of tuner + evaluator state). A served job's run is
// named job_<id>, beside job_<id>.meta: its admission record, written
// atomically BEFORE the Accept frame is sent, so an accepted job always
// survives a crash.
//
// Resume re-runs the RunSession protocol: checkpoint restore + journal-
// tail re-execution under byte-verification. Every run owns a private
// evaluator stack and the shared prefix cache is pure memoization, so
// the recovered result is byte-identical to a run never interrupted —
// ext_serving SIGKILLs the daemon, and ext_crash_resume kills, signals
// and deadlines the bench runners, to enforce it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "citroen/tuner.hpp"
#include "corpus/corpus.hpp"
#include "serve/wire.hpp"
#include "support/matrix.hpp"

namespace citroen::sim {
class FaultInjector;
struct FaultPlan;
class PrefixCache;
class ProgramEvaluator;
class RobustEvaluator;
}  // namespace citroen::sim

namespace citroen::dist {
class WorkerPool;
}

namespace citroen::persist {
class JournaledEvaluator;
class RunSession;
struct SessionConfig;
}  // namespace citroen::persist

namespace citroen::baselines {
class ResumablePhaseTuner;
}

namespace citroen::serve {

/// The durable admission record (contents of job_<id>.meta).
struct JobRecord {
  std::uint64_t id = 0;
  std::string tenant;
  JobSpec spec;
  bool cancelled = false;
  /// Transfer-corpus advice resolved ONCE at admission and frozen here,
  /// so a resumed job replays the identical search even after the corpus
  /// has grown (record format v2; v1 metas load with empty advice).
  corpus::TunerAdvice advice;
};

std::string job_file_stem(std::uint64_t id);  ///< "job_<16-hex-digits>"
std::string job_meta_path(const std::string& dir, std::uint64_t id);
/// Atomic CRC-guarded write (persist checkpoint file format).
void save_job_record(const std::string& dir, const JobRecord& rec);
/// False when missing/corrupt/version-skewed (note explains why).
bool load_job_record(const std::string& path, JobRecord* rec,
                     std::string* note);

/// The CITROEN configuration every run starts from — daemon jobs, their
/// serial replay and the bench runners; corpus advice, if any, applies
/// on top.
core::CitroenConfig default_citroen_config(int budget, std::uint64_t seed);

/// One crash-safe tuning run: base evaluator, worker pool, optional fault
/// layer, RunSession + journal, and the tuner. Member order is the
/// destruction contract: each layer dies before the one it wraps.
///
/// The checkpoint payload is the tuner state, then the base evaluator's
/// runtime state, then — only with a fault plan — the robust layer's
/// quarantine state and the injector's attempt counters. checkpoint()
/// writes it and start() reads it; nothing else does.
class TuningRun {
 public:
  /// Builds the stack and opens (or, with session.resume, recovers) the
  /// run `run_name` inside session.dir. `shared_cache` is a prefix cache
  /// shared across runs (pure memoization); `dist_peers` names socket
  /// peers for the worker pool (empty consults CITROEN_PEERS). `faults`
  /// installs a FaultInjector under a RobustEvaluator. Throws on an
  /// unknown program or machine.
  TuningRun(const JobSpec& spec, const persist::SessionConfig& session,
            const std::string& run_name,
            const std::shared_ptr<sim::PrefixCache>& shared_cache,
            const std::vector<std::string>& dist_peers = {},
            const sim::FaultPlan* faults = nullptr);
  ~TuningRun();

  TuningRun(const TuningRun&) = delete;
  TuningRun& operator=(const TuningRun&) = delete;

  /// The evaluator below the worker pool and any fault layer: corpus
  /// probes and appends use it, so advice never depends on faults.
  sim::ProgramEvaluator& base() { return *base_; }
  const dist::WorkerPool* worker_pool() const { return pool_.get(); }
  const persist::RunSession& session() const { return *session_; }

  /// An earlier process finished this run: curve() holds its result and
  /// nothing needs running.
  bool complete() const;

  /// Builds the tuner — CITROEN from default_citroen_config plus
  /// `advice`, or the spec's baseline — then restores it from the
  /// checkpoint or starts it fresh. Throws on an unknown method.
  void start(const corpus::TunerAdvice& advice = {});
  /// One tuner step, checkpointing when due. False once the budget is
  /// spent; call finish() then.
  bool step();
  /// Partial checkpoint (drain, cancel, watchdog stop).
  void checkpoint();
  /// Complete checkpoint; returns the final curve.
  const Vec& finish();

  /// The CITROEN tuner (for corpus appends); null for a baseline run.
  const core::CitroenTuner* citroen() const { return citroen_.get(); }
  Vec curve_so_far();
  /// Valid once complete() or after finish().
  const Vec& curve() const { return curve_; }
  std::uint64_t evals_done() const;

 private:
  JobSpec spec_;
  Vec curve_;
  std::unique_ptr<sim::ProgramEvaluator> base_;
  std::unique_ptr<dist::WorkerPool> pool_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<sim::RobustEvaluator> robust_;
  std::unique_ptr<persist::RunSession> session_;
  std::unique_ptr<persist::JournaledEvaluator> jeval_;
  std::unique_ptr<core::CitroenTuner> citroen_;
  std::unique_ptr<baselines::ResumablePhaseTuner> baseline_;
};

class TuningJob {
 public:
  /// Opens (or resumes) the job's TuningRun. Throws std::exception on an
  /// invalid spec (unknown program/machine/method) — the server converts
  /// that to a BadRequest reject at submit time and a Failed result at
  /// resume time. `shared_cache` and `dist_peers` are as for TuningRun;
  /// CITROEN_SANDBOX=1 adds fork workers to the job's worker pool, and
  /// results are byte-identical with or without either transport.
  /// `corpus` is the daemon-wide transfer corpus: a fresh citroen job
  /// looks up its hot modules' signatures at construction (the resolved
  /// advice lands in record().advice — persist it with save_job_record),
  /// and a finished one appends its winner. Null disables both.
  TuningJob(JobRecord record, const std::string& state_dir, bool resume,
            const std::shared_ptr<sim::PrefixCache>& shared_cache,
            int fsync_every = 64, int checkpoint_every = 10,
            const std::vector<std::string>& dist_peers = {},
            const std::shared_ptr<corpus::TransferCorpus>& corpus = nullptr);
  ~TuningJob();

  TuningJob(const TuningJob&) = delete;
  TuningJob& operator=(const TuningJob&) = delete;

  const JobRecord& record() const { return record_; }
  std::uint64_t id() const { return record_.id; }
  JobState state() const { return state_; }
  bool terminal() const {
    return state_ == JobState::Done || state_ == JobState::Cancelled;
  }

  /// Advance one tuner step. Returns the number of evaluations the step
  /// journaled (the DRR cost); transitions to Done when the budget is
  /// exhausted. No-op (0) once terminal.
  std::uint64_t step();

  /// Checkpoint without finishing (graceful drain). No-op when terminal
  /// (the final checkpoint already happened).
  void checkpoint_for_drain();

  /// Cancel: persist the flag (so a restart does not resurrect the job)
  /// and stop scheduling. Keeps the best-so-far curve.
  void cancel(const std::string& state_dir);

  std::uint64_t evals_done() const;
  std::uint64_t budget() const { return record_.spec.budget; }

  /// The job's worker pool, or null when the stack is in-process only
  /// (or already torn down). The Inspect snapshot reads peer health from
  /// it.
  const dist::WorkerPool* worker_pool() const;

  /// Valid once terminal (Done: final curve; Cancelled: best-so-far).
  const Vec& curve() const { return curve_; }

 private:
  JobRecord record_;
  JobState state_ = JobState::Running;
  Vec curve_;
  std::uint64_t done_ = 0;  ///< evals_done snapshot once the run is gone
  std::unique_ptr<TuningRun> run_;
  std::shared_ptr<corpus::TransferCorpus> corpus_;
};

/// Run `spec` to completion in-process, outside any daemon — the
/// serial-replay equivalent the ext_serving gate byte-compares daemon
/// results against. Uses the exact tuner configuration TuningJob uses.
Vec serial_replay(const JobSpec& spec);

}  // namespace citroen::serve
