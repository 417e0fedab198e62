#pragma once
// One served tuning job: the full evaluator/tuner stack from the bench
// runners, repackaged so the daemon's scheduler can advance it one tuner
// step at a time and a daemon restart can resume it byte-identically.
//
// Durability model (everything routed through src/persist/):
//   job_<id>.meta     — admission record (tenant, spec, cancel flag),
//                       written atomically BEFORE the Accept frame is
//                       sent, so an accepted job always survives a crash.
//   job_<id>.journal  — write-ahead journal of its evaluations.
//   job_<id>.ckpt     — atomic checkpoint of tuner + evaluator state.
//
// Resume re-runs the RunSession protocol: checkpoint restore + journal-
// tail re-execution under byte-verification. Because every job owns a
// private evaluator stack and the shared prefix cache is pure
// memoization, the recovered result is byte-identical to a run that was
// never interrupted — the property the ext_serving gate SIGKILLs the
// daemon to enforce.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "serve/wire.hpp"
#include "support/matrix.hpp"

namespace citroen::sim {
class PrefixCache;
}

namespace citroen::dist {
class WorkerPool;
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

namespace detail {
struct JobStack;
}

class TuningJob {
 public:
  /// Builds the evaluator/tuner stack and opens (or resumes) the
  /// RunSession. Throws std::exception on an invalid spec (unknown
  /// program/machine/method) — the server converts that to a BadRequest
  /// reject at submit time and a Failed result at resume time.
  /// `shared_cache` is the daemon-wide prefix cache (pure memoization:
  /// sharing it across jobs changes wall clock only, never results).
  /// `dist_peers` names remote evaluation peers (dist/pool.hpp) the
  /// job's worker pool farms pure measurements to; empty consults
  /// CITROEN_PEERS. CITROEN_SANDBOX=1 adds fork workers to the same pool.
  /// Results are byte-identical with or without either transport.
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

  /// Checkpoint + flush without finishing (graceful drain). No-op when
  /// terminal (the final checkpoint already happened).
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
  void save_checkpoint(bool complete);

  JobRecord record_;
  JobState state_ = JobState::Running;
  Vec curve_;
  std::uint64_t done_ = 0;  ///< evals_done snapshot once the stack is gone
  std::unique_ptr<detail::JobStack> stack_;
  std::shared_ptr<corpus::TransferCorpus> corpus_;
};

/// Run `spec` to completion in-process, outside any daemon — the
/// serial-replay equivalent the ext_serving gate byte-compares daemon
/// results against. Uses the exact tuner configuration TuningJob uses.
Vec serial_replay(const JobSpec& spec);

}  // namespace citroen::serve
