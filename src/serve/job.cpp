#include "serve/job.hpp"

#include <cstdio>
#include <stdexcept>

#include "baselines/tuners.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "dist/pool.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/journaled_evaluator.hpp"
#include "persist/run_session.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "sim/robust_evaluator.hpp"

namespace citroen::serve {

namespace {

/// v2 appended the frozen transfer-corpus advice; v1 metas still load
/// (with empty advice), so a daemon upgrade never strands durable work.
constexpr std::uint32_t kJobRecordVersion = 2;

baselines::PhaseTunerConfig baseline_config_for(const JobSpec& spec) {
  baselines::PhaseTunerConfig cfg;
  cfg.budget = static_cast<int>(spec.budget);
  cfg.seed = spec.seed;
  return cfg;
}

}  // namespace

core::CitroenConfig default_citroen_config(int budget, std::uint64_t seed) {
  core::CitroenConfig cfg;
  cfg.budget = budget;
  cfg.initial_random = std::max(4, budget / 6);
  cfg.candidates_per_iter = 16;
  cfg.gp.fit_steps = 6;
  cfg.seed = seed;
  return cfg;
}

std::string job_file_stem(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "job_%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string job_meta_path(const std::string& dir, std::uint64_t id) {
  return dir + "/" + job_file_stem(id) + ".meta";
}

void save_job_record(const std::string& dir, const JobRecord& rec) {
  persist::Writer w;
  w.u32(kJobRecordVersion);
  w.u64(rec.id);
  w.str(rec.tenant);
  w.str(rec.spec.program);
  w.str(rec.spec.machine);
  w.str(rec.spec.method);
  w.u32(rec.spec.budget);
  w.u64(rec.spec.seed);
  w.b(rec.cancelled);
  corpus::put(w, rec.advice);
  persist::write_checkpoint(job_meta_path(dir, rec.id), w.data());
}

bool load_job_record(const std::string& path, JobRecord* rec,
                     std::string* note) {
  const auto payload = persist::read_checkpoint(path, note);
  if (!payload) return false;
  try {
    persist::Reader r(*payload);
    const std::uint32_t version = r.u32();
    if (version < 1 || version > kJobRecordVersion)
      throw std::runtime_error("unsupported job record version");
    rec->id = r.u64();
    rec->tenant = r.str();
    rec->spec.program = r.str();
    rec->spec.machine = r.str();
    rec->spec.method = r.str();
    rec->spec.budget = r.u32();
    rec->spec.seed = r.u64();
    rec->cancelled = r.b();
    if (version >= 2) corpus::get(r, rec->advice);
    if (!r.at_end()) throw std::runtime_error("trailing bytes");
    return true;
  } catch (const std::exception& e) {
    if (note) *note = path + ": " + e.what();
    return false;
  }
}

TuningRun::TuningRun(const JobSpec& spec,
                     const persist::SessionConfig& session,
                     const std::string& run_name,
                     const std::shared_ptr<sim::PrefixCache>& shared_cache,
                     const std::vector<std::string>& dist_peers,
                     const sim::FaultPlan* faults)
    : spec_(spec) {
  base_ = std::make_unique<sim::ProgramEvaluator>(
      bench_suite::make_program(spec_.program),
      sim::machine_by_name(spec_.machine));
  if (shared_cache) base_->set_shared_prefix_cache(shared_cache);
  // CITROEN_SANDBOX=1 vets every candidate in fork workers and peers take
  // measurements remotely; results stay byte-identical either way. The
  // robust layer quarantines Worker* verdicts like any deterministic
  // failure.
  pool_ = dist::make_worker_pool(*base_, spec_.machine, dist_peers);
  sim::Evaluator* eval = pool_ ? static_cast<sim::Evaluator*>(pool_.get())
                               : static_cast<sim::Evaluator*>(base_.get());
  if (faults) {
    injector_ = std::make_unique<sim::FaultInjector>(*faults);
    robust_ = std::make_unique<sim::RobustEvaluator>(
        *eval, sim::RobustConfig{}, injector_.get());
    eval = robust_.get();
  }
  session_ = std::make_unique<persist::RunSession>(session, run_name);
  if (session_->complete()) {
    persist::Reader r(session_->state());
    persist::get(r, curve_);
    return;
  }
  jeval_ = std::make_unique<persist::JournaledEvaluator>(*eval, *session_);
}

TuningRun::~TuningRun() = default;

bool TuningRun::complete() const { return session_->complete(); }

std::uint64_t TuningRun::evals_done() const { return session_->next_index(); }

void TuningRun::start(const corpus::TunerAdvice& advice) {
  if (spec_.method == "citroen") {
    auto cfg = default_citroen_config(static_cast<int>(spec_.budget),
                                      spec_.seed);
    corpus::apply_advice(&cfg, advice);
    citroen_ = std::make_unique<core::CitroenTuner>(*jeval_, cfg);
  } else {
    baseline_ = baselines::make_phase_tuner(spec_.method, *jeval_,
                                            baseline_config_for(spec_));
  }
  if (session_->has_state()) {
    persist::Reader r(session_->state());
    citroen_ ? citroen_->load_state(r) : baseline_->load_state(r);
    base_->load_runtime_state(r);
    if (robust_) robust_->load_state(r);
    if (injector_) injector_->load_attempts(r);
  } else if (citroen_) {
    citroen_->start();
  }
}

bool TuningRun::step() {
  const bool more = citroen_ ? citroen_->step() : baseline_->step();
  if (more && session_->checkpoint_due()) checkpoint();
  return more;
}

void TuningRun::checkpoint() {
  persist::Writer w;
  citroen_ ? citroen_->save_state(w) : baseline_->save_state(w);
  base_->save_runtime_state(w);
  if (robust_) robust_->save_state(w);
  if (injector_) injector_->save_attempts(w);
  session_->save_checkpoint(w.take(), /*complete=*/false);
}

Vec TuningRun::curve_so_far() {
  return citroen_ ? citroen_->finish().speedup_curve
                  : baseline_->finish().speedup_curve;
}

const Vec& TuningRun::finish() {
  curve_ = curve_so_far();
  persist::Writer w;
  persist::put(w, curve_);
  session_->save_checkpoint(w.take(), /*complete=*/true);
  return curve_;
}

TuningJob::TuningJob(JobRecord record, const std::string& state_dir,
                     bool resume,
                     const std::shared_ptr<sim::PrefixCache>& shared_cache,
                     int fsync_every, int checkpoint_every,
                     const std::vector<std::string>& dist_peers,
                     const std::shared_ptr<corpus::TransferCorpus>& corpus)
    : record_(std::move(record)), corpus_(corpus) {
  if (record_.cancelled) {
    state_ = JobState::Cancelled;
    return;
  }
  persist::SessionConfig scfg;
  scfg.dir = state_dir;
  scfg.resume = resume;
  scfg.fsync_every = fsync_every;
  scfg.checkpoint_every = checkpoint_every;
  const std::string stem = job_file_stem(record_.id);
  run_ = std::make_unique<TuningRun>(record_.spec, scfg, stem, shared_cache,
                                     dist_peers);
  if (!run_->session().recovery_note().empty())
    std::fprintf(stderr, "[citroend %s] %s\n", stem.c_str(),
                 run_->session().recovery_note().c_str());
  if (run_->complete()) {
    curve_ = run_->curve();
    done_ = run_->evals_done();
    state_ = JobState::Done;
    run_.reset();
    return;
  }
  // Fresh citroen jobs consult the corpus ONCE, here, and freeze the
  // result in the admission record — a resumed job reuses record_.advice
  // verbatim, so resume stays byte-identical no matter how the corpus
  // grew in between. Probes are compile-only: they touch compile
  // accounting and the (pure-memo) prefix cache, nothing a result
  // depends on.
  if (!resume && corpus_ && record_.spec.method == "citroen" &&
      corpus_->num_entries() > 0) {
    const auto cfg = default_citroen_config(
        static_cast<int>(record_.spec.budget), record_.spec.seed);
    record_.advice = corpus::advise_for_modules(
        *corpus_, run_->base(), record_.spec.machine,
        core::select_hot_modules(run_->base(), cfg.hot_threshold,
                                 cfg.max_hot_modules));
  }
  run_->start(record_.advice);
}

TuningJob::~TuningJob() = default;

std::uint64_t TuningJob::evals_done() const {
  return run_ ? run_->evals_done() : done_;
}

const dist::WorkerPool* TuningJob::worker_pool() const {
  return run_ ? run_->worker_pool() : nullptr;
}

std::uint64_t TuningJob::step() {
  if (terminal() || !run_) return 0;
  OBS_SPAN("serve_job_step", "serve");
  const std::uint64_t before = run_->evals_done();
  if (run_->step()) return run_->evals_done() - before;
  if (const core::CitroenTuner* tuner = run_->citroen();
      tuner && corpus_ && corpus_->writable()) {
    // Learn from the finished run BEFORE the complete checkpoint: a
    // crash between the two re-runs this block on resume, and the
    // content-keyed dedup makes the second append a no-op.
    corpus::append_tune_result(*corpus_, run_->base(), record_.spec.program,
                               record_.spec.machine, record_.spec.budget,
                               tuner->finish(), tuner->tuned_modules());
  }
  curve_ = run_->finish();
  done_ = run_->evals_done();
  state_ = JobState::Done;
  run_.reset();
  return done_ - before;
}

void TuningJob::checkpoint_for_drain() {
  if (terminal() || !run_) return;
  run_->checkpoint();  // save_checkpoint flushes the journal first
}

void TuningJob::cancel(const std::string& state_dir) {
  if (terminal()) return;
  if (run_) {
    curve_ = run_->curve_so_far();
    done_ = run_->evals_done();
    // Durable stop before the in-memory one: a crash right after cancel
    // must not resurrect the job.
    run_->checkpoint();
  }
  record_.cancelled = true;
  save_job_record(state_dir, record_);
  state_ = JobState::Cancelled;
  run_.reset();
}

Vec serial_replay(const JobSpec& spec) {
  sim::ProgramEvaluator base(bench_suite::make_program(spec.program),
                             sim::machine_by_name(spec.machine));
  const auto pool = dist::make_worker_pool(base, spec.machine);
  sim::Evaluator& eval = pool ? static_cast<sim::Evaluator&>(*pool)
                              : static_cast<sim::Evaluator&>(base);
  if (spec.method == "citroen") {
    core::CitroenTuner tuner(
        eval, default_citroen_config(static_cast<int>(spec.budget), spec.seed));
    return tuner.run().speedup_curve;
  }
  auto tuner =
      baselines::make_phase_tuner(spec.method, eval, baseline_config_for(spec));
  while (tuner->step()) {
  }
  return tuner->finish().speedup_curve;
}

}  // namespace citroen::serve
