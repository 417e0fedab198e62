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
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"

namespace citroen::serve {

namespace {

/// v2 appended the frozen transfer-corpus advice; v1 metas still load
/// (with empty advice), so a daemon upgrade never strands durable work.
constexpr std::uint32_t kJobRecordVersion = 2;

/// Mirrors the bench runners' default CITROEN configuration so a daemon
/// job and its serial replay drive the identical search.
core::CitroenConfig citroen_config_for(const JobSpec& spec) {
  core::CitroenConfig cfg;
  cfg.budget = static_cast<int>(spec.budget);
  cfg.initial_random = std::max(4, static_cast<int>(spec.budget) / 6);
  cfg.candidates_per_iter = 16;
  cfg.gp.fit_steps = 6;
  cfg.seed = spec.seed;
  return cfg;
}

baselines::PhaseTunerConfig baseline_config_for(const JobSpec& spec) {
  baselines::PhaseTunerConfig cfg;
  cfg.budget = static_cast<int>(spec.budget);
  cfg.seed = spec.seed;
  return cfg;
}

}  // namespace

namespace detail {

/// The evaluator/tuner stack behind one job. Member order is the
/// destruction contract: tuners die before the journaled evaluator,
/// which dies before the session, which dies before the worker pool and
/// the base evaluator.
struct JobStack {
  std::unique_ptr<sim::ProgramEvaluator> base;
  std::unique_ptr<dist::WorkerPool> pool;
  std::unique_ptr<persist::RunSession> session;
  std::unique_ptr<persist::JournaledEvaluator> jeval;
  std::unique_ptr<core::CitroenTuner> citroen;
  std::unique_ptr<baselines::ResumablePhaseTuner> baseline;

  bool step_tuner() { return citroen ? citroen->step() : baseline->step(); }
  Vec curve_so_far() {
    return citroen ? citroen->finish().speedup_curve
                   : baseline->finish().speedup_curve;
  }
  void save_tuner(persist::Writer& w) {
    citroen ? citroen->save_state(w) : baseline->save_state(w);
  }
};

}  // namespace detail

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

TuningJob::TuningJob(JobRecord record, const std::string& state_dir,
                     bool resume,
                     const std::shared_ptr<sim::PrefixCache>& shared_cache,
                     int fsync_every, int checkpoint_every,
                     const std::vector<std::string>& dist_peers,
                     const std::shared_ptr<corpus::TransferCorpus>& corpus)
    : record_(std::move(record)),
      stack_(std::make_unique<detail::JobStack>()),
      corpus_(corpus) {
  if (record_.cancelled) {
    state_ = JobState::Cancelled;
    stack_.reset();
    return;
  }

  auto& s = *stack_;
  s.base = std::make_unique<sim::ProgramEvaluator>(
      bench_suite::make_program(record_.spec.program),
      sim::machine_by_name(record_.spec.machine));
  if (shared_cache) s.base->set_shared_prefix_cache(shared_cache);
  // Fresh citroen jobs consult the corpus ONCE, here, and freeze the
  // result in the admission record — a resumed job reuses record_.advice
  // verbatim, so resume stays byte-identical no matter how the corpus
  // grew in between. Probes are compile-only: they touch compile
  // accounting and the (pure-memo) prefix cache, nothing a result
  // depends on.
  if (!resume && corpus_ && record_.spec.method == "citroen" &&
      corpus_->num_entries() > 0) {
    record_.advice = corpus::advise_for_modules(
        *corpus_, *s.base, record_.spec.machine,
        core::select_hot_modules(*s.base, citroen_config_for(record_.spec)));
  }
  // Same opt-ins as the bench runners: CITROEN_SANDBOX=1 vets every
  // candidate in fork workers, peers take measurements remotely; results
  // stay byte-identical either way.
  s.pool = dist::make_worker_pool(*s.base, record_.spec.machine, dist_peers);
  sim::Evaluator& inner = s.pool ? static_cast<sim::Evaluator&>(*s.pool)
                                 : static_cast<sim::Evaluator&>(*s.base);

  persist::SessionConfig scfg;
  scfg.dir = state_dir;
  scfg.resume = resume;
  scfg.fsync_every = fsync_every;
  scfg.checkpoint_every = checkpoint_every;
  s.session =
      std::make_unique<persist::RunSession>(scfg, job_file_stem(record_.id));
  if (!s.session->recovery_note().empty())
    std::fprintf(stderr, "[citroend %s] %s\n", job_file_stem(record_.id).c_str(),
                 s.session->recovery_note().c_str());

  if (s.session->complete()) {
    persist::Reader r(s.session->state());
    persist::get(r, curve_);
    done_ = s.session->next_index();
    state_ = JobState::Done;
    stack_.reset();
    return;
  }

  s.jeval = std::make_unique<persist::JournaledEvaluator>(inner, *s.session);
  if (record_.spec.method == "citroen") {
    auto cfg = citroen_config_for(record_.spec);
    corpus::apply_advice(&cfg, record_.advice);
    s.citroen = std::make_unique<core::CitroenTuner>(*s.jeval, cfg);
  } else {
    s.baseline = baselines::make_phase_tuner(record_.spec.method, *s.jeval,
                                             baseline_config_for(record_.spec));
  }

  if (s.session->has_state()) {
    persist::Reader r(s.session->state());
    s.citroen ? s.citroen->load_state(r) : s.baseline->load_state(r);
    s.base->load_runtime_state(r);
  } else if (s.citroen) {
    s.citroen->start();
  }
}

TuningJob::~TuningJob() = default;

std::uint64_t TuningJob::evals_done() const {
  return stack_ && stack_->session ? stack_->session->next_index() : done_;
}

const dist::WorkerPool* TuningJob::worker_pool() const {
  return stack_ ? stack_->pool.get() : nullptr;
}

void TuningJob::save_checkpoint(bool complete) {
  auto& s = *stack_;
  persist::Writer w;
  if (complete) {
    persist::put(w, curve_);
  } else {
    s.save_tuner(w);
    s.base->save_runtime_state(w);
  }
  s.session->save_checkpoint(w.take(), complete);
}

std::uint64_t TuningJob::step() {
  if (terminal() || !stack_) return 0;
  auto& s = *stack_;
  OBS_SPAN("serve_job_step", "serve");
  const std::uint64_t before = s.session->next_index();
  const bool more = s.step_tuner();
  const std::uint64_t consumed = s.session->next_index() - before;
  if (!more) {
    if (s.citroen && corpus_ && corpus_->writable()) {
      // Learn from the finished run BEFORE the complete checkpoint: a
      // crash between the two re-runs this block on resume, and the
      // content-keyed dedup makes the second append a no-op.
      corpus::append_tune_result(*corpus_, *s.base, record_.spec.program,
                                 record_.spec.machine, record_.spec.budget,
                                 s.citroen->finish(),
                                 s.citroen->tuned_modules());
    }
    curve_ = s.curve_so_far();
    save_checkpoint(/*complete=*/true);
    done_ = s.session->next_index();
    state_ = JobState::Done;
    stack_.reset();
    return consumed;
  }
  if (s.session->checkpoint_due()) save_checkpoint(/*complete=*/false);
  return consumed;
}

void TuningJob::checkpoint_for_drain() {
  if (terminal() || !stack_) return;
  save_checkpoint(/*complete=*/false);
  stack_->session->flush();
}

void TuningJob::cancel(const std::string& state_dir) {
  if (terminal()) return;
  if (stack_) {
    curve_ = stack_->curve_so_far();
    done_ = stack_->session->next_index();
    // Durable stop before the in-memory one: a crash right after cancel
    // must not resurrect the job.
    checkpoint_for_drain();
  }
  record_.cancelled = true;
  save_job_record(state_dir, record_);
  state_ = JobState::Cancelled;
  stack_.reset();
}

Vec serial_replay(const JobSpec& spec) {
  sim::ProgramEvaluator base(bench_suite::make_program(spec.program),
                             sim::machine_by_name(spec.machine));
  const auto pool = dist::make_worker_pool(base, spec.machine);
  sim::Evaluator& eval = pool ? static_cast<sim::Evaluator&>(*pool)
                              : static_cast<sim::Evaluator&>(base);
  if (spec.method == "citroen") {
    core::CitroenTuner tuner(eval, citroen_config_for(spec));
    return tuner.run().speedup_curve;
  }
  auto tuner =
      baselines::make_phase_tuner(spec.method, eval, baseline_config_for(spec));
  while (tuner->step()) {
  }
  return tuner->finish().speedup_curve;
}

}  // namespace citroen::serve
