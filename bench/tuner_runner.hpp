#pragma once
// Helper used by the Ch. 5 comparison benches: run every phase-ordering
// tuner on a program and return their best-so-far speedup curves.
//
// Two entry points:
//   run_all_tuners     — the classic API; all (method, seed) runs share
//                        one prefix cache but nothing is persisted.
//   run_all_tuners_ex  — persistence-enabled: each run journals its
//                        evaluations through a RunSession, checkpoints on
//                        a cadence, honours the watchdog (SIGINT/SIGTERM
//                        and --deadline) and can resume byte-identically.
//                        Optionally runs under a fault plan (the injector
//                        and quarantine state are checkpointed too).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/tuners.hpp"
#include "bench/bench_persist.hpp"
#include "bench/corpus_runner.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "dist/pool.hpp"
#include "persist/journaled_evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/matrix.hpp"
#include "support/thread_pool.hpp"

namespace citroen::bench {

struct MethodCurves {
  std::string name;
  std::vector<Vec> curves;  ///< one per seed
};

/// Result of a persistence-enabled comparison run.
struct TunerRunReport {
  std::vector<MethodCurves> curves;
  int status = persist::kExitComplete;  ///< kExitInterrupted if stopped early
  sim::PrefixCacheStats cache_stats;    ///< aggregate over the shared cache
};

inline core::CitroenConfig default_citroen_config(int budget,
                                                  std::uint64_t seed) {
  core::CitroenConfig cfg;
  cfg.budget = budget;
  cfg.initial_random = std::max(4, budget / 6);
  cfg.candidates_per_iter = 16;
  cfg.gp.fit_steps = 6;
  cfg.seed = seed;
  return cfg;
}

inline Vec run_citroen_once(const std::string& program,
                            const std::string& machine, int budget,
                            std::uint64_t seed,
                            const std::function<void(core::CitroenConfig&)>&
                                tweak = {}) {
  sim::ProgramEvaluator eval(bench_suite::make_program(program),
                             sim::machine_by_name(machine));
  auto cfg = default_citroen_config(budget, seed);
  if (tweak) tweak(cfg);
  core::CitroenTuner tuner(eval, cfg);
  return tuner.run().speedup_curve;
}

namespace detail {

/// Run one (method, seed) comparison job. With `popt` the run journals,
/// checkpoints and resumes through a RunSession; without it this is the
/// plain in-memory run. `cache` is the session-wide shared prefix cache,
/// `faults` an optional fault plan applied through a RobustEvaluator.
inline Vec run_tuner_job(const std::string& method, const std::string& program,
                         const std::string& machine, int budget,
                         std::uint64_t seed, const PersistOptions* popt,
                         const sim::FaultPlan* faults,
                         const std::shared_ptr<sim::PrefixCache>& cache,
                         bool* interrupted) {
  sim::ProgramEvaluator base(bench_suite::make_program(program),
                             sim::machine_by_name(machine));
  if (cache) base.set_shared_prefix_cache(cache);
  // With CITROEN_SANDBOX=1 (fork workers) or CITROEN_PEERS (socket
  // peers) every candidate is vetted out of process before the
  // byte-identical in-process replay; the robust layer then quarantines
  // Worker* verdicts like any deterministic failure. Peers sit out while
  // a fault injector is installed.
  auto pool = dist::make_worker_pool(base, machine);
  sim::Evaluator& stack_base = pool ? static_cast<sim::Evaluator&>(*pool)
                                    : static_cast<sim::Evaluator&>(base);
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<sim::RobustEvaluator> robust;
  if (faults) {
    injector = std::make_unique<sim::FaultInjector>(*faults);
    robust = std::make_unique<sim::RobustEvaluator>(
        stack_base, sim::RobustConfig{}, injector.get());
  }
  sim::Evaluator& eval =
      robust ? static_cast<sim::Evaluator&>(*robust) : stack_base;

  const bool is_citroen = method == "citroen";
  if (!popt) {
    if (is_citroen) {
      auto cfg = default_citroen_config(budget, seed);
      // Corpus lookups probe on `base` (below the fault injector): advice
      // must not depend on injected faults, and empty advice leaves the
      // config — and the run — byte-identical to the cold path.
      corpus::apply_advice(&cfg,
                           corpus_advice_for_run(base, machine, cfg,
                                                 /*popt=*/nullptr, ""));
      core::CitroenTuner tuner(eval, cfg);
      const auto res = tuner.run();
      corpus_append_result(base, program, machine, budget, res,
                           tuner.tuned_modules());
      return res.speedup_curve;
    }
    baselines::PhaseTunerConfig cfg;
    cfg.budget = budget;
    cfg.seed = seed;
    auto tuner = baselines::make_phase_tuner(method, eval, cfg);
    while (tuner->step()) {
    }
    return tuner->finish().speedup_curve;
  }

  persist::RunSession session(to_session_config(*popt),
                              method + "_s" + std::to_string(seed));
  print_session_notes(session);
  if (session.complete()) {
    persist::Reader r(session.state());
    Vec curve;
    persist::get(r, curve);
    return curve;
  }
  persist::JournaledEvaluator jeval(eval, session);
  auto& wd = persist::Watchdog::instance();

  // The two tuner families expose the same stepwise surface; erase the
  // difference behind std::function so the drive loop is written once.
  std::unique_ptr<core::CitroenTuner> citroen;
  std::unique_ptr<baselines::ResumablePhaseTuner> baseline;
  if (is_citroen) {
    auto cfg = default_citroen_config(budget, seed);
    // Advice is resolved once and frozen in <dir>/<run>.advice: a resumed
    // run replays it verbatim no matter how the corpus grew in between.
    corpus::apply_advice(
        &cfg, corpus_advice_for_run(base, machine, cfg, popt,
                                    method + "_s" + std::to_string(seed)));
    citroen = std::make_unique<core::CitroenTuner>(jeval, cfg);
    citroen->set_skip_hyper_refits(
        [&wd] { return wd.deadline_imminent(5.0); });
  } else {
    baselines::PhaseTunerConfig cfg;
    cfg.budget = budget;
    cfg.seed = seed;
    baseline = baselines::make_phase_tuner(method, jeval, cfg);
  }
  const auto step = [&] { return citroen ? citroen->step() : baseline->step(); };
  const auto curve_so_far = [&] {
    return citroen ? citroen->finish().speedup_curve
                   : baseline->finish().speedup_curve;
  };
  const auto save_tuner = [&](persist::Writer& w) {
    citroen ? citroen->save_state(w) : baseline->save_state(w);
  };

  if (session.has_state()) {
    persist::Reader r(session.state());
    citroen ? citroen->load_state(r) : baseline->load_state(r);
    base.load_runtime_state(r);
    if (robust) robust->load_state(r);
    if (injector) injector->load_attempts(r);
  } else if (citroen) {
    citroen->start();
  }

  const auto checkpoint = [&] {
    persist::Writer w;
    save_tuner(w);
    base.save_runtime_state(w);
    if (robust) robust->save_state(w);
    if (injector) injector->save_attempts(w);
    session.save_checkpoint(w.take(), /*complete=*/false);
  };

  bool stopped = false;
  while (true) {
    if (wd.stop_requested()) {
      stopped = true;
      break;
    }
    if (!step()) break;
    if (session.checkpoint_due()) checkpoint();
  }
  if (stopped) {
    checkpoint();  // save_checkpoint flushes the journal first
    *interrupted = true;
    return curve_so_far();
  }
  Vec curve;
  if (citroen) {
    // Learn from the finished run BEFORE the complete checkpoint: a kill
    // between the two re-appends on resume, and the corpus's content-
    // keyed dedup makes the second append a no-op.
    const auto res = citroen->finish();
    corpus_append_result(base, program, machine, budget, res,
                         citroen->tuned_modules());
    curve = res.speedup_curve;
  } else {
    curve = curve_so_far();
  }
  persist::Writer w;
  persist::put(w, curve);
  session.save_checkpoint(w.take(), /*complete=*/true);
  return curve;
}

}  // namespace detail

/// Persistence-enabled variant of run_all_tuners. Runs
/// {citroen, boca, opentuner, ga, des, random} x seeds; every run owns a
/// private evaluator stack but shares one prefix cache. With `popt` each
/// run is a RunSession named "<method>_s<seed>" inside popt->dir; already-
/// complete runs are served from their final checkpoint, partial runs
/// resume from checkpoint + journal-tail replay, and a watchdog stop makes
/// the report carry kExitInterrupted. With `faults`, every evaluator runs
/// under its own FaultInjector built from the same plan.
inline TunerRunReport run_all_tuners_ex(const std::string& program,
                                        const std::string& machine, int budget,
                                        int seeds,
                                        const PersistOptions* popt = nullptr,
                                        const sim::FaultPlan* faults = nullptr) {
  static constexpr const char* kMethods[] = {"citroen", "boca", "opentuner",
                                             "ga",      "des",  "random"};
  if (popt) arm_watchdog(*popt);
  auto cache = std::make_shared<sim::PrefixCache>();

  TunerRunReport rep;
  for (const char* m : kMethods)
    rep.curves.push_back(
        {m, std::vector<Vec>(static_cast<std::size_t>(seeds))});

  struct Job {
    std::size_t method;  ///< index into rep.curves
    int seed;
  };
  std::vector<Job> jobs;
  for (std::size_t m = 0; m < rep.curves.size(); ++m)
    for (int s = 0; s < seeds; ++s) jobs.push_back(Job{m, s});

  std::vector<char> interrupted(jobs.size(), 0);
  ThreadPool::global().parallel_for(jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    bool intr = false;
    rep.curves[job.method].curves[static_cast<std::size_t>(job.seed)] =
        detail::run_tuner_job(rep.curves[job.method].name, program, machine,
                              budget, static_cast<std::uint64_t>(job.seed) + 1,
                              popt, faults, cache, &intr);
    if (intr) interrupted[j] = 1;
  });
  for (char c : interrupted)
    if (c) rep.status = persist::kExitInterrupted;
  rep.cache_stats = cache->stats();
  return rep;
}

/// Run {citroen, boca, opentuner, ga, des, random} over `seeds` repeats.
/// Each (method, seed) run owns a private evaluator, so the runs are
/// independent and execute concurrently on the global pool; results land
/// in preallocated slots and are identical to running the loop serially.
/// All evaluators share one prefix cache — pure memoization keyed by
/// salted module hashes, so sharing changes wall-clock only, not results.
inline std::vector<MethodCurves> run_all_tuners(const std::string& program,
                                                const std::string& machine,
                                                int budget, int seeds) {
  return run_all_tuners_ex(program, machine, budget, seeds).curves;
}

}  // namespace citroen::bench
