#pragma once
// Helper used by the Ch. 5 comparison benches: run every phase-ordering
// tuner on a program and return their best-so-far speedup curves.
//
// Two entry points:
//   run_all_tuners     — the classic API; all (method, seed) runs share
//                        one prefix cache but nothing is persisted.
//   run_all_tuners_ex  — persistence-enabled: each run is a
//                        serve::TuningRun, the daemon's crash-safe stack,
//                        which journals, checkpoints on a cadence, honours
//                        the watchdog (SIGINT/SIGTERM and --deadline) and
//                        resumes byte-identically, optionally under a
//                        fault plan.

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
#include "serve/job.hpp"
#include "sim/machine.hpp"
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

inline Vec run_citroen_once(const std::string& program,
                            const std::string& machine, int budget,
                            std::uint64_t seed,
                            const std::function<void(core::CitroenConfig&)>&
                                tweak = {}) {
  sim::ProgramEvaluator eval(bench_suite::make_program(program),
                             sim::machine_by_name(machine));
  auto cfg = serve::default_citroen_config(budget, seed);
  if (tweak) tweak(cfg);
  core::CitroenTuner tuner(eval, cfg);
  return tuner.run().speedup_curve;
}

namespace detail {

/// Run one (method, seed) comparison job. With `session` the run is a
/// serve::TuningRun named "<method>_s<seed>" inside session->dir, the
/// daemon's crash-safe stack: it journals, checkpoints, stops when the
/// watchdog says so and resumes byte-identically, under `faults` if set.
/// Without it this is the plain in-memory run. `cache` is the sweep-wide
/// shared prefix cache.
inline Vec run_tuner_job(const std::string& method, const std::string& program,
                         const std::string& machine, int budget,
                         std::uint64_t seed,
                         const persist::SessionConfig* session,
                         const sim::FaultPlan* faults,
                         const std::shared_ptr<sim::PrefixCache>& cache,
                         bool* interrupted) {
  if (!session) {
    sim::ProgramEvaluator base(bench_suite::make_program(program),
                               sim::machine_by_name(machine));
    if (cache) base.set_shared_prefix_cache(cache);
    // With CITROEN_SANDBOX=1 (fork workers) or CITROEN_PEERS (socket
    // peers) every candidate is vetted out of process before the
    // byte-identical in-process replay.
    auto pool = dist::make_worker_pool(base, machine);
    sim::Evaluator& eval = pool ? static_cast<sim::Evaluator&>(*pool)
                                : static_cast<sim::Evaluator&>(base);
    if (method == "citroen") {
      auto cfg = serve::default_citroen_config(budget, seed);
      // Empty advice leaves the config — and the run — byte-identical to
      // the cold path.
      corpus::apply_advice(&cfg,
                           corpus_advice_for_run(base, machine, cfg,
                                                 /*session=*/nullptr, ""));
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

  const serve::JobSpec spec{.program = program,
                            .machine = machine,
                            .method = method,
                            .budget = static_cast<std::uint32_t>(budget),
                            .seed = seed};
  const std::string name = method + "_s" + std::to_string(seed);
  serve::TuningRun run(spec, *session, name, cache, {}, faults);
  print_session_notes(run.session());
  if (run.complete()) return run.curve();
  // Advice is resolved once and frozen in <dir>/<run>.advice: a resumed
  // run replays it verbatim no matter how the corpus grew in between.
  // Probes run on the base evaluator, below any fault injector.
  run.start(method == "citroen"
                ? corpus_advice_for_run(
                      run.base(), machine,
                      serve::default_citroen_config(budget, seed), session,
                      name)
                : corpus::TunerAdvice{});
  const auto& wd = persist::Watchdog::instance();
  while (!wd.stop_requested()) {
    if (run.step()) continue;
    // Learn from the finished run BEFORE the complete checkpoint: a kill
    // between the two re-appends on resume, and the corpus's content-
    // keyed dedup makes the second append a no-op.
    if (const core::CitroenTuner* tuner = run.citroen())
      corpus_append_result(run.base(), program, machine, budget,
                           tuner->finish(), tuner->tuned_modules());
    return run.finish();
  }
  run.checkpoint();
  *interrupted = true;
  return run.curve_so_far();
}

}  // namespace detail

/// Persistence-enabled variant of run_all_tuners. Runs
/// {citroen, boca, opentuner, ga, des, random} x seeds; every run owns a
/// private evaluator stack but shares one prefix cache. With `session`
/// each run is a TuningRun named "<method>_s<seed>" inside session->dir;
/// already-complete runs are served from their final checkpoint, partial
/// runs resume from checkpoint + journal-tail replay, and a watchdog stop
/// (armed by the caller, once per process) makes the report carry
/// kExitInterrupted. With `faults` (persisted runs only), every evaluator
/// runs under its own FaultInjector built from the same plan.
inline TunerRunReport run_all_tuners_ex(
    const std::string& program, const std::string& machine, int budget,
    int seeds, const persist::SessionConfig* session = nullptr,
    const sim::FaultPlan* faults = nullptr) {
  static constexpr const char* kMethods[] = {"citroen", "boca", "opentuner",
                                             "ga",      "des",  "random"};
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
                              session, faults, cache, &intr);
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
