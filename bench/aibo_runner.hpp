#pragma once
// Helper for the Ch. 4 experiments: run any of the chapter's methods on a
// continuous task and return the best-so-far curve (minimisation).
//
// run_ch4_method_seeds_ex is the persistence-enabled variant: AIBO-family
// runs journal every objective sample (kRecordSample), checkpoint the
// optimiser on a cadence and resume byte-identically via journal-tail
// replay. The black-box baselines (turbo/hesbo/cmaes/ga/random) have no
// stepwise API; they journal their samples the same way — so a resumed
// run re-executes deterministically under byte-verification — and are
// checkpointed only on completion.

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aibo/aibo.hpp"
#include "baselines/continuous_bo.hpp"
#include "bench/bench_persist.hpp"
#include "persist/journaled_evaluator.hpp"
#include "support/thread_pool.hpp"
#include "synth/functions.hpp"

namespace citroen::bench {

inline aibo::AiboConfig ch4_config(int budget) {
  aibo::AiboConfig cfg;
  cfg.init_samples = std::max(10, budget / 4);
  cfg.k = 100;
  cfg.n_top = 1;
  cfg.gp.fit_steps = 8;
  return cfg;
}

/// AIBO configuration for the AIBO-family methods; nullopt for the
/// black-box baselines (turbo/hesbo/cmaes/ga/random). Throws on unknown.
inline std::optional<aibo::AiboConfig> ch4_aibo_config(
    const std::string& method, int budget,
    const std::optional<aibo::AiboConfig>& base = {}) {
  using M = aibo::AiboConfig::Maximizer;
  if (method == "turbo" || method == "hesbo" || method == "cmaes" ||
      method == "ga" || method == "random")
    return std::nullopt;

  aibo::AiboConfig cfg = base ? *base : ch4_config(budget);
  if (method == "aibo") {
    cfg.members = {"cmaes", "ga", "random"};
  } else if (method == "aibo-none") {
    cfg.members = {"cmaes", "ga", "random"};
    cfg.maximizer = M::None;
  } else if (method == "aibo-ga") {
    cfg.members = {"ga"};
  } else if (method == "aibo-cmaes") {
    cfg.members = {"cmaes"};
  } else if (method == "aibo-gacma") {
    cfg.members = {"cmaes", "ga"};
  } else if (method == "bo-grad") {
    cfg.members = {"random"};
  } else if (method == "bo-es") {
    cfg.members = {"random"};
    cfg.maximizer = M::EsOnly;
  } else if (method == "bo-random") {
    cfg.members = {"random"};
    cfg.maximizer = M::RandomOnly;
  } else if (method == "bo-cmaes-grad") {
    cfg.members = {"random"};
    cfg.maximizer = M::EsGrad;
  } else if (method == "bo-boltzmann") {
    cfg.members = {"boltzmann"};
  } else if (method == "bo-spray") {
    cfg.members = {"spray"};
  } else {
    throw std::runtime_error("unknown ch4 method: " + method);
  }
  return cfg;
}

/// Methods: aibo, aibo-none, aibo-ga, aibo-cmaes, aibo-gacma, bo-grad,
/// bo-es, bo-random, bo-cmaes-grad, bo-boltzmann, bo-spray, turbo, hesbo,
/// cmaes, ga, random.
inline Vec run_ch4_method(const std::string& method, const synth::Task& task,
                          int budget, std::uint64_t seed,
                          std::optional<aibo::AiboConfig> base = {}) {
  if (method == "turbo")
    return baselines::run_turbo(task.box, task.f, budget, seed).best_curve;
  if (method == "hesbo")
    return baselines::run_hesbo(task.box, task.f, budget, seed).best_curve;
  if (method == "cmaes")
    return baselines::run_cmaes_blackbox(task.box, task.f, budget, seed)
        .best_curve;
  if (method == "ga")
    return baselines::run_ga_blackbox(task.box, task.f, budget, seed)
        .best_curve;
  if (method == "random")
    return baselines::run_random_blackbox(task.box, task.f, budget, seed)
        .best_curve;

  const aibo::AiboConfig cfg = *ch4_aibo_config(method, budget, base);
  aibo::Aibo bo(task.box, cfg, seed);
  return bo.run(task.f, budget).best_curve;
}

/// Run one Ch. 4 method over seeds 1..n concurrently (each run is a
/// self-contained optimisation; slots are preallocated so results are
/// identical to the serial loop).
inline std::vector<Vec> run_ch4_method_seeds(
    const std::string& method, const synth::Task& task, int budget,
    int seeds, std::optional<aibo::AiboConfig> base = {}) {
  std::vector<Vec> curves(static_cast<std::size_t>(seeds));
  ThreadPool::global().parallel_for(
      curves.size(), [&](std::size_t s) {
        curves[s] = run_ch4_method(method, task, budget,
                                   static_cast<std::uint64_t>(s) + 1, base);
      });
  return curves;
}

/// Result of a persistence-enabled Ch. 4 run.
struct Ch4RunReport {
  std::vector<Vec> curves;  ///< one per seed
  int status = persist::kExitComplete;
};

namespace detail {

/// One persistence-enabled Ch. 4 run (run name "<method>_s<seed>").
inline Vec run_ch4_job(const std::string& method, const synth::Task& task,
                       int budget, std::uint64_t seed,
                       const persist::SessionConfig& session_config,
                       const std::optional<aibo::AiboConfig>& base,
                       bool* interrupted) {
  persist::RunSession session(session_config,
                              method + "_s" + std::to_string(seed));
  print_session_notes(session);
  if (session.complete()) {
    persist::Reader r(session.state());
    Vec curve;
    persist::get(r, curve);
    return curve;
  }
  auto& wd = persist::Watchdog::instance();

  // Journal every objective sample; on replay push() byte-verifies the
  // recomputed record against the recovered journal.
  const auto f = [&](const Vec& x) {
    const std::uint64_t index = session.next_index();
    const double y = task.f(x);
    session.push(persist::encode_sample_record(index, x, y));
    return y;
  };

  const std::optional<aibo::AiboConfig> cfg =
      ch4_aibo_config(method, budget, base);
  if (!cfg) {
    // Black-box baseline: no stepwise API, so it either runs to completion
    // (checkpointed as complete) or is skipped entirely when a stop is
    // already pending. A killed run resumes by deterministic re-execution
    // under journal verification.
    if (wd.stop_requested()) {
      session.flush();
      *interrupted = true;
      return {};
    }
    synth::Task journaled = task;
    journaled.f = f;
    const Vec curve = run_ch4_method(method, journaled, budget, seed);
    persist::Writer w;
    persist::put(w, curve);
    session.save_checkpoint(w.take(), /*complete=*/true);
    return curve;
  }

  aibo::Aibo bo(task.box, *cfg, seed);
  if (session.has_state()) {
    persist::Reader r(session.state());
    bo.load_state(r);
  } else {
    bo.start(f, budget);
  }
  const auto checkpoint = [&] {
    persist::Writer w;
    bo.save_state(w);
    session.save_checkpoint(w.take(), /*complete=*/false);
  };
  bool stopped = false;
  while (true) {
    if (wd.stop_requested()) {
      stopped = true;
      break;
    }
    if (!bo.step(f)) break;
    if (session.checkpoint_due()) checkpoint();
  }
  if (stopped) {
    checkpoint();  // save_checkpoint flushes the journal first
    *interrupted = true;
    return bo.finish().best_curve;
  }
  const Vec curve = bo.finish().best_curve;
  persist::Writer w;
  persist::put(w, curve);
  session.save_checkpoint(w.take(), /*complete=*/true);
  return curve;
}

}  // namespace detail

/// Persistence-enabled variant of run_ch4_method_seeds: every (method,
/// seed) run journals its samples into session.dir and resumes from
/// checkpoint + tail replay; a watchdog stop (armed by the caller, once
/// per process) marks the report kExitInterrupted.
inline Ch4RunReport run_ch4_method_seeds_ex(
    const std::string& method, const synth::Task& task, int budget, int seeds,
    const persist::SessionConfig& session,
    std::optional<aibo::AiboConfig> base = {}) {
  Ch4RunReport rep;
  rep.curves.resize(static_cast<std::size_t>(seeds));
  std::vector<char> interrupted(rep.curves.size(), 0);
  ThreadPool::global().parallel_for(rep.curves.size(), [&](std::size_t s) {
    bool intr = false;
    rep.curves[s] =
        detail::run_ch4_job(method, task, budget,
                            static_cast<std::uint64_t>(s) + 1, session, base,
                            &intr);
    if (intr) interrupted[s] = 1;
  });
  for (char c : interrupted)
    if (c) rep.status = persist::kExitInterrupted;
  return rep;
}

}  // namespace citroen::bench
