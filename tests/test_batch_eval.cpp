// Properties of the batch evaluation engine: the work-stealing thread
// pool, the FlatMap assignment container, pass-name interning, the
// pipeline-prefix cache, and — the central contract — that
// `evaluate_batch` with any thread count and any cache configuration is
// bit-identical to the serial seed path, including under an injected
// fault plan.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "baselines/tuners.hpp"
#include "obs/metrics.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/flat_map.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;

namespace {

sim::ProgramEvaluator make_eval() {
  return sim::ProgramEvaluator(bench_suite::make_program("security_sha"),
                               sim::arm_a57_model());
}

/// A batch of ES-style candidates: suffix mutations of a common base
/// sequence. Only exact repeats (every 4th candidate, and the serial
/// replay of what prefetch built) are served from the prefix cache;
/// a shared prefix is rerun.
std::vector<sim::SequenceAssignment> make_batch(int n) {
  const std::vector<std::string> base = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse",
      "sccp",    "adce"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < n; ++i) {
    auto seq = base;
    // Deterministic point mutation in the suffix, leaving the prefix
    // shared; every 4th candidate is an exact duplicate of the base.
    if (i % 4 != 0) {
      const std::size_t pos = seq.size() - 1 - (static_cast<std::size_t>(i) % 4);
      seq[pos] = space[(static_cast<std::size_t>(i) * 7) % space.size()];
    }
    sim::SequenceAssignment a;
    a["sha"] = seq;
    if (i % 3 == 0) a["pad"] = {"dce", "simplifycfg"};
    batch.push_back(std::move(a));
  }
  return batch;
}

void expect_outcome_eq(const sim::EvalOutcome& a, const sim::EvalOutcome& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.why_invalid, b.why_invalid);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.cycles, b.cycles);  // bit-identical, not approximately
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.binary_hash, b.binary_hash);
  EXPECT_EQ(a.code_size, b.code_size);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

sim::FaultPlan nasty_plan() {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.transient_crash_rate = 0.1;
  plan.deterministic_crash_rate = 0.1;
  plan.hang_rate = 0.05;
  plan.transient_hang_rate = 0.05;
  plan.miscompile_rate = 0.05;
  plan.noise_sigma = 0.1;
  plan.outlier_rate = 0.05;
  return plan;
}

}  // namespace

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(103);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Reentrant parallel_for must not deadlock waiting on the same pool.
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 13)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(16, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, SingleThreadPoolIsSerial) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// ---- FlatMap --------------------------------------------------------------

TEST(FlatMap, MatchesStdMapIterationOrder) {
  const FlatMap<std::string, int> fm{{"zeta", 1}, {"alpha", 2}, {"mid", 3}};
  const std::map<std::string, int> sm{{"zeta", 1}, {"alpha", 2}, {"mid", 3}};
  ASSERT_EQ(fm.size(), sm.size());
  auto it = sm.begin();
  for (const auto& [k, v] : fm) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(FlatMap, BasicOperations) {
  FlatMap<std::string, int> m;
  EXPECT_TRUE(m.empty());
  m["b"] = 2;
  m["a"] = 1;
  m["b"] = 20;  // overwrite via operator[]
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("b"), 20);
  EXPECT_EQ(m.count("a"), 1u);
  EXPECT_EQ(m.count("zz"), 0u);
  EXPECT_EQ(m.find("zz"), m.end());
  EXPECT_FALSE(m.emplace("a", 99).second);  // no overwrite via emplace
  EXPECT_EQ(m.at("a"), 1);
  EXPECT_EQ(m.erase("a"), 1u);
  EXPECT_EQ(m.erase("a"), 0u);
  EXPECT_THROW(m.at("a"), std::out_of_range);
  // Keys stay sorted after mixed insertion.
  m["zz"] = 3;
  m["aa"] = 4;
  std::string prev;
  for (const auto& [k, v] : m) {
    EXPECT_LT(prev, k);
    prev = k;
  }
  const FlatMap<std::string, int> x{{"k", 1}};
  const FlatMap<std::string, int> y{{"k", 1}};
  const FlatMap<std::string, int> z{{"k", 2}};
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
}

TEST(FlatMap, InitializerListFirstDuplicateWins) {
  const FlatMap<std::string, int> m{{"a", 1}, {"a", 2}, {"b", 3}};
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("a"), 1);  // std::map semantics
}

// ---- pass interning -------------------------------------------------------

TEST(Interning, RoundTripsEveryRegisteredPass) {
  const auto& reg = passes::PassRegistry::instance();
  for (std::size_t i = 0; i < reg.num_passes(); ++i) {
    const auto& name = reg.pass_names()[i];
    const int id = reg.id_of(name);
    ASSERT_EQ(id, static_cast<int>(i));
    EXPECT_EQ(reg.name_of(static_cast<passes::PassId>(id)), name);
  }
  EXPECT_EQ(reg.id_of("no-such-pass"), -1);
  EXPECT_THROW(passes::intern_sequence({"gvn", "no-such-pass"}),
               std::runtime_error);
}

TEST(Interning, IdSequenceMatchesStringSequence) {
  auto p1 = bench_suite::make_program("security_sha");
  auto p2 = p1;
  const std::vector<std::string> seq = {"mem2reg", "gvn", "dce",
                                        "simplifycfg"};
  const auto ids = passes::intern_sequence(seq);
  const auto s1 = passes::run_sequence(p1.modules[0], seq);
  const auto s2 = passes::run_sequence(p2.modules[0], ids.data(), ids.size());
  EXPECT_EQ(s1.counters(), s2.counters());
  EXPECT_EQ(sim::program_hash(p1), sim::program_hash(p2));
}

// ---- prefix cache ---------------------------------------------------------

TEST(PrefixCache, CachedBuildsMatchUncachedBitForBit) {
  const auto program = bench_suite::make_program("security_sha");
  const auto& m = program.modules[0];
  sim::PrefixCacheConfig off;
  off.byte_budget = 0;
  const sim::PrefixCache cold(off);
  const sim::PrefixCache warm;  // default 64 MB

  const auto batch = make_batch(24);
  for (const auto& a : batch) {
    const auto ids = passes::intern_sequence(a.at("sha"));
    const auto u = cold.build(m, ids);
    const auto c = warm.build(m, ids);
    EXPECT_EQ(u->ok, c->ok);
    EXPECT_EQ(u->print_hash, c->print_hash);
    EXPECT_EQ(u->code_size, c->code_size);
    EXPECT_EQ(u->stats.counters(), c->stats.counters());
  }
  const auto ws = warm.stats();
  const auto cs = cold.stats();
  // Duplicate candidates must have saved pass runs.
  EXPECT_GT(ws.full_hits, 0u);
  EXPECT_GT(ws.passes_saved, 0u);
  EXPECT_LT(ws.passes_run, cs.passes_run);
  EXPECT_GT(ws.bytes, 0u);
}

TEST(PrefixCache, FailedBuildsAreCachedWithTheSameError) {
  // A sequence whose pipeline is fine but the module unknown-pass case is
  // exercised at interning; here exercise repeat lookups of an ok build
  // and confirm the second build is a pure cache hit.
  const auto program = bench_suite::make_program("security_sha");
  const sim::PrefixCache cache;
  const auto ids = passes::intern_sequence({"gvn", "dce"});
  const auto first = cache.build(program.modules[0], ids);
  const auto again = cache.build(program.modules[0], ids);
  EXPECT_EQ(first.get(), again.get());  // literally the same entry
  EXPECT_EQ(cache.stats().full_hits, 1u);
}

TEST(PrefixCache, StoresOnlyFinalizedBuilds) {
  // A sibling that differs only in its last pass reruns its whole
  // sequence: no intermediate state is stored or resumed from.
  const auto program = bench_suite::make_program("security_sha");
  const auto& m = program.modules[0];
  const std::vector<std::string> seq = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse",
      "sccp",    "adce"};
  auto sibling = seq;
  sibling.back() = "dce";
  const sim::PrefixCache cache;
  const auto first = cache.build(m, passes::intern_sequence(seq));
  cache.build(m, passes::intern_sequence(sibling));
  const auto st = cache.stats();
  EXPECT_EQ(st.insertions, 2u);
  EXPECT_EQ(st.prefix_hits, 0u);
  EXPECT_EQ(st.passes_run, 24u);
  EXPECT_EQ(cache.build(m, passes::intern_sequence(seq)).get(), first.get());
}

TEST(PrefixCache, ByteBudgetEvicts) {
  sim::PrefixCacheConfig tiny;
  tiny.byte_budget = 64 << 10;  // 64 KB: far below the working set
  tiny.shards = 2;
  const sim::PrefixCache cache(tiny);
  const auto program = bench_suite::make_program("security_sha");
  for (const auto& a : make_batch(32)) {
    const auto ids = passes::intern_sequence(a.at("sha"));
    cache.build(program.modules[0], ids);
  }
  const auto st = cache.stats();
  EXPECT_LE(st.bytes, tiny.byte_budget);
  EXPECT_GT(st.evictions, 0u);
}

TEST(PrefixCache, ExportsPassesRunNextToPassesSaved) {
  const bool was_on = obs::metrics_enabled();
  obs::metrics_force_enable(true);
  auto& reg = obs::Registry::instance();
  auto& run = reg.counter("citroen_prefix_cache_passes_run_total");
  auto& saved = reg.counter("citroen_prefix_cache_passes_saved_total");
  auto eval = make_eval();
  const auto before = eval.prefix_cache_stats();
  const std::uint64_t run0 = run.value();
  const std::uint64_t saved0 = saved.value();
  eval.evaluate_batch(make_batch(16));
  const auto after = eval.prefix_cache_stats();
  obs::metrics_force_enable(was_on);
  EXPECT_GT(after.passes_run, before.passes_run);
  EXPECT_EQ(run.value() - run0, after.passes_run - before.passes_run);
  EXPECT_EQ(saved.value() - saved0, after.passes_saved - before.passes_saved);
}

// ---- batch evaluation determinism ----------------------------------------

TEST(BatchEval, BitIdenticalToSerialAtEveryThreadCount) {
  const auto batch = make_batch(16);

  // Reference: the plain serial path on a fresh evaluator with the
  // prefix cache disabled — the seed behaviour.
  auto serial = make_eval();
  serial.set_prefix_cache_config([] {
    sim::PrefixCacheConfig c;
    c.byte_budget = 0;
    return c;
  }());
  std::vector<sim::EvalOutcome> want;
  for (const auto& a : batch) want.push_back(serial.evaluate(a));

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    auto ev = make_eval();
    ev.set_thread_pool(&pool);
    const auto got = ev.evaluate_batch(batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " candidate=" + std::to_string(i));
      expect_outcome_eq(want[i], got[i]);
    }
    // The serial-order integer counters must also match exactly.
    EXPECT_EQ(ev.num_compiles(), serial.num_compiles());
    EXPECT_EQ(ev.num_measurements(), serial.num_measurements());
    EXPECT_EQ(ev.num_cache_hits(), serial.num_cache_hits());
    // And the prefix cache must actually have been exercised.
    EXPECT_GT(ev.prefix_cache_stats().passes_saved, 0u);
  }
}

TEST(BatchEval, PrefixCacheOnAndOffAgree) {
  const auto batch = make_batch(12);
  auto on = make_eval();
  auto off = make_eval();
  off.set_prefix_cache_config([] {
    sim::PrefixCacheConfig c;
    c.byte_budget = 0;
    return c;
  }());
  const auto a = on.evaluate_batch(batch);
  std::vector<sim::EvalOutcome> b;
  for (const auto& s : batch) b.push_back(off.evaluate(s));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_outcome_eq(a[i], b[i]);
}

TEST(BatchEval, CompileBatchMatchesSerialCompile) {
  const auto batch = make_batch(12);
  auto batched = make_eval();
  auto serial = make_eval();
  const auto got = batched.compile_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto want = serial.compile(batch[i]);
    EXPECT_EQ(got[i].valid, want.valid);
    EXPECT_EQ(got[i].why_invalid, want.why_invalid);
    EXPECT_EQ(got[i].binary_hash, want.binary_hash);
    EXPECT_EQ(got[i].code_size, want.code_size);
    EXPECT_EQ(got[i].stats.counters(), want.stats.counters());
  }
}

TEST(BatchEval, BitIdenticalUnderInjectedFaults) {
  const auto batch = make_batch(16);

  // Each run owns a fresh injector: its transient-attempt counters are
  // mutable state that must start identical for trajectories to match.
  const sim::FaultInjector serial_injector(nasty_plan());
  auto base_serial = make_eval();
  sim::RobustEvaluator serial(base_serial, {}, &serial_injector);
  std::vector<sim::EvalOutcome> want;
  for (const auto& a : batch) want.push_back(serial.evaluate(a));

  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    const sim::FaultInjector injector(nasty_plan());
    auto base = make_eval();
    base.set_thread_pool(&pool);
    sim::RobustEvaluator robust(base, {}, &injector);
    const auto got = robust.evaluate_batch(batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " candidate=" + std::to_string(i));
      expect_outcome_eq(want[i], got[i]);
    }
    // Retry/quarantine bookkeeping is order-sensitive state; it must
    // evolve identically.
    const auto& ws = serial.robust_stats();
    const auto& gs = robust.robust_stats();
    EXPECT_EQ(gs.evaluations, ws.evaluations);
    EXPECT_EQ(gs.attempts, ws.attempts);
    EXPECT_EQ(gs.retries, ws.retries);
    EXPECT_EQ(gs.quarantine_hits, ws.quarantine_hits);
    EXPECT_EQ(gs.valid, ws.valid);
    EXPECT_EQ(gs.failures, ws.failures);
    EXPECT_EQ(robust.quarantine_size(), serial.quarantine_size());
  }
}

// ---- tuner trajectory invariance ------------------------------------------

TEST(BatchEval, CitroenTrajectoryIsThreadCountInvariant) {
  auto run_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    auto ev = make_eval();
    ev.set_thread_pool(&pool);
    core::CitroenConfig cfg;
    cfg.budget = 12;
    cfg.initial_random = 4;
    cfg.candidates_per_iter = 8;
    cfg.gp.fit_steps = 3;
    cfg.seed = 7;
    core::CitroenTuner tuner(ev, cfg);
    return tuner.run();
  };
  const auto t1 = run_with_threads(1);
  const auto t8 = run_with_threads(8);
  EXPECT_EQ(t1.speedup_curve, t8.speedup_curve);
  EXPECT_EQ(t1.best_speedup, t8.best_speedup);
  EXPECT_EQ(t1.measurements, t8.measurements);
  EXPECT_EQ(t1.compiles, t8.compiles);
  EXPECT_EQ(t1.best_assignment, t8.best_assignment);
}

TEST(BatchEval, GaTrajectoryIsThreadCountInvariant) {
  auto run_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    auto ev = make_eval();
    ev.set_thread_pool(&pool);
    baselines::PhaseTunerConfig cfg;
    cfg.budget = 10;
    cfg.seed = 3;
    return baselines::run_ga_tuner(ev, cfg);
  };
  const auto t1 = run_with_threads(1);
  const auto t4 = run_with_threads(4);
  EXPECT_EQ(t1.speedup_curve, t4.speedup_curve);
  EXPECT_EQ(t1.best_speedup, t4.best_speedup);
  EXPECT_EQ(t1.invalid, t4.invalid);
}
