// Library micro-benchmarks (google-benchmark): interpreter throughput,
// -O3 pipeline compile time, GP fitting, and one CITROEN iteration's
// candidate-scoring path. These guard the substrate's performance, which
// the experiment harnesses depend on.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_suite/suite.hpp"
#include "citroen/features.hpp"
#include "dist/pool.hpp"
#include "gp/gp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ir/interpreter.hpp"
#include "passes/pass.hpp"
#include "passes/passman.hpp"
#include "persist/journal.hpp"
#include "persist/journaled_evaluator.hpp"
#include "persist/run_session.hpp"
#include "sandbox/ipc.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;

static void BM_Interpret(benchmark::State& state) {
  auto p = bench_suite::make_program("telecom_gsm");
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    const auto r = ir::interpret(p);
    instrs += r.instructions;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_Interpret);

static void BM_O3Pipeline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto p = bench_suite::make_program("telecom_gsm");
    state.ResumeTiming();
    for (auto& m : p.modules)
      passes::run_sequence(m, passes::o3_sequence());
  }
}
BENCHMARK(BM_O3Pipeline);

/// The analysis-caching pass manager on the full -O3 pipeline, cache on
/// vs. off (`CITROEN_ANALYSIS_CACHE=0` path). Reports analyses computed
/// from scratch vs. served from cache; the tentpole's acceptance bar is
/// >= 50% reuse with the cache on.
static void BM_PassPipeline(benchmark::State& state) {
  const bool cache = state.range(0) != 0;
  const auto& ids = passes::o3_sequence_ids();
  double computed = 0.0, reused = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto p = bench_suite::make_program("telecom_gsm");
    state.ResumeTiming();
    computed = reused = 0.0;
    for (auto& m : p.modules) {
      passes::PassManagerOptions opts;
      opts.cache_enabled = cache;
      passes::PassManager pm(opts);
      const auto stats = pm.run(m, ids.data(), ids.size());
      benchmark::DoNotOptimize(stats.counters().size());
      computed += static_cast<double>(pm.cache_stats().computed);
      reused += static_cast<double>(pm.cache_stats().reused);
    }
  }
  state.counters["analyses_computed"] = computed;
  state.counters["analyses_reused"] = reused;
  state.counters["reuse_pct"] =
      computed + reused > 0.0 ? 100.0 * reused / (computed + reused) : 0.0;
}
BENCHMARK(BM_PassPipeline)->ArgName("cache")->Arg(0)->Arg(1);

/// The expanded loop family on its own, after canonicalisation: what one
/// tuner probe of the new vocabulary (fusion / indvar-simplify / peel)
/// costs on top of the loop-simplify prerequisite.
static void BM_NewLoopPasses(benchmark::State& state) {
  const auto ids = passes::intern_sequence(
      {"mem2reg", "instcombine", "loop-simplify", "indvars",
       "indvar-simplify", "loop-fusion", "loop-peel"});
  for (auto _ : state) {
    state.PauseTiming();
    auto p = bench_suite::make_program("telecom_gsm");
    state.ResumeTiming();
    for (auto& m : p.modules) {
      passes::PassManager pm;
      const auto stats = pm.run(m, ids.data(), ids.size());
      benchmark::DoNotOptimize(stats.counters().size());
    }
  }
}
BENCHMARK(BM_NewLoopPasses);

static void BM_EvaluatorRoundTrip(benchmark::State& state) {
  sim::ProgramEvaluator ev(bench_suite::make_program("security_sha"),
                           sim::arm_a57_model());
  Rng rng(1);
  const auto& space = passes::PassRegistry::instance().pass_names();
  for (auto _ : state) {
    std::vector<std::string> seq;
    for (int i = 0; i < 20; ++i)
      seq.push_back(space[rng.uniform_index(space.size())]);
    const auto out = ev.evaluate({{"sha", seq}});
    benchmark::DoNotOptimize(out.speedup);
  }
}
BENCHMARK(BM_EvaluatorRoundTrip);

static void BM_GpFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 40;
  Rng rng(2);
  std::vector<Vec> xs;
  Vec ys;
  for (std::size_t i = 0; i < n; ++i) {
    Vec x(d);
    for (auto& v : x) v = rng.uniform();
    ys.push_back(x[0] * x[1] + rng.normal(0.0, 0.01));
    xs.push_back(std::move(x));
  }
  gp::GpConfig cfg;
  cfg.fit_steps = 5;
  for (auto _ : state) {
    gp::GaussianProcess model(d, cfg);
    model.fit(xs, ys);
    benchmark::DoNotOptimize(model.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(150);

/// Batch evaluation scaling: threads x prefix-cache mode. Reports the
/// cache hit rate and fraction of pass runs saved as counters, so the
/// threads/cache contributions to the speedup can be read side by side.
/// The cache keeps finalized builds only: it saves the serial replay of
/// what prefetch built and the batch's exact duplicates (every fourth
/// candidate), while the mutants' shared prefix is rerun.
static void BM_EvaluateBatchThreadsCache(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool prefix_on = state.range(1) != 0;

  // ES-style batch: suffix mutations of a common base sequence.
  const std::vector<std::string> base = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < 32; ++i) {
    auto seq = base;
    if (i % 4 != 0)
      seq[seq.size() - 1 - static_cast<std::size_t>(i) % 4] =
          space[(static_cast<std::size_t>(i) * 7) % space.size()];
    batch.push_back({{"sha", seq}});
  }

  ThreadPool pool(threads);
  sim::PrefixCacheStats last{};
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh evaluator per iteration: cold caches, so each iteration
    // measures the full batch (not a warm replay of the previous one).
    sim::ProgramEvaluator ev(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
    ev.set_thread_pool(&pool);
    if (!prefix_on) {
      sim::PrefixCacheConfig off;
      off.byte_budget = 0;
      ev.set_prefix_cache_config(off);
    }
    state.ResumeTiming();
    const auto outcomes = ev.evaluate_batch(batch);
    benchmark::DoNotOptimize(outcomes.data());
    state.PauseTiming();
    last = ev.prefix_cache_stats();
    state.ResumeTiming();
  }
  state.counters["prefix_hit_rate"] =
      last.builds ? static_cast<double>(last.full_hits) /
                        static_cast<double>(last.builds)
                  : 0.0;
  state.counters["passes_saved_pct"] =
      last.passes_run + last.passes_saved
          ? 100.0 * static_cast<double>(last.passes_saved) /
                static_cast<double>(last.passes_run + last.passes_saved)
          : 0.0;
  state.counters["cache_mb"] =
      static_cast<double>(last.bytes) / (1024.0 * 1024.0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_EvaluateBatchThreadsCache)
    ->ArgNames({"threads", "prefix"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1});

/// Append-one-point refits: the rank-one incremental path vs. the full
/// O(n^3) refactorisation the tuner used to pay every round.
static void BM_GpAppendFit(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const std::size_t n = 150, d = 40;
  Rng rng(3);
  std::vector<Vec> xs;
  Vec ys;
  for (std::size_t i = 0; i <= n; ++i) {
    Vec x(d);
    for (auto& v : x) v = rng.uniform();
    ys.push_back(x[0] * x[1] + rng.normal(0.0, 0.01));
    xs.push_back(std::move(x));
  }
  const std::vector<Vec> head(xs.begin(), xs.end() - 1);
  const Vec head_y(ys.begin(), ys.end() - 1);

  gp::GpConfig cfg;
  cfg.fit_steps = 5;
  cfg.incremental = incremental;
  for (auto _ : state) {
    state.PauseTiming();
    gp::GaussianProcess model(d, cfg);
    model.fit(head, head_y);
    model.set_fit_hypers(false);
    state.ResumeTiming();
    model.fit(xs, ys);  // append one point
    benchmark::DoNotOptimize(model.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpAppendFit)->ArgName("incremental")->Arg(0)->Arg(1);

/// Write-ahead journal overhead per evaluation: the same random-sequence
/// evaluation stream as BM_EvaluatorRoundTrip, run bare (journal=0) and
/// through a JournaledEvaluator at the default fsync cadence (journal=1).
/// The delta between the two configurations is the per-evaluation cost of
/// crash safety; it must stay a small fraction (<2%) of evaluation cost.
static void BM_JournalAppendOverhead(benchmark::State& state) {
  const bool journal = state.range(0) != 0;
  sim::ProgramEvaluator ev(bench_suite::make_program("security_sha"),
                           sim::arm_a57_model());
  persist::SessionConfig scfg;
  scfg.dir = "/tmp/citroen_microbench_journal";
  persist::RunSession session(scfg, "bm");
  persist::JournaledEvaluator jev(ev, session);
  sim::Evaluator& target =
      journal ? static_cast<sim::Evaluator&>(jev)
              : static_cast<sim::Evaluator&>(ev);

  Rng rng(1);
  const auto& space = passes::PassRegistry::instance().pass_names();
  for (auto _ : state) {
    std::vector<std::string> seq;
    for (int i = 0; i < 20; ++i)
      seq.push_back(space[rng.uniform_index(space.size())]);
    const auto out = target.evaluate({{"sha", seq}});
    benchmark::DoNotOptimize(out.speedup);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAppendOverhead)->ArgName("journal")->Arg(0)->Arg(1);

/// The raw append path alone (frame + CRC + buffered write, fsync on the
/// default cadence), isolated from evaluation cost.
static void BM_JournalRawAppend(benchmark::State& state) {
  const std::string path = "/tmp/citroen_microbench_raw.journal";
  std::remove(path.c_str());
  persist::JournalWriter w(path, persist::JournalConfig{}, 0);
  const std::string payload(160, '\x42');  // typical eval-record size
  for (auto _ : state) {
    w.append(payload);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_JournalRawAppend);

/// Cost of routing an evaluation through one fork worker of the worker
/// pool (sandbox=1) vs. calling the evaluator directly (sandbox=0):
/// dispatch, job/result IPC, and the pool's verdict bookkeeping.
/// Fresh random sequences every iteration defeat the verdict memo, so
/// every iteration pays one full worker round trip.
static void BM_SandboxDispatchOverhead(benchmark::State& state) {
  const bool sandboxed = state.range(0) != 0;
  sim::ProgramEvaluator ev(bench_suite::make_program("security_sha"),
                           sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  dist::WorkerPool sb(ev, cfg);
  sim::Evaluator& target = sandboxed ? static_cast<sim::Evaluator&>(sb)
                                     : static_cast<sim::Evaluator&>(ev);

  Rng rng(1);
  const auto& space = passes::PassRegistry::instance().pass_names();
  for (auto _ : state) {
    std::vector<std::string> seq;
    for (int i = 0; i < 20; ++i)
      seq.push_back(space[rng.uniform_index(space.size())]);
    const auto out = target.evaluate({{"sha", seq}});
    benchmark::DoNotOptimize(out.speedup);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SandboxDispatchOverhead)->ArgName("sandbox")->Arg(0)->Arg(1);

/// The IPC transport alone: frame a typical result payload (CRC32 +
/// length prefix) and decode it back, no processes involved.
static void BM_IpcFrameRoundTrip(benchmark::State& state) {
  const std::string payload(state.range(0), '\x5a');
  for (auto _ : state) {
    const std::string frame = sandbox::encode_frame(payload);
    sandbox::FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    std::string out, err;
    if (dec.next(&out, &err) != sandbox::DecodeStatus::Ok) std::abort();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IpcFrameRoundTrip)->ArgName("bytes")->Arg(160)->Arg(1 << 16);

static void BM_StatsFeatureExtraction(benchmark::State& state) {
  sim::ProgramEvaluator ev(bench_suite::make_program("telecom_gsm"),
                           sim::arm_a57_model());
  const auto co = ev.compile(
      {{"long_term", {"mem2reg", "slp-vectorizer", "dce"}}});
  const core::StatsFeatures feat;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat.extract(co.stats));
  }
}
BENCHMARK(BM_StatsFeatureExtraction);

/// The disabled-path cost every instrumented site pays when CITROEN_TRACE
/// is unset: one relaxed atomic load and a branch. This is the number
/// DESIGN.md quotes for "near-zero when off" — expect single-digit ns.
static void BM_TraceEmitOverhead(benchmark::State& state) {
  obs::trace_force_enable(false);
  for (auto _ : state) {
    OBS_INSTANT("bm_event", "bench");
    OBS_COUNTER_INC("citroen_bm_events_total");
  }
}
BENCHMARK(BM_TraceEmitOverhead);

/// The enabled path: clock read + wait-free ring append, with the
/// amortised ring-to-sink spill included. Drained afterwards so later
/// benchmarks start from an empty sink.
static void BM_TraceEmitEnabled(benchmark::State& state) {
  obs::trace_force_enable(true);
  for (auto _ : state) {
    OBS_INSTANT("bm_event", "bench");
  }
  obs::trace_force_enable(false);
  obs::drain_trace();
}
BENCHMARK(BM_TraceEmitEnabled);

BENCHMARK_MAIN();
