// Figure 5.6: average speedup over -O3 of CITROEN vs. the competing
// tuners on the cBench and SPEC suites (both machine models).
// Paper shape: CITROEN wins on average; up to 17% over random and ~10%
// over the strongest baseline at a budget of 100 measurements; ~6% over
// -O3 on SPEC.

#include <cstdio>
#include <map>

#include "bench/bench_common.hpp"
#include "bench/tuner_runner.hpp"

using namespace citroen;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : args.pick(60, 100);
  const int seeds = args.seeds ? args.seeds : args.pick(3, 5);
  bench::header("Figure 5.6", "main comparison: avg speedup over -O3",
                "CITROEN > BOCA/OpenTuner/GA/DES > random; CITROEN up to "
                "17% over random, ~10% over the strongest baseline");
  std::printf("budget=%d measurements, %d seeds\n\n", budget, seeds);

  for (const auto& [suite, names, machine] :
       {std::tuple{std::string("cBench"), bench_suite::cbench_names(),
                   std::string("arm")},
        std::tuple{std::string("SPEC"), bench_suite::spec_names(),
                   std::string("x86")}}) {
    std::printf("---- %s (machine: %s) ----\n", suite.c_str(),
                machine.c_str());
    std::map<std::string, std::vector<double>> finals;  // tuner -> per prog
    sim::PrefixCacheStats cache{};  // aggregate over every program's runs
    for (const auto& prog : names) {
      const auto report = bench::run_all_tuners_ex(prog, machine, budget,
                                                   seeds);
      const auto& methods = report.curves;
      cache.builds += report.cache_stats.builds;
      cache.full_hits += report.cache_stats.full_hits;
      cache.passes_run += report.cache_stats.passes_run;
      cache.passes_saved += report.cache_stats.passes_saved;
      std::printf("%-22s", prog.c_str());
      for (const auto& m : methods) {
        const auto agg = bench::aggregate(m.curves);
        finals[m.name].push_back(agg.mean_final);
        std::printf("  %s=%.3f", m.name.c_str(), agg.mean_final);
      }
      std::printf("\n");
    }
    std::printf("%-22s", "GEOMEAN");
    for (const auto& [tuner, vals] : std::map<std::string,
                                              std::vector<double>>(finals)) {
      std::printf("  %s=%.3f", tuner.c_str(), geomean(vals));
    }
    std::printf("\n\n");
    // The shared-prefix-cache occupancy aggregate is timing-sensitive
    // (eviction order shifts with scheduling), so it lives in the metrics
    // registry rather than stdout: run with --metrics-out (or
    // CITROEN_METRICS=<path>) to get it, and the printed table stays
    // byte-identical across thread counts and sandbox modes. The cache is
    // shared across every (method, seed) run of each program, so these
    // are whole-suite rates, not one tuner's.
    if (obs::metrics_enabled()) {
      auto& reg = obs::Registry::instance();
      const std::string p = "citroen_fig5_6_" + suite;
      reg.counter(p + "_prefix_builds_total").add(cache.builds);
      reg.counter(p + "_prefix_full_hits_total").add(cache.full_hits);
      reg.counter(p + "_passes_run_total").add(cache.passes_run);
      reg.counter(p + "_passes_saved_total").add(cache.passes_saved);
      const std::uint64_t passes = cache.passes_run + cache.passes_saved;
      reg.gauge(p + "_prefix_hit_rate")
          .set(cache.builds ? static_cast<double>(cache.full_hits) /
                                  static_cast<double>(cache.builds)
                            : 0.0);
      reg.gauge(p + "_pass_save_rate")
          .set(passes ? static_cast<double>(cache.passes_saved) /
                            static_cast<double>(passes)
                      : 0.0);
    }
  }
  return 0;
}
