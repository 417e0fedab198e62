// Extension: fault tolerance of the tuning loop (ROADMAP robustness item).
//
// The paper tunes on a noisy Jetson TX2 where compiler pipelines crash or
// hang on adversarial pass orders and runtime measurements are noisy; the
// autotuning literature (Ashouri et al. CSUR'18, AutoPhase MLSys'20)
// treats invalid sequences as a first-class hazard. This bench injects a
// seeded fault model (sim/faults.hpp) into the evaluation pipeline and
// compares *naive* evaluation (no retries, single noisy measurement, no
// quarantine) against the *hardened* evaluator (sim/robust_evaluator.hpp)
// across fault plans of increasing severity, extending the Fig. 5.6
// comparison. Because tuning under noise inflates the tuner's own
// best-so-far estimate, every final assignment is re-validated on a clean
// fault-free evaluator: the reported speedup is the true one.
//
// Shape target: hardened CITROEN retains >= 80% of its zero-fault speedup
// under the "trans10" plan (10% transient crashes + noise) while naive
// evaluation degrades measurably; the valid-eval fraction shows why.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/tuners.hpp"
#include "bench/bench_common.hpp"
#include "bench/tuner_runner.hpp"
#include "citroen/tuner.hpp"
#include "sim/faults.hpp"
#include "sim/robust_evaluator.hpp"

using namespace citroen;

namespace {

struct PlanRow {
  std::string name;
  sim::FaultPlan plan;
};

std::vector<PlanRow> fault_plans() {
  std::vector<PlanRow> rows;
  rows.push_back({"none", {}});

  sim::FaultPlan trans10;  // the acceptance plan: 10% transient + noise
  trans10.transient_crash_rate = 0.10;
  trans10.transient_hang_rate = 0.02;
  trans10.noise_sigma = 0.10;
  trans10.outlier_rate = 0.05;
  rows.push_back({"trans10", trans10});

  sim::FaultPlan harsh = trans10;  // add permanent failure modes
  harsh.transient_crash_rate = 0.15;
  harsh.deterministic_crash_rate = 0.08;
  harsh.hang_rate = 0.02;
  harsh.miscompile_rate = 0.02;
  harsh.noise_sigma = 0.18;
  harsh.outlier_rate = 0.08;
  rows.push_back({"harsh", harsh});
  return rows;
}

sim::RobustConfig naive_config() {
  sim::RobustConfig c;
  c.max_retries = 0;        // a failed eval is simply wasted
  c.replicates = 1;         // single noisy measurement, taken at face value
  c.max_extra_replicates = 0;
  c.quarantine = false;     // known-bad sequences can be re-proposed
  c.noisy_reject_mad = 1e9; // never rejects
  return c;
}

struct RunOutcome {
  double true_speedup = 0.0;  ///< best assignment re-validated fault-free
  double valid_fraction = 1.0;
  int retries = 0;
  int quarantine_skips = 0;  ///< proposals the tuner dropped pre-eval
  std::size_t quarantined = 0;
};

/// True (fault-free) speedup of an assignment, on a fresh clean evaluator.
double validate_clean(const std::string& prog,
                      const sim::SequenceAssignment& a) {
  sim::ProgramEvaluator clean(bench_suite::make_program(prog),
                              sim::machine_by_name("arm"));
  if (a.empty()) return 1.0;  // nothing adopted: the -O3 default
  const auto out = clean.evaluate(a);
  return out.valid ? out.speedup : 0.0;
}

RunOutcome finish(const std::string& prog, const sim::RobustEvaluator& ev,
                  const sim::SequenceAssignment& best) {
  RunOutcome o;
  o.true_speedup = validate_clean(prog, best);
  const auto& rs = ev.robust_stats();
  o.valid_fraction = rs.evaluations > 0
                         ? static_cast<double>(rs.valid) / rs.evaluations
                         : 1.0;
  o.retries = rs.retries;
  o.quarantined = ev.quarantine_size();
  return o;
}

RunOutcome run_citroen(const std::string& prog, const sim::FaultPlan& plan,
                       const sim::RobustConfig& rcfg, int budget,
                       std::uint64_t seed) {
  sim::ProgramEvaluator base(bench_suite::make_program(prog),
                             sim::machine_by_name("arm"));
  sim::FaultPlan seeded = plan;
  seeded.seed = seed * 7919;
  sim::FaultInjector injector(seeded);
  sim::RobustEvaluator ev(base, rcfg,
                          seeded.enabled() ? &injector : nullptr);
  auto cfg = serve::default_citroen_config(budget, seed);
  core::CitroenTuner tuner(ev, cfg);
  const auto r = tuner.run();
  auto o = finish(prog, ev, r.best_assignment);
  o.quarantine_skips = r.quarantined_skipped;
  return o;
}

RunOutcome run_random(const std::string& prog, const sim::FaultPlan& plan,
                      const sim::RobustConfig& rcfg, int budget,
                      std::uint64_t seed) {
  sim::ProgramEvaluator base(bench_suite::make_program(prog),
                             sim::machine_by_name("arm"));
  sim::FaultPlan seeded = plan;
  seeded.seed = seed * 7919;
  sim::FaultInjector injector(seeded);
  sim::RobustEvaluator ev(base, rcfg,
                          seeded.enabled() ? &injector : nullptr);
  baselines::PhaseTunerConfig cfg;
  cfg.budget = budget;
  cfg.seed = seed;
  const auto t = baselines::run_random_search(ev, cfg);
  auto o = finish(prog, ev, t.best_assignment);
  o.quarantine_skips = t.quarantined_skipped;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : args.pick(30, 100);
  const int seeds = args.seeds ? args.seeds : args.pick(3, 5);
  const std::vector<std::string> progs =
      args.full ? std::vector<std::string>{"telecom_gsm", "security_sha",
                                           "bzip2", "spec_x264"}
                : std::vector<std::string>{"telecom_gsm", "security_sha"};

  bench::header(
      "Ext: fault tolerance",
      "hardened vs naive evaluation under injected faults + noise",
      "hardened CITROEN retains >=80% of zero-fault speedup at the 10% "
      "transient plan; naive degrades measurably");
  std::printf("budget=%d measurements, %d seeds, machine=arm\n", budget,
              seeds);
  std::printf(
      "speedups are TRUE speedups: best assignment re-validated on a "
      "clean evaluator\n\n");

  for (const auto& prog : progs) {
    std::printf("---- %s ----\n", prog.c_str());
    std::printf("%-9s %-9s  %10s %8s %8s %8s %6s\n", "plan", "mode",
                "speedup", "valid%", "retries", "quar", "skips");
    double zero_fault_hardened = 0.0;
    for (const auto& [plan_name, plan] : fault_plans()) {
      for (const bool hardened : {false, true}) {
        if (!plan.enabled() && !hardened) continue;  // identical to hardened
        const auto rcfg =
            hardened ? sim::RobustConfig{} : naive_config();
        std::vector<double> speedups, valid_fracs;
        int retries = 0, skips = 0;
        std::size_t quarantined = 0;
        std::vector<double> rnd_speedups;
        for (int s = 0; s < seeds; ++s) {
          const auto o = run_citroen(prog, plan, rcfg, budget,
                                     static_cast<std::uint64_t>(s) + 1);
          speedups.push_back(o.true_speedup);
          valid_fracs.push_back(o.valid_fraction);
          retries += o.retries;
          skips += o.quarantine_skips;
          quarantined += o.quarantined;
          const auto rn = run_random(prog, plan, rcfg, budget,
                                     static_cast<std::uint64_t>(s) + 1);
          rnd_speedups.push_back(rn.true_speedup);
        }
        const double sp = mean(speedups);
        if (!plan.enabled()) zero_fault_hardened = sp;
        std::printf("%-9s %-9s  %10.4f %7.1f%% %8d %8zu %6d", plan_name.c_str(),
                    hardened ? "hardened" : "naive", sp,
                    100.0 * mean(valid_fracs), retries, quarantined, skips);
        if (plan.enabled() && zero_fault_hardened > 0.0) {
          std::printf("   retention=%5.1f%%",
                      100.0 * sp / zero_fault_hardened);
        }
        std::printf("   [random: %.4f]\n", mean(rnd_speedups));
      }
    }
    std::printf("\n");
  }
  return 0;
}
