// Extension experiment (thesis Sec. 6.2.2 critique): program-specific
// autotuning is input-dependent — a sequence tuned on one workload may
// not transfer to other inputs. This harness measures the generalisation
// gap of single-workload tuning and shows that tuning against several
// workloads at once (the evaluator's multi-workload mode) closes it.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "bench/tuner_runner.hpp"

using namespace citroen;

namespace {

/// Speedup of `assignment` on a fresh evaluator seeded with `workload`.
double test_speedup(const std::string& program, std::uint64_t workload,
                    const sim::SequenceAssignment& assignment) {
  sim::ProgramEvaluator eval(
      bench_suite::make_program(program, workload),
      sim::machine_by_name("arm"));
  const auto out = eval.evaluate(assignment);
  return out.valid ? out.speedup : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : args.pick(40, 120);
  const int seeds = args.seeds ? args.seeds : args.pick(2, 6);
  bench::header("Extension: workload generalisation",
                "train-input vs held-out-input speedup",
                "thesis Sec. 6.2.2: tuned sequences are input-dependent; "
                "multi-workload tuning should generalise better");
  std::printf("budget=%d, %d seeds; train workload seed 42, held-out "
              "seeds 101/102/103\n\n",
              budget, seeds);

  std::printf("%-20s %10s %10s %10s %10s\n", "program", "1wl-train",
              "1wl-test", "3wl-train", "3wl-test");
  for (const char* prog :
       {"telecom_gsm", "spec_x264", "automotive_susan"}) {
    std::vector<double> tr1, te1, tr3, te3;
    for (int s = 0; s < seeds; ++s) {
      // Single-workload tuning.
      {
        sim::ProgramEvaluator eval(bench_suite::make_program(prog, 42),
                                   sim::machine_by_name("arm"));
        auto cfg = serve::default_citroen_config(
            budget, static_cast<std::uint64_t>(s) + 1);
        core::CitroenTuner tuner(eval, cfg);
        const auto r = tuner.run();
        tr1.push_back(r.best_speedup);
        double held = 0.0;
        for (const std::uint64_t w : {101u, 102u, 103u})
          held += test_speedup(prog, w, r.best_assignment);
        te1.push_back(held / 3.0);
      }
      // Multi-workload tuning (3 training inputs).
      {
        sim::ProgramEvaluator eval(bench_suite::make_program(prog, 42),
                                   sim::machine_by_name("arm"));
        eval.add_workload(bench_suite::make_program(prog, 43));
        eval.add_workload(bench_suite::make_program(prog, 44));
        auto cfg = serve::default_citroen_config(
            budget, static_cast<std::uint64_t>(s) + 1);
        core::CitroenTuner tuner(eval, cfg);
        const auto r = tuner.run();
        tr3.push_back(r.best_speedup);
        double held = 0.0;
        for (const std::uint64_t w : {101u, 102u, 103u})
          held += test_speedup(prog, w, r.best_assignment);
        te3.push_back(held / 3.0);
      }
    }
    std::printf("%-20s %10.3f %10.3f %10.3f %10.3f\n", prog, mean(tr1),
                mean(te1), mean(tr3), mean(te3));
  }
  std::printf(
      "\nshape: test <= train for single-workload tuning (the gap is the "
      "input dependence); 3-workload tuning narrows the gap at similar "
      "test quality.\n");
  return 0;
}
