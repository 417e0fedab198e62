// Determinism gate: print every thread-count-sensitive result the batch
// evaluation engine produces, in a canonical textual form. CI runs this
// binary under CITROEN_THREADS=1/2/8 and diffs the outputs — any byte of
// difference fails the gate. Deliberately prints NO wall-clock timings
// (those are the only quantities allowed to vary with the thread count).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/tuners.hpp"
#include "bench/bench_common.hpp"
#include "bench/dist_runner.hpp"
#include "bench/tuner_runner.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "dist/pool.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;

namespace {

void print_vec(const char* name, const Vec& v) {
  std::printf("%s:", name);
  for (const double x : v) std::printf(" %.17g", x);
  std::printf("\n");
}

void print_outcome(std::size_t i, const sim::EvalOutcome& o) {
  std::printf("  cand %02zu: valid=%d failure=%s transient=%d "
              "cycles=%.17g speedup=%.17g cache_hit=%d attempts=%d "
              "hash=%016llx size=%zu",
              i, o.valid ? 1 : 0,
              sim::failure_kind_name(o.failure), o.transient ? 1 : 0,
              o.cycles, o.speedup, o.cache_hit ? 1 : 0, o.attempts,
              static_cast<unsigned long long>(o.binary_hash), o.code_size);
  if (!o.why_invalid.empty()) std::printf(" why=\"%s\"", o.why_invalid.c_str());
  std::printf("\n");
}

/// The same candidate shape the batch tests use: suffix mutations of a
/// common base so prefix-cache hits are exercised.
std::vector<sim::SequenceAssignment> make_batch(const std::string& module,
                                                int n) {
  const std::vector<std::string> base = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < n; ++i) {
    auto seq = base;
    if (i % 3 != 0)
      seq[seq.size() - 1 - static_cast<std::size_t>(i) % 4] =
          space[(static_cast<std::size_t>(i) * 11) % space.size()];
    sim::SequenceAssignment a;
    a[module] = seq;
    batch.push_back(std::move(a));
  }
  return batch;
}

void batch_section(const std::string& program, const std::string& module) {
  std::printf("[evaluate_batch %s]\n", program.c_str());
  sim::ProgramEvaluator eval(bench_suite::make_program(program),
                             sim::arm_a57_model());
  eval.set_thread_pool(&ThreadPool::global());
  // CITROEN_SANDBOX=1 and CITROEN_DIST=1 route the batch through the
  // worker pool's fork workers and peers; CI byte-diffs this output
  // against the in-process run.
  auto pool = dist::make_worker_pool(eval, "arm");
  sim::Evaluator& stack = pool ? static_cast<sim::Evaluator&>(*pool)
                               : static_cast<sim::Evaluator&>(eval);
  const auto batch = make_batch(module, 20);
  const auto outcomes = stack.evaluate_batch(batch);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    print_outcome(i, outcomes[i]);
  std::printf("  compiles=%d measurements=%d cache_hits=%d\n",
              eval.num_compiles(), eval.num_measurements(),
              eval.num_cache_hits());
}

void fault_section() {
  std::printf("[evaluate_batch security_sha under faults]\n");
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.transient_crash_rate = 0.1;
  plan.deterministic_crash_rate = 0.1;
  plan.hang_rate = 0.05;
  plan.miscompile_rate = 0.05;
  plan.noise_sigma = 0.1;
  const sim::FaultInjector injector(plan);
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  base.set_thread_pool(&ThreadPool::global());
  // Under a fault injector the pool keeps jobs off its peers (they
  // ignore fault plans); keeping the pool here proves that safety valve.
  auto pool = dist::make_worker_pool(base, "arm");
  sim::Evaluator& stack_base = pool ? static_cast<sim::Evaluator&>(*pool)
                                    : static_cast<sim::Evaluator&>(base);
  sim::RobustEvaluator eval(stack_base, {}, &injector);
  const auto outcomes = eval.evaluate_batch(make_batch("sha", 20));
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    print_outcome(i, outcomes[i]);
  const auto& rs = eval.robust_stats();
  std::printf("  evaluations=%d attempts=%d retries=%d quarantine_hits=%d "
              "remeasurements=%d valid=%d quarantine=%zu\n",
              rs.evaluations, rs.attempts, rs.retries, rs.quarantine_hits,
              rs.remeasurements, rs.valid, eval.quarantine_size());
  for (const auto& [kind, n] : rs.failures)
    std::printf("  failure %s=%d\n", kind.c_str(), n);
}

/// One CITROEN run issued from the main thread. tuner_section runs every
/// tuner inside a pool task, where the candidate prefetch and the GP fit
/// run inline; here both fan out on the pool. The budget is at least 40,
/// so the late GP fits span several of the fit's pool blocks.
void citroen_section(const std::string& program, int budget) {
  budget = std::max(budget, 40);
  std::printf("[citroen %s budget=%d from the main thread]\n",
              program.c_str(), budget);
  sim::ProgramEvaluator eval(bench_suite::make_program(program),
                             sim::arm_a57_model());
  auto pool = dist::make_worker_pool(eval, "arm");
  sim::Evaluator& stack = pool ? static_cast<sim::Evaluator&>(*pool)
                               : static_cast<sim::Evaluator&>(eval);
  core::CitroenTuner tuner(stack, bench::default_citroen_config(budget, 1));
  const auto res = tuner.run();
  print_vec("citroen/1", res.speedup_curve);
  for (const auto& [feature, relevance] : res.stat_relevance)
    std::printf("  1/lengthscale %s: %.17g\n", feature.c_str(), relevance);
}

void tuner_section(const std::string& program, int budget, int seeds) {
  std::printf("[tuners %s budget=%d seeds=%d]\n", program.c_str(), budget,
              seeds);
  const auto methods = bench::run_all_tuners(program, "arm", budget, seeds);
  for (const auto& m : methods) {
    for (std::size_t s = 0; s < m.curves.size(); ++s)
      print_vec((m.name + "/" + std::to_string(s + 1)).c_str(), m.curves[s]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : args.pick(10, 40);
  const int seeds = args.seeds ? args.seeds : args.pick(2, 5);
  // Note: the pool size is deliberately NOT printed — the whole point is
  // that nothing else in the output may depend on it.
  // With CITROEN_DIST=1 and no CITROEN_PEERS, fork a local peer fleet
  // for the whole run (its size must not affect output either).
  const auto fleet = bench::make_local_fleet_if_needed();
  std::printf("determinism gate\n");

  batch_section("security_sha", "sha");
  batch_section("office_stringsearch", "search");
  fault_section();
  citroen_section("security_sha", budget);
  tuner_section("security_sha", budget, seeds);
  return 0;
}
