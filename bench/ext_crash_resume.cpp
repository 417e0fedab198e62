// Crash-safety gate: run the full tuner comparison (and an AIBO run)
// through the persistence layer and print the canonical curves. CI runs
// this three ways and byte-diffs stdout:
//
//   1. clean:   ext_crash_resume --dir D1
//   2. killed:  ext_crash_resume --dir D2 --kill-seed K   (exits 99)
//   3. resumed: ext_crash_resume --dir D2 --resume
//
// (1) and (3) must produce identical stdout — the resumed process serves
// complete runs from their final checkpoints and replays the killed run's
// journal tail from its last checkpoint, byte-for-byte. The kill target
// is derived from --kill-seed so every CI run murders a different victim
// at a different evaluation index. --fault runs everything under the
// PR 1 fault plan (crashes, hangs, miscompiles, noise) to prove the
// injector and quarantine state survive the checkpoint too.
//
// All diagnostics go to stderr; stdout carries only the canonical rows.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/aibo_runner.hpp"
#include "bench/tuner_runner.hpp"
#include "synth/functions.hpp"

using namespace citroen;

namespace {

void print_vec(const char* tag, const Vec& v) {
  std::printf("%s", tag);
  for (double x : v) std::printf(" %.17g", x);
  std::printf("\n");
}

sim::FaultPlan gate_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.transient_crash_rate = 0.1;
  plan.deterministic_crash_rate = 0.1;
  plan.hang_rate = 0.05;
  plan.miscompile_rate = 0.05;
  plan.noise_sigma = 0.1;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "crash_resume_session";
  bool resume = false;
  bool fault = false;
  std::uint64_t kill_seed = 0;
  bool kill = false;
  int budget = 60;
  int seeds = 2;
  double deadline = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&] {
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return std::string(argv[i]);
    };
    if (a == "--journal" || a == "--dir") dir = next();
    else if (a == "--resume") resume = true;
    else if (a == "--fault") fault = true;
    else if (a == "--kill-seed") { kill = true; kill_seed = std::strtoull(next().c_str(), nullptr, 10); }
    else if (a == "--budget") budget = std::atoi(next().c_str());
    else if (a == "--seeds") seeds = std::atoi(next().c_str());
    else if (a == "--deadline") deadline = std::atof(next().c_str());
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }

  bench::PersistOptions popt;
  popt.dir = dir;
  popt.resume = resume;
  popt.deadline_seconds = deadline;
  popt.checkpoint_every = 10;  // small cadence so kills land mid-tail

  // Derive the kill target from --kill-seed: pick a victim run and an
  // evaluation index strictly inside its journal so the tail-replay path
  // is always exercised.
  const int tuner_seeds = seeds;
  if (kill) {
    static const char* kMethods[] = {"citroen", "boca", "opentuner",
                                     "ga",      "des",  "random"};
    Rng rng(kill_seed * 2654435761ull + 17);
    const auto m = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const int s = rng.uniform_int(1, tuner_seeds);
    popt.kill_run = std::string(kMethods[m]) + "_s" + std::to_string(s);
    popt.kill_at = rng.uniform_int(5, std::max(6, budget / 2));
    std::fprintf(stderr, "kill switch: run=%s at record %lld\n",
                 popt.kill_run.c_str(),
                 static_cast<long long>(popt.kill_at));
  }

  const sim::FaultPlan plan = gate_fault_plan();
  const sim::FaultPlan* faults = fault ? &plan : nullptr;

  std::printf("# ext_crash_resume budget=%d seeds=%d fault=%d\n", budget,
              seeds, fault ? 1 : 0);

  const auto rep = bench::run_all_tuners_ex("security_sha", "arm", budget,
                                            tuner_seeds, &popt, faults);
  for (const auto& m : rep.curves) {
    for (std::size_t s = 0; s < m.curves.size(); ++s) {
      const std::string tag = m.name + "_s" + std::to_string(s + 1);
      print_vec(tag.c_str(), m.curves[s]);
    }
  }
  std::fprintf(stderr,
               "prefix cache: %llu builds, %llu full hits, "
               "%llu/%llu passes saved\n",
               static_cast<unsigned long long>(rep.cache_stats.builds),
               static_cast<unsigned long long>(rep.cache_stats.full_hits),
               static_cast<unsigned long long>(rep.cache_stats.passes_saved),
               static_cast<unsigned long long>(rep.cache_stats.passes_run +
                                               rep.cache_stats.passes_saved));

  // AIBO leg: continuous-domain journaling (kRecordSample) + checkpointed
  // optimiser state across CMA-ES/GA members and the GP surrogate.
  const synth::Task task = synth::make_task("ackley6");
  const auto ch4 = bench::run_ch4_method_seeds_ex("aibo", task, 40, 2, popt);
  for (std::size_t s = 0; s < ch4.curves.size(); ++s) {
    const std::string tag = "aibo_ackley_s" + std::to_string(s + 1);
    print_vec(tag.c_str(), ch4.curves[s]);
  }

  const int status = rep.status != persist::kExitComplete ? rep.status
                                                          : ch4.status;
  if (status == persist::kExitInterrupted)
    std::fprintf(stderr, "interrupted; resume with --resume --dir %s\n",
                 dir.c_str());
  return status;
}
