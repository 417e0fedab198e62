// Extension gate (thesis Sec. 6.3.3 future work, ROADMAP item 1): the
// durable transfer corpus must make warm-started tuning dominate cold
// tuning at equal budget on held-out suite members.
//
// Phase A tunes the source program (telecom_gsm) and appends its winners
// to an on-disk corpus; phase B reopens that corpus read-only and tunes
// held-out targets cold vs corpus-warm at the same budget. telecom_gsm's
// long_term module shares the i16 dot-product motif with spec_x264's sad
// and consumer_mad's layer3, so their signatures should match and
// transfer; security_sha does not share it and must degrade gracefully
// (miss or neutral), never regress past the gate epsilon.
//
//   ext_transfer_tuning [--budget N] [--seeds N] [--full]
//                       [--corpus-dir DIR] [--kill] [--build-only]
//
// --kill additionally forks a child that SIGKILLs itself mid-append
// (CorpusConfig::kill_after_tail_bytes) and asserts the parent recovers
// the torn tail and can keep appending. --build-only stops after phase A
// (CI uses it to seed a warm corpus for the determinism matrix).
//
// Exit status: 0 when every check passed, 1 otherwise.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/tuner_runner.hpp"
#include "corpus/corpus.hpp"

using namespace citroen;

namespace {

/// Every run (source and targets, cold and warm) uses single-module
/// tuning: transferred GP observations are only dimension-safe then.
core::CitroenConfig gate_config(int budget, std::uint64_t seed) {
  auto cfg = serve::default_citroen_config(budget, seed);
  cfg.max_hot_modules = 1;
  return cfg;
}

core::TuneResult tune(const std::string& program, int budget,
                      std::uint64_t seed, const corpus::TunerAdvice& advice,
                      std::vector<std::string>* modules_out = nullptr) {
  sim::ProgramEvaluator eval(bench_suite::make_program(program),
                             sim::machine_by_name("arm"));
  auto cfg = gate_config(budget, seed);
  corpus::apply_advice(&cfg, advice);
  core::CitroenTuner tuner(eval, cfg);
  auto res = tuner.run();
  if (modules_out) *modules_out = tuner.tuned_modules();
  return res;
}

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

std::size_t count_entries(const std::string& dir) {
  corpus::CorpusConfig ro;
  ro.mode = corpus::OpenMode::ReadOnly;
  return corpus::TransferCorpus(dir, ro).num_entries();
}

/// Fork a child that dies by SIGKILL mid-append (a torn tail of real
/// frame bytes lands on disk), then prove the next writer recovers: the
/// tail is truncated, no phantom entry appears, and appends still work.
void run_kill_test(const std::string& dir,
                   const std::vector<corpus::CorpusEntry>& pending) {
  std::printf("\n--kill: SIGKILL mid-append, then recover\n");
  const std::size_t before = count_entries(dir);

  const pid_t pid = ::fork();
  if (pid == 0) {
    corpus::CorpusConfig kcfg;
    kcfg.mode = corpus::OpenMode::AppendWait;
    kcfg.kill_after_tail_bytes = 12;  // mid-frame: 8-byte header + 4
    try {
      corpus::TransferCorpus c(dir, kcfg);
      c.append(pending.front());  // raises SIGKILL before the full frame
    } catch (...) {
    }
    ::_exit(97);  // only reachable if the kill hook misfired
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
        "child died by SIGKILL mid-append");

  corpus::TransferCorpus c(dir, {});  // next writer: recover + truncate
  std::printf("    recovery: %s\n",
              c.stats().note.empty() ? "(clean)" : c.stats().note.c_str());
  check(c.stats().recovered_bytes > 0, "torn tail detected and truncated");
  check(c.num_entries() == before, "no phantom entry from the torn append");
  check(c.writable(), "recovered corpus is writable");
  std::size_t appended = 0;
  for (const auto& e : pending) appended += c.append(e) ? 1 : 0;
  check(appended == pending.size(), "pending entries re-append for real");
  check(c.num_entries() == before + pending.size(),
        "entry count reflects the re-appended batch");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : args.pick(30, 100);
  const int seeds = args.seeds ? args.seeds : args.pick(3, 8);
  bool kill_test = false, build_only = false;
  std::string corpus_dir = "transfer_corpus";
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--kill") kill_test = true;
    if (s == "--build-only") build_only = true;
    if (s == "--corpus-dir" && i + 1 < argc) corpus_dir = argv[++i];
  }

  bench::header("Extension gate: transfer corpus",
                "corpus-warm tuning must dominate cold at equal budget",
                "thesis future work (Sec. 6.3.3): program-independent pass "
                "correlations transfer through compilation statistics");
  std::printf("source=telecom_gsm (budget %d), targets at budget %d, "
              "%d seeds, corpus=%s\n\n",
              2 * budget, budget, seeds, corpus_dir.c_str());
  std::filesystem::remove_all(corpus_dir);

  // ---- phase A: tune the source, persist its winners --------------------
  sim::ProgramEvaluator source_eval(bench_suite::make_program("telecom_gsm"),
                                    sim::machine_by_name("arm"));
  auto scfg = gate_config(2 * budget, 99);
  core::CitroenTuner source_tuner(source_eval, scfg);
  const auto source = source_tuner.run();
  {
    corpus::TransferCorpus c(corpus_dir, {});
    const int n = corpus::append_tune_result(c, source_eval, "telecom_gsm",
                                             "arm", 2 * budget, source,
                                             source_tuner.tuned_modules());
    std::printf("source best speedup %.3fx -> %d corpus entr%s "
                "(%zu total)\n",
                source.best_speedup, n, n == 1 ? "y" : "ies",
                c.num_entries());
    check(c.writable(), "phase A corpus handle holds the writer lock");
    check(n > 0, "source run produced at least one transferable entry");
  }

  if (kill_test) {
    // Distinct content keys so the real re-append is not a dedup no-op.
    auto pending = corpus::entries_from_result(
        source_eval, "kill_probe", "arm",
        static_cast<std::uint32_t>(2 * budget), source,
        source_tuner.tuned_modules());
    for (auto& e : pending) e.speedup += 0.001;
    if (pending.empty()) {
      corpus::CorpusEntry e;
      e.program = "kill_probe";
      e.machine = "arm";
      e.module = "m";
      e.stats_vocab_fp = corpus::stats_vocab_fingerprint();
      e.budget = 1;
      e.speedup = 1.5;
      e.signature = Vec{1.0, 2.0, 3.0, 4.0};
      e.sequence = corpus::probe_sequence();
      pending.push_back(e);
    }
    run_kill_test(corpus_dir, pending);
  }

  if (build_only) {
    std::printf("\n--build-only: stopping after phase A (%s)\n",
                failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }

  // ---- phase B: held-out targets, cold vs corpus-warm -------------------
  corpus::CorpusConfig ro;
  ro.mode = corpus::OpenMode::ReadOnly;
  corpus::TransferCorpus c(corpus_dir, ro);

  std::printf("\n%-16s %5s %9s %12s %12s\n", "target", "hit", "distance",
              "cold", "corpus-warm");
  double cold_sum = 0.0, warm_sum = 0.0;
  std::size_t targets_hit = 0;
  for (const char* target : {"spec_x264", "consumer_mad", "security_sha"}) {
    // Resolve advice once per target, exactly as the runners do.
    sim::ProgramEvaluator eval(bench_suite::make_program(target),
                               sim::machine_by_name("arm"));
    const auto cfg = gate_config(budget, 1);
    const auto mods = core::select_hot_modules(eval, cfg.hot_threshold,
                                               cfg.max_hot_modules);
    const auto advice = corpus::advise_for_modules(c, eval, "arm", mods);
    double distance = -1.0;
    if (!mods.empty()) {
      const auto probe = corpus::probe_signature(eval, mods.front());
      distance = c.advise_module("arm", corpus::stats_vocab_fingerprint(),
                                 probe)
                     .distance;
    }
    targets_hit += advice.modules_matched > 0 ? 1 : 0;

    std::vector<Vec> cold, warm;
    for (int s = 0; s < seeds; ++s) {
      const auto seed = static_cast<std::uint64_t>(s) + 1;
      cold.push_back(tune(target, budget, seed, {}).speedup_curve);
      warm.push_back(tune(target, budget, seed, advice).speedup_curve);
    }
    const auto ac = bench::aggregate(cold);
    const auto aw = bench::aggregate(warm);
    cold_sum += ac.mean_final;
    warm_sum += aw.mean_final;
    std::printf("%-16s %5s %9.3f %6.3f±%.3f %6.3f±%.3f\n", target,
                advice.modules_matched > 0 ? "yes" : "no", distance,
                ac.mean_final, ac.std_final, aw.mean_final, aw.std_final);
  }

  // The gate: warm must dominate cold in aggregate (an epsilon absorbs
  // seed noise on the miss targets, where warm == cold byte-identically
  // anyway), and the motif-sharing targets must actually match.
  const double eps = 1e-9;
  std::printf("\naggregate cold %.4f vs corpus-warm %.4f\n",
              cold_sum / 3.0, warm_sum / 3.0);
  check(warm_sum + eps >= cold_sum, "corpus-warm dominates cold overall");
  check(c.num_entries() == 0 || targets_hit >= 1,
        "at least one held-out target matched the corpus");

  std::printf("\n%s\n", failures == 0 ? "TRANSFER GATE: OK"
                                      : "TRANSFER GATE: FAILED");
  return failures == 0 ? 0 : 1;
}
