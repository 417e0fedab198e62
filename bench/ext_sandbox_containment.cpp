// Sandbox containment gate: prove that evaluations which SIGSEGV, OOM,
// spin forever, or get their worker SIGKILLed from outside are contained
// by the supervision layer — the run completes (exit 0), the lethal
// candidate is classified into the Worker* failure taxonomy and
// quarantined, and the evaluator keeps serving correct results after
// every crash class.
//
// CI runs this binary at CITROEN_THREADS=1 and 8 with a varying
// --kill-seed (which moves the externally-killed job around) and requires
// exit 0. All diagnostics go to stderr; stdout carries canonical rows.
//
// Sections:
//   segv / oom / spin   one crash class each at rate 1.0
//   mixed               low-rate mix over a batch, evaluator must survive
//   external kill       SIGKILL a worker mid-job (kill_job_id test hook)
//   circuit breaker     rate-1.0 crashes until the breaker degrades the
//                       stack to in-process (which is immune to real
//                       faults by design) — the degradation ladder
//   tuner               a small CITROEN run on top of the full stack

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "dist/pool.hpp"
#include "passes/pass.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;

namespace {

int g_failures = 0;

#define CHECK(cond, ...)                                      \
  do {                                                        \
    if (!(cond)) {                                            \
      std::fprintf(stderr, "CHECK failed (%s:%d): ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                      \
      std::fprintf(stderr, "\n");                             \
      ++g_failures;                                           \
    }                                                         \
  } while (0)

/// Suffix mutations of a common base sequence, like the determinism gate
/// uses, so each candidate is distinct (distinct real-fault keys).
std::vector<sim::SequenceAssignment> make_batch(const std::string& module,
                                                int n, int salt = 0) {
  const std::vector<std::string> base = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < n; ++i) {
    auto seq = base;
    const std::size_t k = static_cast<std::size_t>(i + salt);
    seq[seq.size() - 1 - k % 5] = space[(k * 13 + 7) % space.size()];
    sim::SequenceAssignment a;
    a[module] = seq;
    batch.push_back(std::move(a));
  }
  return batch;
}

bool is_worker_failure(sim::FailureKind k) {
  return k == sim::FailureKind::WorkerCrash ||
         k == sim::FailureKind::WorkerTimeout ||
         k == sim::FailureKind::WorkerOOM;
}

struct Stack {
  sim::ProgramEvaluator base;
  dist::WorkerPool pool;
  sim::FaultInjector injector;
  sim::RobustEvaluator robust;

  Stack(const sim::FaultPlan& plan, dist::PoolConfig cfg)
      : base(bench_suite::make_program("security_sha"), sim::arm_a57_model()),
        pool(base, cfg),
        injector(plan),
        robust(pool, sim::RobustConfig{}, &injector) {
    base.set_thread_pool(&ThreadPool::global());
  }
};

/// One crash class at rate 1.0: the single candidate must come back
/// classified `expect` (or one of `alt` where the platform legitimately
/// reports differently, e.g. OOM under ASan aborts instead of throwing).
void single_class_section(const char* name, const sim::FaultPlan& plan,
                          sim::FailureKind expect, sim::FailureKind alt,
                          double wall_timeout) {
  std::printf("[%s containment]\n", name);
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  cfg.breaker_threshold = 1000;  // this section tests containment, not it
  cfg.job_wall_timeout_seconds = wall_timeout;
  Stack st(plan, cfg);

  const auto batch = make_batch("sha", 2);
  const auto out = st.robust.evaluate(batch[0]);
  CHECK(!out.valid, "%s candidate must be invalid", name);
  CHECK(out.failure == expect || out.failure == alt,
        "%s classified %s", name, sim::failure_kind_name(out.failure));
  CHECK(!out.why_invalid.empty(), "%s must carry a crash signature", name);
  CHECK(st.robust.is_quarantined(batch[0]),
        "%s candidate must be quarantined", name);
  CHECK(!st.pool.degraded(), "%s must not trip the breaker", name);

  // The evaluator must keep working: a clean stack over the same pool
  // (fault-free plan) evaluates the *other* candidate normally.
  sim::FaultPlan clean;
  sim::FaultInjector clean_injector(clean);
  st.pool.set_fault_injector(&clean_injector);
  const auto ok = st.pool.evaluate(batch[1]);
  CHECK(ok.valid, "%s: evaluator must survive the crash (got %s: %s)", name,
        sim::failure_kind_name(ok.failure), ok.why_invalid.c_str());
  std::printf("  contained=%d quarantined=%d still_serving=%d\n",
              is_worker_failure(out.failure) ? 1 : 0,
              st.robust.is_quarantined(batch[0]) ? 1 : 0, ok.valid ? 1 : 0);
}

void mixed_section() {
  std::printf("[mixed-rate batch]\n");
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.segv_rate = 0.10;
  plan.oom_rate = 0.05;
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  cfg.breaker_threshold = 1000;
  Stack st(plan, cfg);

  const auto batch = make_batch("sha", 30);
  const auto outcomes = st.robust.evaluate_batch(batch);
  int valid = 0, contained = 0;
  for (const auto& o : outcomes) {
    if (o.valid) ++valid;
    if (is_worker_failure(o.failure)) {
      ++contained;
      CHECK(!o.valid, "worker failure must be invalid");
    }
  }
  const auto& ss = st.pool.stats();
  CHECK(valid + contained == static_cast<int>(outcomes.size()),
        "every outcome valid or contained (valid=%d contained=%d n=%zu)",
        valid, contained, outcomes.size());
  CHECK(contained > 0, "rates 0.10/0.05 over 30 candidates hit none");
  CHECK(valid > 0, "some candidates must survive");
  CHECK(!st.pool.degraded(), "mixed section must not trip the breaker");
  CHECK(ss.worker_crashes + ss.jobs_oom ==
            static_cast<std::uint64_t>(contained),
        "stats mismatch: crashes=%llu ooms=%llu contained=%d",
        (unsigned long long)ss.worker_crashes,
        (unsigned long long)ss.jobs_oom, contained);
  std::printf("  n=%zu valid=%d contained=%d\n", outcomes.size(), valid,
              contained);
}

void external_kill_section(std::uint64_t kill_seed) {
  std::printf("[external kill]\n");
  const int n = 16;
  sim::FaultPlan clean;  // no faults: the only death is the external kill
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  cfg.kill_job_id = static_cast<std::int64_t>(kill_seed % n);
  Stack st(clean, cfg);
  std::fprintf(stderr, "[external kill] SIGKILL at job %lld\n",
               (long long)cfg.kill_job_id);

  const auto batch = make_batch("sha", n);
  const auto outcomes = st.robust.evaluate_batch(batch);
  int crashed = 0, valid = 0;
  for (const auto& o : outcomes) {
    if (o.failure == sim::FailureKind::WorkerCrash) {
      ++crashed;
      CHECK(o.why_invalid.find("SIGKILL") != std::string::npos ||
                o.why_invalid.find("signal 9") != std::string::npos ||
                o.why_invalid.find("Killed") != std::string::npos,
            "kill signature should name SIGKILL, got: %s",
            o.why_invalid.c_str());
    } else if (o.valid) {
      ++valid;
    }
  }
  const auto& ss = st.pool.stats();
  CHECK(crashed == 1, "exactly the killed job crashes (got %d)", crashed);
  CHECK(valid == n - 1, "all other candidates stay valid (got %d)", valid);
  CHECK(ss.respawns >= 1, "the killed worker must be respawned");
  CHECK(!st.pool.degraded(), "one kill must not trip the breaker");

  // Re-evaluating the batch: the victim is quarantined, the rest are
  // served without incident.
  const auto again = st.robust.evaluate_batch(batch);
  int quarantine_hits = 0;
  for (const auto& o : again)
    if (!o.valid) ++quarantine_hits;
  CHECK(quarantine_hits == 1, "victim stays quarantined (got %d)",
        quarantine_hits);
  std::printf("  killed_job=%lld crashed=%d valid=%d requarantined=%d\n",
              (long long)cfg.kill_job_id, crashed, valid, quarantine_hits);
}

void breaker_section() {
  std::printf("[circuit breaker]\n");
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.segv_rate = 1.0;  // every vetting job dies
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  cfg.breaker_threshold = 3;
  cfg.backoff_seconds = 0.001;
  Stack st(plan, cfg);

  const auto batch = make_batch("sha", 6);
  const auto outcomes = st.robust.evaluate_batch(batch);
  int contained = 0, valid = 0;
  for (const auto& o : outcomes) {
    if (o.failure == sim::FailureKind::WorkerCrash) ++contained;
    if (o.valid) ++valid;
  }
  // After breaker_threshold consecutive deaths the stack degrades to
  // in-process evaluation, which never fires real faults — so the
  // remaining candidates come back valid. Containment is lost, progress
  // is not: the bottom rung of the degradation ladder.
  CHECK(st.pool.degraded(), "rate-1.0 crashes must trip the breaker");
  CHECK(st.pool.stats().breaker_trips == 1, "one trip");
  CHECK(contained == cfg.breaker_threshold,
        "first %d candidates contained (got %d)", cfg.breaker_threshold,
        contained);
  CHECK(valid == static_cast<int>(batch.size()) - contained,
        "post-trip candidates evaluate in-process (valid=%d)", valid);
  std::printf("  tripped=%d contained=%d in_process_valid=%d\n",
              st.pool.degraded() ? 1 : 0, contained, valid);
}

void tuner_section() {
  std::printf("[tuner end-to-end]\n");
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.segv_rate = 0.05;
  plan.oom_rate = 0.03;
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  cfg.breaker_threshold = 1000;
  Stack st(plan, cfg);

  core::CitroenConfig tcfg;
  tcfg.budget = 12;
  tcfg.initial_random = 4;
  tcfg.candidates_per_iter = 8;
  tcfg.gp.fit_steps = 4;
  tcfg.seed = 1;
  core::CitroenTuner tuner(st.robust, tcfg);
  const auto result = tuner.run();
  CHECK(!result.speedup_curve.empty(), "tuner must produce a curve");
  double best = 0;
  for (double x : result.speedup_curve) best = std::max(best, x);
  CHECK(best > 0, "tuner must find at least one valid candidate");
  CHECK(!st.pool.degraded(), "tuner run must not trip the breaker");
  std::printf("  curve_len=%zu best=%.4f degraded=%d\n",
              result.speedup_curve.size(), best,
              st.pool.degraded() ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t kill_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kill-seed" && i + 1 < argc) {
      kill_seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }
  std::printf("sandbox containment gate\n");

  {
    sim::FaultPlan p;
    p.seed = 11;
    p.segv_rate = 1.0;
    single_class_section("segv", p, sim::FailureKind::WorkerCrash,
                         sim::FailureKind::WorkerCrash, 30.0);
  }
  {
    sim::FaultPlan p;
    p.seed = 12;
    p.oom_rate = 1.0;
    // ASan builds abort on allocator exhaustion instead of throwing, so
    // the contained-OOM degrades (correctly) to a worker crash there.
    single_class_section("oom", p, sim::FailureKind::WorkerOOM,
                         sim::FailureKind::WorkerCrash, 30.0);
  }
  {
    sim::FaultPlan p;
    p.seed = 13;
    p.spin_rate = 1.0;
    single_class_section("spin", p, sim::FailureKind::WorkerTimeout,
                         sim::FailureKind::WorkerTimeout, 1.0);
  }
  mixed_section();
  external_kill_section(kill_seed);
  breaker_section();
  tuner_section();

  if (g_failures) {
    std::fprintf(stderr, "%d containment checks FAILED\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "all containment checks passed\n");
  return 0;
}
