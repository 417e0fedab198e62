// Distributed-pool containment gate: prove that peers dying mid-job
// (SIGKILL from inside or outside), hanging past the wall deadline, or
// babbling garbage frames cost the pool only time — every scenario's
// batch results are byte-identical to the plain in-process run, the
// failure is classified into the peer-* taxonomy, and a full pool
// brownout (no peer ever reachable) still completes via local fallback.
//
// CI runs this binary at CITROEN_THREADS=1 and 8 and requires exit 0.
// All diagnostics go to stderr; stdout carries canonical rows.
//
// Sections:
//   healthy        two live peers, everything measured remotely
//   self kill      a peer SIGKILLs itself mid-job; job reassigned
//   external kill  the pool-side test hook SIGKILLs the serving peer
//   hang           a peer sleeps forever; wall deadline -> reassigned
//   garbage        a peer writes unframed bytes; protocol -> reassigned
//   brownout       every endpoint dead; pool degrades, local fallback

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/dist_runner.hpp"
#include "bench_suite/suite.hpp"
#include "dist/peer.hpp"
#include "dist/pool.hpp"
#include "passes/pass.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;

namespace {

int g_failures = 0;

#define CHECK(cond, ...)                                                   \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "CHECK failed (%s:%d): ", __FILE__, __LINE__);  \
      std::fprintf(stderr, __VA_ARGS__);                                   \
      std::fprintf(stderr, "\n");                                          \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

/// Suffix mutations of a common base sequence (the determinism gate's
/// shape) so candidates are distinct and prefix-cache paths fire.
std::vector<sim::SequenceAssignment> make_batch(int n) {
  const std::vector<std::string> base = {
      "mem2reg", "instcombine", "simplifycfg", "gvn",  "licm",
      "indvars", "loop-unroll", "dce",         "sroa", "early-cse"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < n; ++i) {
    auto seq = base;
    const auto k = static_cast<std::size_t>(i);
    seq[seq.size() - 1 - k % 5] = space[(k * 13 + 7) % space.size()];
    sim::SequenceAssignment a;
    a["sha"] = seq;
    batch.push_back(std::move(a));
  }
  return batch;
}

/// Canonical textual form of a batch's outcomes — the byte-identity
/// artifact every scenario is compared on.
std::string render(const std::vector<sim::EvalOutcome>& outcomes) {
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    std::snprintf(line, sizeof(line),
                  "cand %02zu: valid=%d failure=%s cycles=%.17g "
                  "speedup=%.17g hash=%016llx size=%zu\n",
                  i, o.valid ? 1 : 0, sim::failure_kind_name(o.failure),
                  o.cycles, o.speedup,
                  static_cast<unsigned long long>(o.binary_hash), o.code_size);
    out += line;
  }
  return out;
}

struct BaseEval {
  sim::ProgramEvaluator eval;
  BaseEval()
      : eval(bench_suite::make_program("security_sha"),
             sim::machine_by_name("arm")) {
    eval.set_thread_pool(&ThreadPool::global());
  }
};

/// Run the batch through a WorkerPool over `peers`, byte-compare
/// against `reference`, and hand the pool to `inspect` for
/// scenario-specific stat assertions.
template <typename Inspect>
void scenario(const char* name, const std::vector<std::string>& peers,
              dist::PoolConfig cfg, const std::string& reference,
              Inspect inspect) {
  std::printf("[%s]\n", name);
  BaseEval base;
  cfg.peers = peers;
  cfg.spec = dist::make_program_spec(base.eval, "arm");
  dist::WorkerPool pool(base.eval, cfg);
  const auto got = render(pool.evaluate_batch(make_batch(12)));
  CHECK(got == reference, "%s: batch output diverged from in-process run",
        name);
  inspect(pool);
  const auto& ds = pool.stats();
  std::fprintf(stderr,
               "[%s] dispatched=%llu ok=%llu reassigned=%llu fallback=%llu "
               "lost=%llu timeout=%llu protocol=%llu bans=%llu degraded=%d\n",
               name, (unsigned long long)ds.jobs_dispatched,
               (unsigned long long)ds.jobs_ok,
               (unsigned long long)ds.reassigned,
               (unsigned long long)ds.local_fallback,
               (unsigned long long)ds.peer_lost,
               (unsigned long long)ds.peer_timeout,
               (unsigned long long)ds.peer_protocol, (unsigned long long)ds.bans,
               pool.degraded() ? 1 : 0);
  std::printf("  identical=%d\n", got == reference ? 1 : 0);
}

}  // namespace

int main() {
  std::printf("dist containment gate\n");

  // The in-process reference every scenario must match byte-for-byte.
  BaseEval ref;
  const std::string reference = render(ref.eval.evaluate_batch(make_batch(12)));

  {  // Two live peers; everything measured remotely, nothing lost.
    bench::LocalPeerFleet fleet(2);
    scenario("healthy pool", fleet.endpoints(), {}, reference,
             [](const dist::WorkerPool& p) {
               const auto& ds = p.stats();
               CHECK(ds.jobs_ok == 12, "all 12 jobs remote (got %llu)",
                     (unsigned long long)ds.jobs_ok);
               CHECK(ds.peer_lost + ds.peer_timeout + ds.peer_protocol == 0,
                     "healthy pool must see no failures");
               CHECK(!p.degraded(), "healthy pool must not degrade");
             });
  }

  {  // Peer 0 SIGKILLs itself mid-job (after reading the job frame).
    dist::PeerOptions suicidal;
    suicidal.kill_self_after_jobs = 1;
    bench::LocalPeerFleet victim(1, suicidal);
    bench::LocalPeerFleet healthy(1);
    std::vector<std::string> peers = victim.endpoints();
    peers.push_back(healthy.endpoints()[0]);
    dist::PoolConfig cfg;
    cfg.connect_timeout_seconds = 0.5;
    cfg.backoff_seconds = 0.01;
    scenario("self kill", peers, cfg, reference,
             [](const dist::WorkerPool& p) {
               CHECK(p.stats().peer_lost >= 1,
                     "the mid-job SIGKILL must classify peer-lost");
               CHECK(p.stats().reassigned +
                             p.stats().local_fallback >=
                         1,
                     "the orphaned job must be reassigned or fall back");
             });
  }

  {  // The pool-side hook SIGKILLs the serving peer from outside.
    bench::LocalPeerFleet fleet(2);
    dist::PoolConfig cfg;
    cfg.kill_job_id = 3;
    cfg.connect_timeout_seconds = 0.5;
    cfg.backoff_seconds = 0.01;
    scenario("external kill", fleet.endpoints(), cfg, reference,
             [](const dist::WorkerPool& p) {
               CHECK(p.stats().peer_lost >= 1,
                     "the external SIGKILL must classify peer-lost");
             });
  }

  {  // Peer 0 hangs forever mid-job; the wall deadline reassigns.
    dist::PeerOptions hanging;
    hanging.hang_after_jobs = 1;
    bench::LocalPeerFleet stuck(1, hanging);
    bench::LocalPeerFleet healthy(1);
    std::vector<std::string> peers = stuck.endpoints();
    peers.push_back(healthy.endpoints()[0]);
    dist::PoolConfig cfg;
    cfg.job_wall_timeout_seconds = 0.75;
    cfg.connect_timeout_seconds = 0.5;
    cfg.heartbeat_timeout_seconds = 0.5;
    cfg.backoff_seconds = 0.01;
    cfg.breaker_threshold = 2;
    scenario("hang", peers, cfg, reference,
             [](const dist::WorkerPool& p) {
               CHECK(p.stats().peer_timeout >= 1,
                     "the hung job must classify peer-timeout");
             });
  }

  {  // Peer 0 answers a job with unframed garbage bytes.
    dist::PeerOptions babbling;
    babbling.garbage_after_jobs = 1;
    bench::LocalPeerFleet noisy(1, babbling);
    bench::LocalPeerFleet healthy(1);
    std::vector<std::string> peers = noisy.endpoints();
    peers.push_back(healthy.endpoints()[0]);
    dist::PoolConfig cfg;
    cfg.connect_timeout_seconds = 0.5;
    cfg.backoff_seconds = 0.01;
    cfg.breaker_threshold = 2;
    scenario("garbage", peers, cfg, reference,
             [](const dist::WorkerPool& p) {
               CHECK(p.stats().peer_protocol >= 1,
                     "garbage frames must classify peer-protocol");
             });
  }

  {  // Full brownout: no endpoint has ever had a listener. The pool must
    // degrade gracefully and complete every job on the local stack.
    char bogus0[96], bogus1[96];
    std::snprintf(bogus0, sizeof(bogus0), "/tmp/citroen_no_peer_%d_0.sock",
                  static_cast<int>(::getpid()));
    std::snprintf(bogus1, sizeof(bogus1), "/tmp/citroen_no_peer_%d_1.sock",
                  static_cast<int>(::getpid()));
    dist::PoolConfig cfg;
    cfg.connect_timeout_seconds = 0.2;
    cfg.backoff_seconds = 0.001;
    cfg.breaker_threshold = 2;
    scenario("brownout", {bogus0, bogus1}, cfg, reference,
             [](const dist::WorkerPool& p) {
               const auto& ds = p.stats();
               CHECK(p.degraded(), "dead endpoints must brown the pool out");
               CHECK(ds.brownouts == 1, "exactly one brownout");
               CHECK(ds.jobs_ok == 0, "no job can have run remotely");
               CHECK(ds.local_fallback >= 1,
                     "queued jobs must fall back locally");
             });
  }

  if (g_failures) {
    std::fprintf(stderr, "%d dist containment checks FAILED\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "all dist containment checks passed\n");
  return 0;
}
