// Unit tests for the distributed evaluation tier (src/dist/): the wire
// codec, endpoint parsing, evaluator fingerprinting, and a WorkerPool
// driving one real forked peer — alone and next to a fork worker — plus
// the graceful-degradation path when no peer is reachable. The
// adversarial scenarios (mid-job SIGKILL, hangs, garbage frames) live in
// bench/ext_dist_containment.cpp.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "bench_suite/suite.hpp"
#include "dist/peer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "dist/pool.hpp"
#include "dist/wire.hpp"
#include "sandbox/ipc.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"

using namespace citroen;

namespace {

/// A forked Unix-socket peer, killed and reaped on scope exit.
struct ScopedPeer {
  std::string path;
  pid_t pid = -1;

  explicit ScopedPeer(dist::PeerOptions options = {}) {
    static int counter = 0;
    path = "/tmp/citroen_test_dist_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
    std::string error;
    pid = dist::spawn_peer(path, options, &error);
    EXPECT_GT(pid, 0) << error;
  }
  ~ScopedPeer() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    ::unlink(path.c_str());
  }
};

void expect_same_outcome(const sim::EvalOutcome& a, const sim::EvalOutcome& b,
                         const char* what) {
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.speedup, b.speedup) << what;
  EXPECT_EQ(a.binary_hash, b.binary_hash) << what;
  EXPECT_EQ(a.code_size, b.code_size) << what;
}

sim::SequenceAssignment candidate(int i) {
  std::vector<std::string> seq = {"mem2reg", "instcombine", "simplifycfg",
                                  "gvn", "dce"};
  if (i % 2) seq.push_back("early-cse");
  if (i % 3) seq.push_back("sroa");
  sim::SequenceAssignment a;
  a["sha"] = seq;
  return a;
}

}  // namespace

// ---- wire codec ------------------------------------------------------------

TEST(DistWire, TagUntagRoundTrips) {
  const std::string payload = dist::tag_message(dist::PeerMsg::Job, "body!");
  dist::PeerMsg tag{};
  std::string_view body;
  ASSERT_TRUE(dist::untag_message(payload, &tag, &body));
  EXPECT_EQ(tag, dist::PeerMsg::Job);
  EXPECT_EQ(body, "body!");
}

TEST(DistWire, UntagRejectsEmptyAndOutOfRangeTags) {
  dist::PeerMsg tag{};
  std::string_view body;
  EXPECT_FALSE(dist::untag_message("", &tag, &body));
  EXPECT_FALSE(dist::untag_message(std::string(1, '\0'), &tag, &body));
  EXPECT_FALSE(dist::untag_message(std::string(1, '\x7f') + "rest", &tag,
                                   &body));
}

TEST(DistWire, HelloRoundTrips) {
  dist::ProgramSpec spec;
  spec.program = "security_sha";
  spec.machine = "x86";
  spec.workload_seed = 7;
  spec.extra_workload_seeds = {11, 13};
  spec.max_instructions = 1234567;
  spec.max_memory_bytes = 1 << 20;
  spec.max_call_depth = 99;

  dist::ProgramSpec back;
  std::string error;
  ASSERT_TRUE(dist::decode_hello(dist::encode_hello(spec), &back, &error))
      << error;
  EXPECT_EQ(back.program, spec.program);
  EXPECT_EQ(back.machine, spec.machine);
  EXPECT_EQ(back.workload_seed, spec.workload_seed);
  EXPECT_EQ(back.extra_workload_seeds, spec.extra_workload_seeds);
  EXPECT_EQ(back.max_instructions, spec.max_instructions);
  EXPECT_EQ(back.max_memory_bytes, spec.max_memory_bytes);
  EXPECT_EQ(back.max_call_depth, spec.max_call_depth);
}

TEST(DistWire, HelloDecodeRejectsTruncation) {
  dist::ProgramSpec spec;
  spec.program = "security_sha";
  const std::string bytes = dist::encode_hello(spec);
  dist::ProgramSpec back;
  std::string error;
  EXPECT_FALSE(
      dist::decode_hello(std::string_view(bytes).substr(0, bytes.size() / 2),
                         &back, &error));
}

TEST(DistWire, HelloFromAnotherProtocolVersionIsRefused) {
  // Version 3 added build summaries to Result frames; a version-2 peer
  // would misread every result, so its Hello must be refused.
  ASSERT_EQ(dist::kProtocolVersion, 3u);
  dist::ProgramSpec spec;
  spec.program = "security_sha";
  std::string bytes = dist::encode_hello(spec);
  bytes[0] = 2;  // u32 version, little-endian
  dist::ProgramSpec back;
  std::string error;
  EXPECT_FALSE(dist::decode_hello(bytes, &back, &error));
  EXPECT_EQ(error, "protocol version mismatch");
}

TEST(DistWire, HelloOkHelloErrNonceRoundTrip) {
  std::uint64_t pid = 0, fp = 0;
  ASSERT_TRUE(dist::decode_hello_ok(
      dist::encode_hello_ok(4321, 0xdeadbeefcafef00dull), &pid, &fp));
  EXPECT_EQ(pid, 4321u);
  EXPECT_EQ(fp, 0xdeadbeefcafef00dull);

  std::string reason;
  ASSERT_TRUE(dist::decode_hello_err(dist::encode_hello_err("bad version"),
                                     &reason));
  EXPECT_EQ(reason, "bad version");

  std::uint64_t nonce = 0;
  ASSERT_TRUE(dist::decode_nonce(dist::encode_nonce(777), &nonce));
  EXPECT_EQ(nonce, 777u);
}

TEST(DistWire, FingerprintSeparatesProgramsButNotInstances) {
  sim::ProgramEvaluator a(bench_suite::make_program("security_sha"),
                          sim::machine_by_name("arm"));
  sim::ProgramEvaluator b(bench_suite::make_program("security_sha"),
                          sim::machine_by_name("arm"));
  sim::ProgramEvaluator c(bench_suite::make_program("office_stringsearch"),
                          sim::machine_by_name("arm"));
  EXPECT_EQ(dist::evaluator_fingerprint(a), dist::evaluator_fingerprint(b));
  EXPECT_NE(dist::evaluator_fingerprint(a), dist::evaluator_fingerprint(c));
}

// ---- endpoint parsing & spec building --------------------------------------

TEST(DistPool, ParsePeerListSplitsTrimsAndDropsEmpties) {
  const auto got = dist::parse_peer_list(
      " unix:/tmp/a.sock ,, 127.0.0.1:9000,\ttcp:10.0.0.1:80 ,");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "unix:/tmp/a.sock");
  EXPECT_EQ(got[1], "127.0.0.1:9000");
  EXPECT_EQ(got[2], "tcp:10.0.0.1:80");
  EXPECT_TRUE(dist::parse_peer_list("").empty());
  EXPECT_TRUE(dist::parse_peer_list(" , ,").empty());
}

TEST(DistPool, MakeProgramSpecMirrorsEvaluator) {
  sim::ProgramEvaluator eval(bench_suite::make_program("security_sha"),
                             sim::machine_by_name("arm"));
  const auto spec = dist::make_program_spec(eval, "arm");
  EXPECT_EQ(spec.program, "security_sha");
  EXPECT_EQ(spec.machine, "arm");
  EXPECT_EQ(spec.workload_seed, 42u);
  EXPECT_EQ(spec.max_instructions, eval.exec_limits().max_instructions);
  EXPECT_EQ(spec.max_memory_bytes, eval.exec_limits().max_memory_bytes);
  EXPECT_EQ(spec.max_call_depth, eval.exec_limits().max_call_depth);
}

// ---- WorkerPool end to end -------------------------------------------------

TEST(DistEvaluator, RemoteEvaluationMatchesLocalByteForByte) {
  ScopedPeer peer;
  ASSERT_GT(peer.pid, 0);

  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::machine_by_name("arm"));
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::PoolConfig cfg;
  cfg.peers = {peer.path};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  dist::WorkerPool pool(bottom, cfg);

  for (int i = 0; i < 3; ++i) {
    const auto want = plain.evaluate(candidate(i));
    const auto got = pool.evaluate(candidate(i));
    expect_same_outcome(got, want, "remote vs local");
  }
  EXPECT_GE(pool.stats().jobs_ok, 1u);
  EXPECT_EQ(pool.stats().local_fallback, 0u);
  EXPECT_FALSE(pool.degraded());
}

TEST(WorkerPool, BothTransportsEvaluateEachCandidateOnce) {
  // One fork worker and one live peer in one pool: each distinct
  // candidate runs on exactly one of them, and every outcome matches
  // plain evaluation bit for bit.
  ScopedPeer peer;
  ASSERT_GT(peer.pid, 0);

  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::machine_by_name("arm"));
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  cfg.peers = {peer.path};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  dist::WorkerPool pool(bottom, cfg);

  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(candidate(i));
  std::set<std::uint64_t> distinct;
  for (const auto& a : batch) distinct.insert(sim::assignment_signature(a));
  const auto got = pool.evaluate_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_same_outcome(got[i], plain.evaluate(batch[i]), "both transports");
  EXPECT_EQ(pool.num_measurements(), plain.num_measurements());
  EXPECT_EQ(pool.num_cache_hits(), plain.num_cache_hits());
  EXPECT_EQ(pool.stats().jobs_dispatched, distinct.size());
  EXPECT_EQ(pool.stats().jobs_ok, distinct.size());
  EXPECT_EQ(pool.stats().forks, 1u);
  EXPECT_EQ(pool.stats().connects, 1u);
  EXPECT_FALSE(pool.degraded());
}

TEST(DistEvaluator, BrownoutFallsBackToLocalStack) {
  const std::string bogus = "/tmp/citroen_test_dist_nobody_" +
                            std::to_string(::getpid()) + ".sock";
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::machine_by_name("arm"));
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::PoolConfig cfg;
  cfg.peers = {bogus};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  cfg.connect_timeout_seconds = 0.1;
  cfg.backoff_seconds = 0.001;
  cfg.breaker_threshold = 1;
  dist::WorkerPool pool(bottom, cfg);

  const auto want = plain.evaluate(candidate(0));
  const auto got = pool.evaluate(candidate(0));
  expect_same_outcome(got, want, "brownout fallback");
  EXPECT_TRUE(pool.degraded());
  EXPECT_EQ(pool.stats().jobs_ok, 0u);
  EXPECT_GE(pool.stats().local_fallback, 1u);
}

TEST(DistEvaluator, BreakerStateIsVisibleInMetricsExport) {
  // Satellite of the transfer-corpus PR: per-peer circuit-breaker state
  // and reconnect/backoff totals must be visible in the Prometheus
  // export, so a fleet operator can see WHICH peer is flapping.
  obs::metrics_force_enable(true);
  const std::string bogus = "/tmp/citroen_test_dist_nobody_m_" +
                            std::to_string(::getpid()) + ".sock";
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::PoolConfig cfg;
  cfg.peers = {bogus};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  cfg.connect_timeout_seconds = 0.1;
  cfg.backoff_seconds = 0.001;
  cfg.breaker_threshold = 2;  // one backoff round, then the ban
  dist::WorkerPool pool(bottom, cfg);
  pool.evaluate(candidate(0));
  obs::metrics_force_enable(false);

  EXPECT_TRUE(pool.degraded());
  EXPECT_GE(pool.stats().reconnect_attempts, 2u);
  EXPECT_GE(pool.stats().backoffs, 1u);
  EXPECT_EQ(pool.stats().bans, 1u);

  auto& reg = obs::Registry::instance();
  const std::string prom = reg.prometheus_text();
  // Per-peer state is one labeled family per quantity (peer="<index>"),
  // not a metric name per peer.
  for (const char* metric :
       {"citroen_dist_peer_banned{peer=\"0\"}",
        "citroen_dist_peer_connected{peer=\"0\"}",
        "citroen_dist_peer_consecutive_failures{peer=\"0\"}",
        "citroen_dist_peers_banned", "citroen_dist_degraded",
        "citroen_dist_reconnect_attempts_total",
        "citroen_dist_backoffs_total", "citroen_dist_bans_total"}) {
    EXPECT_NE(prom.find(metric), std::string::npos)
        << "missing from Prometheus export: " << metric;
  }
  EXPECT_NE(prom.find("citroen_dist_peer_banned{peer=\"0\"} 1"),
            std::string::npos)
      << prom.substr(0, 400);

  // The same health rows the daemon's Inspect snapshot serves.
  const auto health = pool.peer_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].endpoint, bogus);
  EXPECT_FALSE(health[0].connected);
  EXPECT_TRUE(health[0].banned);
  EXPECT_GE(health[0].consecutive_failures, 2);
}

// ---- clock-offset handshake ------------------------------------------------

namespace {

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// A scripted peer with an adjustable clock: for each entry in `skews`
/// it accepts one connection, answers the Hello with a HelloOk stamped
/// at (real now + skew), swallows the job frame, and hangs up — so the
/// pool measures the offset, then classifies the peer lost and the job
/// falls back to the local stack.
void serve_skewed(int listen_fd, std::uint64_t fingerprint,
                  std::vector<std::int64_t> skews) {
  for (const std::int64_t skew : skews) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    sandbox::FrameReader reader(conn);
    std::string payload;
    if (reader.read(&payload, 10.0) == sandbox::IoStatus::Ok) {
      dist::PeerMsg tag{};
      std::string_view body;
      if (dist::untag_message(payload, &tag, &body) &&
          tag == dist::PeerMsg::Hello) {
        const std::uint64_t stamped = obs::apply_clock_offset(mono_ns(), skew);
        sandbox::write_frame(
            conn,
            dist::tag_message(dist::PeerMsg::HelloOk,
                              dist::encode_hello_ok(1, fingerprint, stamped)));
        reader.read(&payload, 10.0);  // the job frame; never answered
      }
    }
    ::close(conn);
  }
  ::close(listen_fd);
}

std::string skew_socket_path(int i) {
  return "/tmp/citroen_test_dist_skew_" + std::to_string(::getpid()) + "_" +
         std::to_string(i) + ".sock";
}

/// Evaluate one candidate against a skewed scripted peer and return the
/// handshake-measured offset.
std::int64_t measure_offset_against(std::int64_t skew_ns, int path_index) {
  const std::string path = skew_socket_path(path_index);
  std::string error;
  const int listen_fd = dist::listen_unix(path, &error);
  EXPECT_GE(listen_fd, 0) << error;

  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  std::thread peer(serve_skewed, listen_fd, dist::evaluator_fingerprint(bottom),
                   std::vector<std::int64_t>{skew_ns});

  dist::PoolConfig cfg;
  cfg.peers = {path};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  cfg.connect_timeout_seconds = 5.0;
  cfg.job_wall_timeout_seconds = 1.0;
  cfg.max_attempts_per_job = 1;  // one handshake, then local fallback
  dist::WorkerPool pool(bottom, cfg);
  pool.evaluate(candidate(0));

  peer.join();
  ::unlink(path.c_str());
  return pool.peer_clock_offset_ns(0);
}

}  // namespace

TEST(DistClock, HandshakeMeasuresSkewedOffset) {
  // A peer whose monotonic clock reads 3s ahead must measure as roughly
  // +3s (error bounded by half the loopback RTT, generously 250ms here).
  const std::int64_t skew = 3'000'000'000;
  const std::int64_t got = measure_offset_against(skew, 0);
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(skew), 250e6);
}

TEST(DistClock, HandshakeMeasuresNegativeOffset) {
  const std::int64_t skew = -3'000'000'000;
  const std::int64_t got = measure_offset_against(skew, 1);
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(skew), 250e6);
}

TEST(DistClock, OffsetRemeasuredOnReconnect) {
  // The peer restarts with a different clock (step, reboot, new box
  // behind the same endpoint): the next handshake must replace the old
  // offset, not keep serving the stale one.
  const std::string path = skew_socket_path(2);
  std::string error;
  const int listen_fd = dist::listen_unix(path, &error);
  ASSERT_GE(listen_fd, 0) << error;

  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  std::thread peer(
      serve_skewed, listen_fd, dist::evaluator_fingerprint(bottom),
      std::vector<std::int64_t>{2'000'000'000, -2'000'000'000});

  dist::PoolConfig cfg;
  cfg.peers = {path};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  cfg.connect_timeout_seconds = 5.0;
  cfg.job_wall_timeout_seconds = 1.0;
  cfg.max_attempts_per_job = 1;
  cfg.breaker_threshold = 10;  // two lost jobs must not ban the peer
  cfg.backoff_seconds = 0.001;
  cfg.backoff_max_seconds = 0.002;
  dist::WorkerPool pool(bottom, cfg);

  pool.evaluate(candidate(0));
  EXPECT_NEAR(static_cast<double>(pool.peer_clock_offset_ns(0)), 2e9, 250e6);

  ::usleep(50 * 1000);  // clear the reconnect backoff gate
  pool.evaluate(candidate(1));
  EXPECT_NEAR(static_cast<double>(pool.peer_clock_offset_ns(0)), -2e9, 250e6);
  EXPECT_GE(pool.stats().connects, 2u);

  peer.join();
  ::unlink(path.c_str());
}

TEST(DistClock, RealPeerOffsetIsNearZero) {
  // Same machine, same CLOCK_MONOTONIC: the measured offset against a
  // real forked peer is bounded by the handshake RTT.
  ScopedPeer peer;
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::PoolConfig cfg;
  cfg.peers = {peer.path};
  cfg.spec = dist::make_program_spec(bottom, "arm");
  dist::WorkerPool pool(bottom, cfg);
  pool.evaluate(candidate(0));
  ASSERT_FALSE(pool.degraded());
  EXPECT_LT(std::llabs(pool.peer_clock_offset_ns(0)), 1'000'000'000ll);
}

TEST(DistEvaluator, EmptyPeerListIsInert) {
  ::unsetenv("CITROEN_PEERS");
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::machine_by_name("arm"));
  sim::ProgramEvaluator bottom(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  dist::WorkerPool pool(bottom, {});
  EXPECT_EQ(pool.peer_count(), 0);
  expect_same_outcome(pool.evaluate(candidate(1)), plain.evaluate(candidate(1)),
                      "inert pool");
  EXPECT_EQ(pool.stats().jobs_dispatched, 0u);
}
