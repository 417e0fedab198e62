// Extension gate: the observability layer's three contracts.
//
//   1. Structure — a traced tuner run yields spans that nest properly
//      per thread, cover the expected taxonomy (tuner/gp/eval spans),
//      and serialize to well-formed Chrome trace_event JSON.
//   2. Determinism — tuner results are byte-identical with tracing and
//      metrics enabled vs. disabled (the instrumentation writes to side
//      channels only). Runs under whatever CITROEN_THREADS /
//      CITROEN_SANDBOX the environment sets, so CI sweeps those.
//   3. Kill-path flush — a run killed by the test kill-switch
//      (_Exit(99), skipping atexit) still leaves a parseable trace file
//      behind, because the kill path calls obs::flush_all() first.
//   4. Lossless capture — a default-capacity sink absorbs a full tuner
//      run without dropping events, and the drop counter is exported.
//
// With --live [--artifact-dir DIR] the gate additionally boots an
// in-process citroend wired to two forked evaluation peers, drives two
// tenants through it, scrapes /metrics over the TCP listener, renders
// the Inspect snapshot, and validates the merged cross-process trace
// (flow events linking dispatch spans to remote execution spans).
// Artifacts land in DIR: live_status.json, live_trace.json,
// live_metrics.prom.
//
// stdout is fully deterministic (PASS/FAIL lines and %.17g curve bytes);
// the exit status is the gate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "dist/peer.hpp"
#include "dist/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/run_session.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "support/env.hpp"

using namespace citroen;

namespace {

int g_failures = 0;

void check(bool ok, const char* what, const std::string& detail = "") {
  if (ok) {
    std::printf("PASS  %s\n", what);
  } else {
    std::printf("FAIL  %s%s%s\n", what, detail.empty() ? "" : ": ",
                detail.c_str());
    ++g_failures;
  }
}

/// One small tuner run; the worker pool is inserted when
/// CITROEN_SANDBOX=1 so worker obs-delta streaming is exercised too.
std::string run_curve(int budget) {
  sim::ProgramEvaluator base(bench_suite::make_program("telecom_gsm"),
                             sim::arm_a57_model());
  auto pool = dist::make_worker_pool(base, "arm");
  sim::Evaluator& eval = pool ? static_cast<sim::Evaluator&>(*pool)
                              : static_cast<sim::Evaluator&>(base);
  core::CitroenConfig cfg;
  cfg.budget = budget;
  cfg.initial_random = budget / 4;
  cfg.gp.fit_steps = 4;
  cfg.seed = 7;
  core::CitroenTuner tuner(eval, cfg);
  const auto r = tuner.run();
  std::string out;
  char buf[48];
  for (const double v : r.speedup_curve) {
    std::snprintf(buf, sizeof(buf), "%.17g\n", v);
    out += buf;
  }
  return out;
}

void check_structure(int budget) {
  obs::trace_force_enable(true);
  obs::drain_trace();
  (void)run_curve(budget);
  const auto events = obs::drain_trace();
  obs::trace_force_enable(false);

  check(!events.empty(), "traced run produced events");
  std::string err;
  check(obs::validate_span_nesting(events, &err), "spans nest per thread",
        err);

  std::set<std::string> names;
  for (const auto& ev : events)
    if (ev.name) names.insert(ev.name);
  for (const char* want : {"tuner_step", "model_update", "acq_score",
                           "build", "measure"})
    check(names.count(want) != 0, "span taxonomy", std::string("missing '") +
                                                       want + "'");
  if (support::env_flag("CITROEN_SANDBOX")) {
    check(names.count("sandbox_job") != 0, "span taxonomy",
          "missing 'sandbox_job'");
    check(names.count("worker_spawn") != 0, "span taxonomy",
          "missing 'worker_spawn'");
  }

  const std::string json = obs::trace_json(events);
  check(obs::json_well_formed(json, &err), "trace JSON well-formed", err);
}

void check_byte_identity(int budget) {
  const std::string off = run_curve(budget);

  obs::trace_force_enable(true);
  obs::metrics_force_enable(true);
  obs::drain_trace();
  const std::string on = run_curve(budget);
  obs::drain_trace();
  obs::trace_force_enable(false);
  obs::metrics_force_enable(false);

  check(off == on, "curves byte-identical with obs on vs off");
  std::printf("curve bytes (%zu):\n%s", off.size(), off.c_str());

  // The exporters themselves must emit valid documents.
  std::string err;
  check(obs::json_well_formed(obs::Registry::instance().json_summary(), &err),
        "metrics JSON summary well-formed", err);
}

void check_no_drops(int budget) {
  obs::trace_force_enable(true);
  obs::metrics_force_enable(true);
  obs::drain_trace();
  const std::uint64_t before = obs::trace_dropped();
  (void)run_curve(budget);
  const std::uint64_t after = obs::trace_dropped();
  check(after == before, "no events dropped under the default sink cap",
        "dropped " + std::to_string(after - before));
  // The drop counter itself is part of the scrape surface: every
  // Prometheus export carries it, so dashboards can alert on loss.
  const std::string prom = obs::Registry::instance().prometheus_text();
  check(prom.find("citroen_trace_dropped_total") != std::string::npos,
        "prometheus export carries citroen_trace_dropped_total");
  obs::drain_trace();
  obs::trace_force_enable(false);
  obs::metrics_force_enable(false);
}

// ---- live fleet mode (--live) --------------------------------------------

int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in in{};
  in.sin_family = AF_INET;
  in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  in.sin_port = 0;
  socklen_t len = sizeof(in);
  int port = -1;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&in), sizeof(in)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&in), &len) == 0)
    port = ntohs(in.sin_port);
  ::close(fd);
  return port;
}

std::string http_get_metrics(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in in{};
  in.sin_family = AF_INET;
  in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  in.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&in), sizeof(in)) != 0) {
    ::close(fd);
    return "";
  }
  const char req[] = "GET /metrics HTTP/1.0\r\nHost: citroend\r\n\r\n";
  (void)!::write(fd, req, sizeof(req) - 1);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

/// "name{...} 42\n" -> 42; -1 when the family child is absent.
long long prom_value(const std::string& prom, const std::string& wire) {
  const auto pos = prom.find("\n" + wire + " ");
  if (pos == std::string::npos) return -1;
  return std::atoll(prom.c_str() + pos + 1 + wire.size() + 1);
}

void write_artifact(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

void check_live(const std::string& artifact_dir, int budget) {
  namespace fs = std::filesystem;
  fs::create_directories(artifact_dir);

  // Force obs on BEFORE forking the peers: children inherit the flags,
  // so their spans come back as Result-frame appendices and land —
  // clock-rebased — in this process's sink.
  obs::trace_force_enable(true);
  obs::metrics_force_enable(true);
  obs::drain_trace();

  std::string err;
  const std::string p1 = artifact_dir + "/peer1.sock";
  const std::string p2 = artifact_dir + "/peer2.sock";
  const pid_t peer1 = dist::spawn_peer(p1, {}, &err);
  check(peer1 > 0, "peer 1 spawned", err);
  const pid_t peer2 = dist::spawn_peer(p2, {}, &err);
  check(peer2 > 0, "peer 2 spawned", err);

  serve::ServerConfig cfg;
  cfg.socket_path = artifact_dir + "/d.sock";
  cfg.state_dir = artifact_dir + "/state";
  cfg.tcp_port = pick_free_port();
  cfg.install_signal_handlers = false;
  cfg.idle_poll_ms = 5;
  cfg.drain_deadline_seconds = 10.0;
  cfg.peers = {"unix:" + p1, "unix:" + p2};
  serve::Server server(cfg);
  std::thread daemon([&server] { (void)server.run(); });
  for (int i = 0; i < 500 && !fs::exists(cfg.socket_path); ++i)
    ::usleep(10 * 1000);

  // Two tenants drive jobs through the daemon; remote evals are farmed
  // to the peers, whose spans flow back over the wire.
  for (const char* tenant : {"acme", "beta"}) {
    serve::ClientConfig cc;
    cc.socket_path = cfg.socket_path;
    cc.tenant = tenant;
    cc.jitter_seed = 99;
    serve::Client client(cc);
    serve::JobSpec spec;
    spec.program = "telecom_gsm";
    spec.machine = "arm";
    spec.method = "random";
    spec.budget = static_cast<std::uint32_t>(budget);
    spec.seed = tenant[0];
    const auto id = client.submit(spec, 60.0);
    check(id.has_value(),
          (std::string("tenant ") + tenant + " job admitted").c_str(),
          client.error());
    if (!id) continue;
    const auto out = client.wait_result(*id, 120.0);
    check(out.status == serve::ResultStatus::Ok,
          (std::string("tenant ") + tenant + " job completed").c_str(),
          out.error);
  }

  // Inspect snapshot -> status JSON artifact.
  serve::ClientConfig cc;
  cc.socket_path = cfg.socket_path;
  cc.tenant = "acme";
  cc.jitter_seed = 100;
  serve::Client probe(cc);
  const auto snap = probe.inspect();
  check(snap.has_value(), "inspect answered", probe.error());

  // Prometheus over the TCP listener (one scrape = one snapshot).
  const std::string resp = http_get_metrics(cfg.tcp_port);
  check(resp.find("HTTP/1.0 200 OK") != std::string::npos,
        "tcp /metrics scrape answered 200", resp.substr(0, 120));
  check(resp.find("citroen_trace_dropped_total") != std::string::npos,
        "scrape carries the trace-drop counter");

  if (snap) {
    std::string jerr;
    const std::string sj = serve::status_json(*snap);
    check(obs::json_well_formed(sj, &jerr), "status JSON well-formed", jerr);
    write_artifact(artifact_dir + "/live_status.json", sj);

    // The per-tenant labeled counters must agree between the Inspect
    // snapshot and the Prometheus scrape — the fleet has one truth.
    for (const char* tenant : {"acme", "beta"}) {
      const std::string wire =
          obs::Registry::wire_name("citroend_tenant_evals_total", "tenant",
                                   tenant);
      long long inspect_v = -1;
      for (const auto& [name, v] : snap->counters)
        if (name == wire) inspect_v = static_cast<long long>(v);
      const long long prom_v = prom_value(resp, wire);
      check(inspect_v > 0,
            (std::string("inspect counts evals for ") + tenant).c_str(),
            wire);
      check(inspect_v == prom_v,
            (std::string("inspect and scrape agree for ") + tenant).c_str(),
            std::to_string(inspect_v) + " vs " + std::to_string(prom_v));
    }
    check(!snap->peers.empty(), "inspect reports the peer pool");
  }

  server.request_stop();
  daemon.join();
  for (const pid_t pid : {peer1, peer2}) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  ::unlink(p1.c_str());
  ::unlink(p2.c_str());

  // Everything is quiescent: drain the merged trace and validate the
  // cross-process correlation.
  const auto events = obs::drain_trace();
  obs::trace_force_enable(false);
  obs::metrics_force_enable(false);

  check(!events.empty(), "live run produced a merged trace");
  std::string verr;
  check(obs::validate_span_nesting(events, &verr), "merged trace validates",
        verr);
  bool flow_s = false, flow_f = false, remote = false;
  const auto self = static_cast<std::uint32_t>(::getpid());
  for (const auto& ev : events) {
    if (ev.phase == 's') flow_s = true;
    if (ev.phase == 'f') flow_f = true;
    if (ev.pid != 0 && ev.pid != self) remote = true;
  }
  check(flow_s, "dispatch flow-start events present");
  check(flow_f, "remote flow-finish events present");
  check(remote, "merged trace contains remote-process spans");

  const std::string tj = obs::trace_json(events);
  check(obs::json_well_formed(tj, &verr), "merged trace JSON well-formed",
        verr);
  write_artifact(artifact_dir + "/live_trace.json", tj);

  const auto msnap = obs::Registry::instance().snapshot();
  write_artifact(artifact_dir + "/live_metrics.prom",
                 obs::Registry::prometheus_text(msnap));
}

void check_kill_path_flush() {
  const std::string dir = "obs_gate_session";
  const std::string trace_path = dir + "/killed_trace.json";
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: trace to a file, then die through the journal kill-switch —
    // the same _Exit(kExitKilled) path the crash-resume gate exercises.
    obs::trace_force_enable(true);
    obs::set_trace_path(trace_path);
    persist::SessionConfig cfg;
    cfg.dir = dir;
    cfg.kill_run = "obs_kill";
    cfg.kill_at = 1;
    persist::RunSession session(cfg, "obs_kill");
    OBS_SPAN("doomed_work", "gate");
    session.push("record-0");
    session.push("record-1");  // kill fires here; not reached past this
    ::_exit(1);                // kill-switch failed to fire
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  check(WIFEXITED(status) && WEXITSTATUS(status) == persist::kExitKilled,
        "killed run exited with kExitKilled");

  std::ifstream in(trace_path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  check(!doc.empty(), "killed run left a trace file");
  std::string err;
  check(obs::json_well_formed(doc, &err), "killed run's trace parses", err);
  // The open span is still visible as its 'B' event: flush-at-kill dumps
  // the rings as-is rather than waiting for scopes that will never close.
  check(doc.find("doomed_work") != std::string::npos,
        "killed run's trace contains the in-flight span");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const int budget = args.budget ? args.budget : 16;
  bool live = false;
  std::string artifact_dir = "obs_live_artifacts";
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--live") live = true;
    if (s == "--artifact-dir" && i + 1 < argc) artifact_dir = argv[++i];
  }
  bench::header("EXT — observability", "trace/metrics layer gate",
                "side-channel-only instrumentation: structured spans, "
                "parseable exports, byte-identical results");

  check_structure(budget);
  check_byte_identity(budget);
  check_no_drops(budget);
  check_kill_path_flush();
  if (live) check_live(artifact_dir, budget / 2 + 4);

  // With CITROEN_TRACE=<path> set, leave a real trace behind for the CI
  // artifact: one more traced run whose events stay buffered for the
  // atexit flush (the checks above drain everything they trace).
  if (!obs::trace_path().empty()) {
    obs::trace_force_enable(true);
    (void)run_curve(budget / 2 + 4);
  }

  std::printf("%s\n", g_failures == 0 ? "OBSERVABILITY GATE: PASS"
                                      : "OBSERVABILITY GATE: FAIL");
  return g_failures == 0 ? 0 : 1;
}
