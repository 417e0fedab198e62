#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <vector>

#include "dist/pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/run_session.hpp"
#include "persist/watchdog.hpp"
#include "sandbox/ipc.hpp"
#include "sim/prefix_cache.hpp"

namespace citroen::serve {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// One connected client. The fd stays blocking (reads go through the
/// poll-driven FrameReader; writes carry SO_SNDTIMEO so a stalled reader
/// surfaces as Error and the connection is dropped, never the daemon).
struct Server::Conn {
  explicit Conn(int fd_in) : fd(fd_in), reader(fd_in) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  sandbox::FrameReader reader;
  std::string tenant;
  bool hello_done = false;
  bool sniffed = false;  ///< first-bytes HTTP check already done
  bool dead = false;
  std::set<std::uint64_t> attached;  ///< job ids this client watches
};

namespace {
sim::PrefixCacheConfig cache_config_for(const ServerConfig& cfg) {
  sim::PrefixCacheConfig c;
  c.disk_dir = cfg.cache_dir;  // empty falls back to $CITROEN_CACHE_DIR
  return c;
}

std::vector<PeerSnap> snap_peers(const dist::WorkerPool& pool) {
  std::vector<PeerSnap> out;
  for (const auto& h : pool.peer_health()) {
    PeerSnap p;
    p.endpoint = h.endpoint;
    p.connected = h.connected;
    p.banned = h.banned;
    p.consecutive_failures = h.consecutive_failures;
    p.clock_offset_ns = h.clock_offset_ns;
    out.push_back(std::move(p));
  }
  return out;
}
}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      admission_(config_.quotas),
      scheduler_(config_.drr_quantum),
      cache_(std::make_shared<sim::PrefixCache>(cache_config_for(config_))) {
  std::string corpus_dir = config_.corpus_dir;
  if (corpus_dir.empty()) {
    const char* env = std::getenv("CITROEN_CORPUS");
    if (env) corpus_dir = env;
  }
  if (!corpus_dir.empty()) {
    try {
      // Non-blocking exclusive append: this event loop is the single
      // writer for its lifetime. If another writer already holds the
      // lock the corpus degrades to read-only lookups (stats().note says
      // so); if the directory is unusable the daemon runs corpus-less
      // rather than dying.
      corpus_ = std::make_shared<corpus::TransferCorpus>(
          corpus_dir, corpus::CorpusConfig{});
      if (!corpus_->stats().note.empty())
        std::fprintf(stderr, "[citroend] %s\n",
                     corpus_->stats().note.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[citroend] corpus %s disabled: %s\n",
                   corpus_dir.c_str(), e.what());
    }
  }
}

Server::~Server() { close_listeners(); }

bool Server::setup_listeners(std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(config_.state_dir, ec);
  if (ec) {
    *error = "state dir " + config_.state_dir + ": " + ec.message();
    return false;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path empty or too long for AF_UNIX: '" +
             config_.socket_path + "'";
    return false;
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (uds_fd_ < 0) {
    *error = errno_string("socket(AF_UNIX)");
    return false;
  }
  // A stale socket file from a SIGKILLed predecessor must not block the
  // restart path the crash-resume tests exercise.
  ::unlink(config_.socket_path.c_str());
  if (::bind(uds_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(uds_fd_, 64) != 0 || !set_nonblocking(uds_fd_)) {
    *error = errno_string(("bind/listen " + config_.socket_path).c_str());
    return false;
  }

  if (config_.tcp_port > 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      *error = errno_string("socket(AF_INET)");
      return false;
    }
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in in{};
    in.sin_family = AF_INET;
    in.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&in), sizeof(in)) !=
            0 ||
        ::listen(tcp_fd_, 64) != 0 || !set_nonblocking(tcp_fd_)) {
      *error = errno_string("bind/listen tcp");
      return false;
    }
  }
  return true;
}

void Server::close_listeners() {
  if (uds_fd_ >= 0) {
    ::close(uds_fd_);
    uds_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

void Server::resume_jobs() {
  std::error_code ec;
  std::vector<std::string> metas;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job_", 0) == 0 &&
        name.size() > 5 + 4 /* "job_" + ".meta" */ &&
        name.compare(name.size() - 5, 5, ".meta") == 0)
      metas.push_back(entry.path().string());
  }
  std::sort(metas.begin(), metas.end());  // deterministic resume order

  for (const auto& path : metas) {
    JobRecord rec;
    std::string note;
    if (!load_job_record(path, &rec, &note)) {
      std::fprintf(stderr, "[citroend] skipping unreadable job meta: %s\n",
                   note.c_str());
      continue;
    }
    next_job_id_ = std::max(next_job_id_, rec.id + 1);
    const std::string tenant = rec.tenant;
    const JobSpec spec = rec.spec;
    std::unique_ptr<TuningJob> job;
    try {
      job = std::make_unique<TuningJob>(std::move(rec), config_.state_dir,
                                        /*resume=*/true, cache_,
                                        config_.fsync_every,
                                        config_.checkpoint_every,
                                        config_.peers, corpus_);
    } catch (const std::exception& e) {
      // Spec no longer constructible (e.g. version skew): keep the error
      // so a re-attaching client gets a Failed result, not UnknownJob.
      failed_[next_job_id_ - 1] = e.what();
      std::fprintf(stderr, "[citroend] job %s failed to resume: %s\n",
                   path.c_str(), e.what());
      continue;
    }
    const std::uint64_t id = job->id();
    const bool runnable = !job->terminal();
    jobs_[id] = std::move(job);
    if (runnable) {
      // No quota re-check: a previous incarnation admitted this job, and
      // refusing it now would drop durable work.
      admission_.recharge(tenant, spec);
      scheduler_.add(tenant, id);
    }
  }
}

void Server::accept_clients(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: drained the backlog
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.client_write_timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (config_.client_write_timeout_seconds - std::floor(
             config_.client_write_timeout_seconds)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    conns_.push_back(std::make_unique<Conn>(fd));
  }
}

bool Server::send(Conn& c, const std::string& payload) {
  if (c.dead) return false;
  if (sandbox::write_frame(c.fd, payload) != sandbox::IoStatus::Ok) {
    c.dead = true;
    return false;
  }
  return true;
}

void Server::send_result(Conn& c, const TuningJob& job) {
  ResultMsg r;
  r.job_id = job.id();
  r.status = job.state() == JobState::Cancelled ? ResultStatus::Cancelled
                                                : ResultStatus::Ok;
  r.curve = job.curve();
  send(c, encode(r));
}

void Server::broadcast_progress(const TuningJob& job) {
  ProgressMsg p;
  p.job_id = job.id();
  p.evals_done = job.evals_done();
  p.budget = job.budget();
  const std::string payload = encode(p);
  for (auto& c : conns_)
    if (!c->dead && c->attached.count(job.id())) send(*c, payload);
}

void Server::broadcast_result(const TuningJob& job) {
  for (auto& c : conns_)
    if (!c->dead && c->attached.count(job.id())) send_result(*c, job);
}

bool Server::handle_frame(Conn& c, const std::string& payload) {
  const auto type = static_cast<MsgType>(peek_type(payload));
  std::string err;

  if (!c.hello_done) {
    HelloMsg hello;
    if (type != MsgType::Hello || !decode(payload, &hello, &err)) {
      RejectMsg rej;
      rej.reason = RejectReason::BadRequest;
      rej.message = "expected Hello frame first" + (err.empty() ? "" : ": " + err);
      send(c, encode(rej));
      return false;
    }
    if (hello.version != kProtocolVersion) {
      RejectMsg rej;
      rej.reason = RejectReason::BadRequest;
      rej.message = "protocol version mismatch: client v" +
                    std::to_string(hello.version) + ", daemon v" +
                    std::to_string(kProtocolVersion);
      send(c, encode(rej));
      return false;
    }
    c.tenant = hello.tenant;
    c.hello_done = true;
    HelloOkMsg ok;
    ok.draining = draining_;
    ok.epoch = epoch_;
    return send(c, encode(ok));
  }

  switch (type) {
    case MsgType::Submit: {
      SubmitMsg m;
      if (!decode(payload, &m, &err)) break;
      if (m.spec.budget == 0) {
        RejectMsg rej;
        rej.reason = RejectReason::BadRequest;
        rej.message = "job budget must be positive";
        return send(c, encode(rej));
      }
      if (draining_) {
        RejectMsg rej;
        rej.reason = RejectReason::Draining;
        rej.message = "daemon is draining; resubmit after restart";
        send(c, encode(rej));
        return true;
      }
      if (auto rej = admission_.try_admit(c.tenant, m.spec)) {
        obs::flight_record("reject", 0, static_cast<std::uint64_t>(rej->reason),
                           reject_reason_name(rej->reason));
        return send(c, encode(*rej));
      }

      const std::uint64_t id = next_job_id_++;
      JobRecord rec;
      rec.id = id;
      rec.tenant = c.tenant;
      rec.spec = m.spec;
      std::unique_ptr<TuningJob> job;
      try {
        job = std::make_unique<TuningJob>(rec, config_.state_dir,
                                          /*resume=*/false, cache_,
                                          config_.fsync_every,
                                          config_.checkpoint_every,
                                          config_.peers, corpus_);
        // Durable BEFORE the Accept frame: once the client sees Accept,
        // the job survives any daemon crash. Saved from job->record()
        // because the constructor resolved the corpus advice into it —
        // a resumed job must replay the advice it started with.
        save_job_record(config_.state_dir, job->record());
      } catch (const std::exception& e) {
        admission_.release(c.tenant, m.spec);
        RejectMsg rej;
        rej.reason = RejectReason::BadRequest;
        rej.message = e.what();
        return send(c, encode(rej));
      }
      scheduler_.add(c.tenant, id);
      jobs_[id] = std::move(job);
      c.attached.insert(id);  // submitters stream progress automatically
      OBS_COUNTER_INC("citroend_jobs_accepted_total");
      obs::flight_record("job_accept", id, m.spec.budget, c.tenant);
      AcceptMsg acc;
      acc.job_id = id;
      return send(c, encode(acc));
    }

    case MsgType::Attach: {
      AttachMsg m;
      if (!decode(payload, &m, &err)) break;
      const auto it = jobs_.find(m.job_id);
      if (it == jobs_.end()) {
        const auto fit = failed_.find(m.job_id);
        if (fit != failed_.end()) {
          ResultMsg r;
          r.job_id = m.job_id;
          r.status = ResultStatus::Failed;
          r.error = fit->second;
          return send(c, encode(r));
        }
        RejectMsg rej;
        rej.reason = RejectReason::UnknownJob;
        rej.message = "no job with this id (wrong daemon or lost meta)";
        return send(c, encode(rej));
      }
      TuningJob& j = *it->second;
      StatusMsg st;
      st.job_id = j.id();
      st.state = j.state();
      st.evals_done = j.evals_done();
      st.budget = j.budget();
      if (!send(c, encode(st))) return false;
      if (j.terminal()) {
        send_result(c, j);
        return !c.dead;
      }
      c.attached.insert(m.job_id);
      return true;
    }

    case MsgType::Cancel: {
      CancelMsg m;
      if (!decode(payload, &m, &err)) break;
      const auto it = jobs_.find(m.job_id);
      if (it == jobs_.end()) {
        RejectMsg rej;
        rej.reason = RejectReason::UnknownJob;
        rej.message = "no job with this id";
        return send(c, encode(rej));
      }
      TuningJob& j = *it->second;
      if (!j.terminal()) {
        j.cancel(config_.state_dir);
        scheduler_.remove(j.id());
        admission_.release(j.record().tenant, j.record().spec);
        OBS_COUNTER_INC("citroend_jobs_cancelled_total");
        obs::flight_record("job_cancel", j.id(), j.evals_done(),
                           j.record().tenant);
        broadcast_result(j);
      }
      if (!c.attached.count(m.job_id)) send_result(c, j);
      return !c.dead;
    }

    case MsgType::Inspect: {
      InspectMsg m;
      if (!decode(payload, &m, &err)) break;
      return send(c, encode(build_inspect(m.include_flight)));
    }

    default:
      err = "unexpected " + std::string(msg_type_name(type));
      break;
  }

  RejectMsg rej;
  rej.reason = RejectReason::BadRequest;
  rej.message = err.empty() ? "malformed frame" : err;
  send(c, encode(rej));
  return false;  // a confused peer is dropped, like the worker pool does
}

bool Server::maybe_serve_http(Conn& c) {
  char peek[4] = {};
  const ssize_t n = ::recv(c.fd, peek, sizeof(peek), MSG_PEEK);
  if (n < 4 || std::memcmp(peek, "GET ", 4) != 0) return false;
  // A Prometheus scraper / curl, not a wire client. Drain the request
  // (loopback: it arrives in one segment) so the close is graceful,
  // answer with the metrics text from ONE registry snapshot, hang up.
  char sink[4096];
  ssize_t ignored = ::recv(c.fd, sink, sizeof(sink), 0);
  (void)ignored;
  const std::string body = obs::Registry::instance().prometheus_text();
  std::string resp =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n\r\n" + body;
  std::size_t off = 0;
  while (off < resp.size()) {
    const ssize_t w = ::write(c.fd, resp.data() + off, resp.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool Server::service_conn(Conn& c) {
  if (!c.hello_done && !c.sniffed) {
    c.sniffed = true;
    if (maybe_serve_http(c)) return false;  // served + close
  }
  for (;;) {
    std::string payload, err;
    switch (c.reader.read(&payload, /*timeout_seconds=*/0.0, &err)) {
      case sandbox::IoStatus::Ok:
        if (!handle_frame(c, payload)) return false;
        if (c.dead) return false;
        break;
      case sandbox::IoStatus::Timeout:
        return true;  // no complete frame buffered right now
      case sandbox::IoStatus::Eof:
        return false;
      case sandbox::IoStatus::Corrupt:
      case sandbox::IoStatus::Error:
        if (!err.empty())
          std::fprintf(stderr, "[citroend] dropping client: %s\n",
                       err.c_str());
        return false;
    }
  }
}

InspectOkMsg Server::build_inspect(bool include_flight) const {
  InspectOkMsg out;
  out.epoch = epoch_;
  out.draining = draining_;
  out.clients = conns_.size();

  // Tenant rows: union of admission charge, scheduler ring state and the
  // lifetime eval tally, keyed by tenant name.
  std::map<std::string, TenantSnap> tenants;
  for (const auto& u : admission_.usage_snapshot()) {
    TenantSnap& t = tenants[u.tenant];
    t.tenant = u.tenant;
    t.jobs_in_flight = static_cast<std::uint64_t>(u.jobs);
    t.evals_in_flight = u.evals;
    t.max_jobs = static_cast<std::uint64_t>(u.quota.max_jobs);
    t.max_evals = u.quota.max_evals;
  }
  for (const auto& s : scheduler_.ring_snapshot()) {
    TenantSnap& t = tenants[s.tenant];
    if (t.tenant.empty()) {
      t.tenant = s.tenant;
      const TenantQuota& q = admission_.quota_for(s.tenant);
      t.max_jobs = static_cast<std::uint64_t>(q.max_jobs);
      t.max_evals = q.max_evals;
    }
    t.drr_deficit = s.deficit;
    t.queued_jobs = s.queued_jobs;
  }
  for (const auto& [tenant, total] : tenant_evals_total_) {
    TenantSnap& t = tenants[tenant];
    if (t.tenant.empty()) {
      t.tenant = tenant;
      const TenantQuota& q = admission_.quota_for(tenant);
      t.max_jobs = static_cast<std::uint64_t>(q.max_jobs);
      t.max_evals = q.max_evals;
    }
    t.evals_total = total;
  }
  out.tenants.reserve(tenants.size());
  for (auto& [name, t] : tenants) out.tenants.push_back(std::move(t));

  for (const auto& [id, job] : jobs_) {
    JobSnap j;
    j.id = id;
    j.tenant = job->record().tenant;
    j.state = job->state();
    j.evals_done = job->evals_done();
    j.budget = job->budget();
    out.jobs.push_back(std::move(j));
  }

  const sim::PrefixCacheStats cs = cache_->stats();
  out.cache_builds = cs.builds;
  out.cache_full_hits = cs.full_hits;
  out.cache_prefix_hits = cs.prefix_hits;
  out.cache_disk_hits = cs.disk_hits;

  if (corpus_) {
    const corpus::CorpusStats st = corpus_->stats();
    out.corpus_entries = st.entries;
    out.corpus_lookups = st.lookups;
    out.corpus_hits = st.hits;
    out.corpus_writable = corpus_->writable();
  }

  // Every job stack is configured with the same endpoint list, so the
  // first live pool speaks for the fleet; with no job in flight the last
  // captured health (step_one keeps it fresh) still describes the peers.
  out.peers = last_peer_health_;
  for (const auto& [id, job] : jobs_) {
    const dist::WorkerPool* pool = job->worker_pool();
    if (!pool) continue;
    out.peers = snap_peers(*pool);
    break;
  }

  if (include_flight) {
    for (const obs::FlightEvent& ev : obs::flight_snapshot()) {
      FlightSnap f;
      f.seq = ev.seq;
      f.ts_ns = ev.ts_ns;
      f.kind = ev.kind;
      f.a = ev.a;
      f.b = ev.b;
      f.detail = ev.detail;
      out.flight.push_back(std::move(f));
    }
  }

  // One coherent metrics snapshot; labeled children travel under their
  // flattened wire names so `status --json` byte-agrees with a Prometheus
  // scrape of the same instant.
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  out.counters = snap.counters;
  for (const auto& lc : snap.labeled_counters)
    out.counters.emplace_back(
        obs::Registry::wire_name(lc.family, lc.label_key, lc.label_value),
        lc.value);
  std::sort(out.counters.begin(), out.counters.end());
  return out;
}

void Server::finish_job(TuningJob& job) {
  scheduler_.remove(job.id());
  admission_.release(job.record().tenant, job.record().spec);
  OBS_COUNTER_INC("citroend_jobs_completed_total");
  obs::flight_record("job_done", job.id(), job.evals_done(),
                     job.record().tenant);
  broadcast_result(job);
}

void Server::step_one() {
  const auto pick = scheduler_.pick();
  if (!pick) return;
  const auto it = jobs_.find(*pick);
  if (it == jobs_.end()) {  // defensive: scheduler/job-table desync
    scheduler_.remove(*pick);
    return;
  }
  TuningJob& job = *it->second;
  std::uint64_t cost = 0;
  try {
    cost = job.step();
  } catch (const std::exception& e) {
    // The evaluator stack blew up mid-run (e.g. sandbox circuit breaker).
    // Fail the job loudly; its journal stays on disk for post-mortem.
    std::fprintf(stderr, "[citroend] job %s failed: %s\n",
                 job_file_stem(job.id()).c_str(), e.what());
    scheduler_.remove(job.id());
    admission_.release(job.record().tenant, job.record().spec);
    OBS_COUNTER_INC("citroend_jobs_failed_total");
    obs::flight_record("job_fail", job.id(), job.evals_done(),
                       job.record().tenant);
    ResultMsg r;
    r.job_id = job.id();
    r.status = ResultStatus::Failed;
    r.error = e.what();
    const std::string payload = encode(r);
    for (auto& c : conns_)
      if (!c->dead && c->attached.count(job.id())) send(*c, payload);
    failed_[job.id()] = e.what();
    jobs_.erase(it);
    return;
  }
  scheduler_.charge(job.id(), cost);
  OBS_COUNTER_ADD("citroend_evals_total", cost);
  tenant_evals_total_[job.record().tenant] += cost;
  // Per-tenant breakdown as labeled children of one family (bypasses the
  // OBS_ macros, which cache their instrument in a per-site static).
  if (obs::metrics_enabled() && cost > 0)
    obs::Registry::instance()
        .counter("citroend_tenant_evals_total", "tenant", job.record().tenant)
        .add(cost);
  if (const dist::WorkerPool* pool = job.worker_pool())
    last_peer_health_ = snap_peers(*pool);
  if (job.terminal())
    finish_job(job);
  else
    broadcast_progress(job);
}

void Server::begin_drain(const char* why) {
  draining_ = true;
  drain_deadline_ =
      sandbox::monotonic_seconds() + config_.drain_deadline_seconds;
  OBS_COUNTER_INC("citroend_drains_total");
  OBS_INSTANT("serve_drain_begin", "serve");
  obs::flight_record("drain_begin", scheduler_.size(), 0, why);
  std::fprintf(stderr,
               "[citroend] draining (%s): %zu jobs in flight, deadline %.1fs\n",
               why, scheduler_.size(), config_.drain_deadline_seconds);
}

void Server::update_gauges() {
  OBS_GAUGE_SET("citroend_queue_depth", static_cast<double>(scheduler_.size()));
  OBS_GAUGE_SET("citroend_clients", static_cast<double>(conns_.size()));
  OBS_GAUGE_SET("citroend_active_tenants",
                static_cast<double>(scheduler_.active_tenants()));
}

int Server::run() {
  if (config_.install_signal_handlers)
    persist::Watchdog::instance().install_signal_handlers();
  std::signal(SIGPIPE, SIG_IGN);  // dead clients surface as EPIPE -> drop

  std::string error;
  if (!setup_listeners(&error)) {
    std::fprintf(stderr, "[citroend] setup failed: %s\n", error.c_str());
    return 1;
  }

  // Bump the durable daemon epoch so reconnecting clients can tell they
  // are talking to a restarted incarnation.
  const std::string epoch_path = config_.state_dir + "/daemon.meta";
  if (const auto blob = persist::read_checkpoint(epoch_path, nullptr)) {
    try {
      persist::Reader r(*blob);
      epoch_ = r.u64();
    } catch (const std::exception&) {
      epoch_ = 0;
    }
  }
  ++epoch_;
  {
    persist::Writer w;
    w.u64(epoch_);
    persist::write_checkpoint(epoch_path, w.data());
  }

  if (config_.resume) resume_jobs();
  std::fprintf(stderr,
               "[citroend] epoch %llu listening on %s (%zu jobs, %zu runnable)\n",
               static_cast<unsigned long long>(epoch_),
               config_.socket_path.c_str(), jobs_.size(), scheduler_.size());

  {
    OBS_SPAN("serve_loop", "serve");
    for (;;) {
      const bool stop =
          stop_.load(std::memory_order_relaxed) ||
          (config_.install_signal_handlers &&
           persist::Watchdog::instance().stop_requested());
      if (stop && !draining_) begin_drain("stop requested");
      if (draining_) {
        if (scheduler_.empty()) break;  // every job reached a terminal state
        if (sandbox::monotonic_seconds() >= drain_deadline_) {
          OBS_SPAN("serve_drain_checkpoint", "serve");
          for (auto& [id, job] : jobs_)
            if (!job->terminal()) job->checkpoint_for_drain();
          break;
        }
      }
      const bool have_work = !scheduler_.empty();

      std::vector<pollfd> fds;
      fds.reserve(2 + conns_.size());
      fds.push_back({uds_fd_, POLLIN, 0});
      if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
      const std::size_t conn_base = fds.size();
      for (const auto& c : conns_) fds.push_back({c->fd, POLLIN, 0});

      const int rc =
          ::poll(fds.data(), fds.size(), have_work ? 0 : config_.idle_poll_ms);
      if (rc < 0 && errno != EINTR) {
        std::fprintf(stderr, "[citroend] %s\n", errno_string("poll").c_str());
        break;
      }
      if (rc > 0) {
        if (fds[0].revents & POLLIN) accept_clients(uds_fd_);
        if (tcp_fd_ >= 0 && (fds[1].revents & POLLIN)) accept_clients(tcp_fd_);
        const std::size_t nconns = fds.size() - conn_base;
        for (std::size_t i = 0; i < nconns; ++i) {
          Conn& c = *conns_[i];
          if (fds[conn_base + i].revents & (POLLIN | POLLHUP | POLLERR))
            if (!service_conn(c)) c.dead = true;
        }
      }
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const auto& c) { return c->dead; }),
                   conns_.end());

      if (have_work) step_one();
      update_gauges();
    }
  }

  close_listeners();
  conns_.clear();
  const std::size_t resumable = scheduler_.size();
  std::fprintf(stderr, "[citroend] exit: %zu jobs checkpointed for resume\n",
               resumable);
  if (resumable > 0) obs::flight_dump(stderr);  // 75: triage what was cut off
  return resumable > 0 ? persist::kExitInterrupted : persist::kExitComplete;
}

}  // namespace citroen::serve
