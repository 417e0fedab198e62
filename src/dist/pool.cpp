#include "dist/pool.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/pass.hpp"
#include "sandbox/worker.hpp"
#include "support/backoff.hpp"
#include "support/env.hpp"

namespace citroen::dist {

namespace {

using sandbox::IoStatus;
using sandbox::monotonic_seconds;
using sim::FailureKind;

// A run can memoize at most a few hundred thousand distinct candidates;
// past this something is generating garbage, and the memo sheds its Ok
// entries rather than grow without bound.
constexpr std::size_t kMaxVerdicts = std::size_t{1} << 20;
// An idle socket is pinged after this long without traffic.
constexpr double kHeartbeatIntervalSeconds = 5.0;
// Restart delays are scaled by a uniform factor in [1 - j, 1 + j], so
// the pools one correlated failure hits (a poison candidate fanned out
// to every daemon job, one restarting peer) do not retry in lockstep.
constexpr double kBackoffJitter = 0.5;

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_seconds(double s) {
  if (s <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// Connect one endpoint: "unix:<path>" / bare path (contains '/') for
/// Unix sockets, "tcp:<ip>:<port>" / "<ip>:<port>" for IPv4 TCP.
int connect_endpoint(const std::string& endpoint) {
  std::string rest = endpoint;
  bool is_unix;
  if (rest.rfind("unix:", 0) == 0) {
    rest = rest.substr(5);
    is_unix = true;
  } else if (rest.rfind("tcp:", 0) == 0) {
    rest = rest.substr(4);
    is_unix = false;
  } else {
    is_unix = rest.find('/') != std::string::npos;
  }

  if (is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (rest.empty() || rest.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, rest.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  const auto colon = rest.rfind(':');
  if (colon == std::string::npos) return -1;
  const std::string host = rest.substr(0, colon);
  const int port = std::atoi(rest.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.empty() ? "127.0.0.1" : host.c_str(),
                  &addr.sin_addr) != 1)
    return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Close every fd >= 3 except `a` and `b`.
void close_fds_except(int a, int b) {
  unsigned first = 3;
  for (const int keep : {std::min(a, b), std::max(a, b)}) {
    const unsigned k = static_cast<unsigned>(keep);
    if (k > first) ::close_range(first, k - 1, 0);
    first = std::max(first, k + 1);
  }
  ::close_range(first, ~0U, 0);
}

std::string describe_signal(int sig) {
  const char* name = ::strsignal(sig);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "signal %d (%s)", sig,
                name ? name : "unknown");
  return buf;
}

/// Where a fork worker was when it died, e.g. "stage build, pass 'gvn'",
/// read from its shared progress cell.
std::string progress_site(const sandbox::ProgressCell* cell) {
  if (!cell) return "no progress cell";
  const sandbox::Progress p =
      sandbox::unpack_progress(cell->word.load(std::memory_order_relaxed));
  if (p.stage != sandbox::WorkerStage::Build)
    return std::string("stage ") + sandbox::worker_stage_name(p.stage);
  const auto& reg = passes::PassRegistry::instance();
  return "stage build, pass '" +
         (p.pass_id < reg.num_passes()
              ? reg.name_of(static_cast<passes::PassId>(p.pass_id))
              : std::string("?")) +
         "'";
}

/// Close a job's async span ('b'/'e' paired by job id).
void end_job_span(bool fork, std::uint64_t job_id) {
  if (obs::trace_enabled())
    obs::emit('e', fork ? "sandbox_job" : "dist_job", fork ? "sandbox" : "dist",
              job_id);
}

}  // namespace

std::vector<std::string> parse_peer_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    std::string item = csv.substr(start, end - start);
    // Trim surrounding whitespace.
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
      item.erase(item.begin());
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
      item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    start = end + 1;
  }
  return out;
}

ProgramSpec make_program_spec(const sim::ProgramEvaluator& base,
                              const std::string& machine,
                              std::uint64_t workload_seed) {
  ProgramSpec spec;
  spec.program = base.program_name();
  spec.machine = machine;
  spec.workload_seed = workload_seed;
  spec.max_instructions = base.exec_limits().max_instructions;
  spec.max_memory_bytes = base.exec_limits().max_memory_bytes;
  spec.max_call_depth = base.exec_limits().max_call_depth;
  return spec;
}

WorkerPool::WorkerPool(sim::ProgramEvaluator& base, PoolConfig config)
    : base_(base), config_(std::move(config)) {
  // A dead worker or peer must surface as EPIPE, never as a
  // process-killing SIGPIPE while a job frame is being written.
  ::signal(SIGPIPE, SIG_IGN);
  num_sockets_ = static_cast<int>(config_.peers.size());
  const auto sockets = config_.peers.size();
  const auto forks = std::clamp(config_.fork_workers, 0, 16);
  workers_.resize(sockets + static_cast<std::size_t>(forks));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    w.kind = i < sockets ? Kind::Socket : Kind::Fork;
    w.slot = static_cast<std::uint32_t>(i < sockets ? i : i - sockets);
    if (i < sockets) w.endpoint = config_.peers[i];
  }
  jitter_state_ = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                  reinterpret_cast<std::uintptr_t>(this);
}

WorkerPool::~WorkerPool() {
  // Closing the job pipe is a fork worker's shutdown signal (it _exits
  // at EOF). Close them all first so the workers exit in parallel.
  for (Worker& w : workers_) {
    if (w.job_fd >= 0) ::close(w.job_fd);
    w.job_fd = -1;
  }
  for (Worker& w : workers_) {
    for (int i = 0; w.kind == Kind::Fork && w.pid > 0 && i < 200; ++i) {
      int status = 0;  // ~2 s grace, then teardown's SIGKILL
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == w.pid || (got < 0 && errno == ECHILD))
        w.pid = 0;
      else
        sleep_seconds(0.01);
    }
    teardown(w);
  }
}

void WorkerPool::set_fault_injector(const sim::FaultInjector* injector) {
  injector_ = injector;
  base_.set_fault_injector(injector);
}

bool WorkerPool::degraded() const {
  return !workers_.empty() &&
         std::all_of(workers_.begin(), workers_.end(),
                     [](const Worker& w) { return w.banned; });
}

std::vector<WorkerPool::PeerHealth> WorkerPool::peer_health() const {
  std::vector<PeerHealth> out;
  for (const Worker& w : workers_)
    if (w.kind == Kind::Socket)
      out.push_back(
          {w.endpoint, w.live, w.banned, w.failures, w.clock_offset_ns});
  return out;
}

// ---- transports ------------------------------------------------------------

bool WorkerPool::start(Worker& w) const {
  return w.kind == Kind::Fork ? spawn(w) : connect(w);
}

bool WorkerPool::spawn(Worker& w) const {
  // The span's 'E' lands in the parent after fork; the child clears its
  // inherited copy of the 'B' in obs::reset_after_fork, so worker rings
  // never carry a dangling half-span.
  OBS_SPAN("worker_spawn", "sandbox");
  OBS_COUNTER_INC("citroen_sandbox_forks_total");
  int job_pipe[2] = {-1, -1};
  int result_pipe[2] = {-1, -1};
  if (::pipe(job_pipe) != 0) return false;
  if (::pipe(result_pipe) != 0) {
    ::close(job_pipe[0]);
    ::close(job_pipe[1]);
    return false;
  }
  if (!w.cell) w.cell = sandbox::map_progress_cell();  // null tolerated
  if (w.cell) w.cell->word.store(0, std::memory_order_relaxed);

  // Forked children inherit stdio buffers; flush so nothing queued here
  // can ever be replayed from a worker.
  std::fflush(stdout);
  std::fflush(stderr);
  // fork() here happens while the process is multithreaded (tuner pool
  // threads, the watchdog), so POSIX only guarantees async-signal-safe
  // calls in the child. We lean on glibc, whose fork() quiesces the
  // allocator via internal atfork handlers, making malloc in the child
  // safe even if a pool thread held an arena lock at fork time. The
  // child must still never touch any *application* lock it did not fork
  // quiesced: worker_serve detaches the shared prefix cache and thread
  // pool first thing, and everything else it uses (its FrameReader, its
  // private evaluator copy, /proc reads) is process-local. On a libc
  // without fork-safe malloc, spawn workers before starting the pool.
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child. Keep stdio and our own two pipe ends, drop every other fd.
    // A worker holding another worker's job pipe -- a sibling's, or one
    // of another pool's in the same process -- would keep that worker
    // from ever reading EOF, so its pool's shutdown would wait out the
    // grace period and then SIGKILL it.
    close_fds_except(job_pipe[0], result_pipe[1]);
    sandbox::worker_serve(base_, job_pipe[0], result_pipe[1], w.cell,
                          sandbox::WorkerLimits{});
  }
  ::close(job_pipe[0]);
  ::close(result_pipe[1]);
  if (pid < 0) {
    ::close(job_pipe[1]);
    ::close(result_pipe[0]);
    return false;
  }
  w.pid = pid;
  w.job_fd = job_pipe[1];
  w.fd = result_pipe[0];
  w.reader = std::make_unique<sandbox::FrameReader>(w.fd);
  w.live = true;
  ++stats_.forks;
  return true;
}

bool WorkerPool::connect(Worker& w) const {
  ++stats_.reconnect_attempts;
  OBS_COUNTER_INC("citroen_dist_reconnect_attempts_total");
  const double deadline = monotonic_seconds() + config_.connect_timeout_seconds;
  w.fd = connect_endpoint(w.endpoint);
  if (w.fd < 0) return false;
  w.reader = std::make_unique<sandbox::FrameReader>(w.fd);

  const std::uint64_t t0_ns = monotonic_ns();
  const std::string hello =
      tag_message(PeerMsg::Hello, encode_hello(config_.spec, t0_ns));
  std::string payload;
  if (sandbox::write_frame(w.fd, hello) != IoStatus::Ok ||
      w.reader->read(&payload, std::max(0.0, deadline - monotonic_seconds())) !=
          IoStatus::Ok)
    return false;
  const std::uint64_t t1_ns = monotonic_ns();
  PeerMsg tag;
  std::string_view body;
  std::uint64_t pid = 0, fingerprint = 0, peer_now_ns = 0;
  // HelloErr, fingerprint divergence, or plain confusion: this peer would
  // not produce bit-identical results — never use it.
  if (!untag_message(payload, &tag, &body) || tag != PeerMsg::HelloOk ||
      !decode_hello_ok(body, &pid, &fingerprint, &peer_now_ns) ||
      fingerprint != evaluator_fingerprint(base_))
    return false;
  w.pid = static_cast<pid_t>(pid);
  // Midpoint clock-offset estimate: the peer stamped its HelloOk
  // somewhere inside our [t0, t1] round trip, so (remote − local) ≈
  // peer_ts − (t0+t1)/2, off by at most half the RTT. Re-measured on
  // every reconnect, so peer restarts and clock steps heal themselves.
  w.clock_offset_ns = static_cast<std::int64_t>(peer_now_ns) -
                      static_cast<std::int64_t>(t0_ns / 2 + t1_ns / 2);
  w.live = true;
  w.last_activity = monotonic_seconds();
  ++stats_.connects;
  OBS_COUNTER_INC("citroen_dist_connects_total");
  publish_peer_metrics(w);
  return true;
}

void WorkerPool::teardown(Worker& w) const {
  if (w.kind == Kind::Fork && w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = 0;
  }
  if (w.fd >= 0) ::close(w.fd);
  if (w.job_fd >= 0) ::close(w.job_fd);
  w.fd = w.job_fd = -1;
  w.reader.reset();
  if (w.cell) sandbox::unmap_progress_cell(w.cell);
  w.cell = nullptr;
  w.live = false;
  w.awaiting_pong = false;
}

// ---- failure policy --------------------------------------------------------

void WorkerPool::fail(Worker& w, FailureKind kind,
                      const std::string& extra) const {
  if (w.kind == Kind::Fork)
    blame_fork_death(w, kind == FailureKind::WorkerTimeout, extra);
  else
    count_socket_failure(w, kind);
  teardown(w);
  if (++w.failures >= config_.breaker_threshold) return ban(w);
  const double delay = support::respawn_backoff(
      w.failures, config_.backoff_seconds, config_.backoff_max_seconds,
      kBackoffJitter, &jitter_state_);
  ++stats_.backoffs;
  if (w.kind == Kind::Socket) {
    // Reconnect lazily, once the gate has passed and a job is queued for
    // this socket: redialling a dead peer in a loop only burns its
    // breaker.
    OBS_COUNTER_INC("citroen_dist_backoffs_total");
    w.next_attempt = monotonic_seconds() + delay;
    publish_peer_metrics(w);
    return;
  }
  // A fork worker is respawned at once, so the next job finds it ready;
  // a failed spawn is retried by the dispatch loop's start pass.
  sleep_seconds(delay);
  if (spawn(w)) ++stats_.respawns;
}

void WorkerPool::blame_fork_death(Worker& w, bool timed_out,
                                  const std::string& extra) const {
  if (w.pid <= 0) return;  // never spawned: nothing died
  // Corrupt-stream paths reach here while the worker may still be alive
  // (a garbled result stream is not proof of death), so kill before the
  // blocking reap. Against a worker that already exited the signal lands
  // on a zombie — a no-op — and the status still reports the real cause.
  ::kill(w.pid, SIGKILL);
  int status = 0;
  if (::waitpid(w.pid, &status, 0) < 0) status = 0;
  w.pid = 0;

  FailureKind kind = FailureKind::WorkerCrash;
  std::string why;
  const std::string site = progress_site(w.cell);
  if (timed_out) {
    kind = FailureKind::WorkerTimeout;
    why = "sandbox: exceeded " +
          std::to_string(config_.job_wall_timeout_seconds) +
          "s wall deadline (" + site + ")";
  } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGXCPU) {
    kind = FailureKind::WorkerTimeout;
    why = "sandbox: exceeded per-job CPU budget (" + site + ")";
  } else if (WIFSIGNALED(status)) {
    why = "sandbox: worker killed by " + describe_signal(WTERMSIG(status)) +
          " (" + site + ")";
  } else if (WIFEXITED(status) &&
             WEXITSTATUS(status) != sandbox::kWorkerExitClean) {
    why = "sandbox: worker exited with status " +
          std::to_string(WEXITSTATUS(status)) + " (" + site + ")";
  } else {
    why = "sandbox: worker vanished mid-job (" + site + ")";
  }
  if (!extra.empty()) why += " [" + extra + "]";

  // Crash signatures are dynamic strings, so intern() them; the set is
  // bounded by (stage, pass, cause) combinations, not by death count.
  if (obs::trace_enabled())
    obs::emit('I', "worker_death", "sandbox", 0, nullptr, 0,
              obs::intern(why));
  OBS_COUNTER_INC("citroen_sandbox_worker_deaths_total");
  if (w.job < 0) return;  // died idle: nobody to blame

  end_job_span(true, w.job_id);
  // A lethal candidate is lethal for both job kinds, hence `measured`.
  remember(jobs_[static_cast<std::size_t>(w.job)].sig,
           {kind, true, std::move(why)});
  ++(kind == FailureKind::WorkerTimeout ? stats_.worker_timeouts
                                        : stats_.worker_crashes);
  w.job = -1;
}

void WorkerPool::count_socket_failure(Worker& w, FailureKind kind) const {
  ++(kind == FailureKind::PeerTimeout    ? stats_.peer_timeout
     : kind == FailureKind::PeerProtocol ? stats_.peer_protocol
                                         : stats_.peer_lost);
  const char* label = sim::failure_kind_name(kind);
  OBS_COUNTER_INC("citroen_dist_peer_deaths_total");
  if (obs::trace_enabled())
    obs::emit('I', "dist_peer_death", "dist", 0, "kind",
              static_cast<std::uint64_t>(kind), label);
  obs::flight_record("peer_death", w.slot, static_cast<std::uint64_t>(kind),
                     label);
  if (w.job < 0) return;

  // Never blamed: the peer's failure says nothing about the candidate.
  end_job_span(false, w.job_id);
  Job& job = jobs_[static_cast<std::size_t>(w.job)];
  queue_.push_back(static_cast<std::size_t>(w.job));
  w.job = -1;
  if (++job.socket_attempts < config_.max_attempts_per_job) {
    ++stats_.reassigned;
    OBS_INSTANT_ARG("dist_reassign", "dist", "attempt", job.socket_attempts);
    OBS_COUNTER_INC("citroen_dist_reassigns_total");
  }
}

void WorkerPool::ban(Worker& w) const {
  teardown(w);
  w.banned = true;
  ++stats_.bans;
  const bool fork = w.kind == Kind::Fork;
  if (!fork) {
    OBS_INSTANT("dist_peer_banned", "dist");
    OBS_COUNTER_INC("citroen_dist_bans_total");
    obs::flight_record("peer_banned", w.slot,
                       static_cast<std::uint64_t>(w.failures));
    publish_peer_metrics(w);
  }
  for (const Worker& o : workers_)
    if (o.kind == w.kind && !o.banned) return;
  // That was the last worker of its transport: it is out for the run.
  if (fork) {
    ++stats_.breaker_trips;
    if (obs::trace_enabled())
      obs::emit('I', "breaker_trip", "sandbox", 0, nullptr, 0,
                "every fork worker banned");
    OBS_COUNTER_INC("citroen_sandbox_breaker_trips_total");
    std::fprintf(stderr,
                 "[sandbox] circuit breaker tripped on '%s': degrading to "
                 "in-process evaluation (uncontained)\n",
                 base_.program_name().c_str());
  } else {
    ++stats_.brownouts;
    obs::flight_record("pool_brownout", 0, 0, "every peer banned");
    OBS_INSTANT("dist_brownout", "dist");
    OBS_COUNTER_INC("citroen_dist_brownouts_total");
    OBS_GAUGE_SET("citroen_dist_degraded", 1);
    std::fprintf(stderr,
                 "citroen-dist: pool brownout (every peer banned); "
                 "degrading to the local evaluation stack\n");
  }
}

void WorkerPool::publish_peer_metrics(const Worker& w) const {
  if (!obs::metrics_enabled()) return;
  // One labeled family per quantity (peer="<index>"), so this hits the
  // registry directly instead of the static-caching OBS macros.
  auto& reg = obs::Registry::instance();
  const std::string idx = std::to_string(w.slot);
  reg.gauge("citroen_dist_peer_connected", "peer", idx).set(w.live ? 1 : 0);
  reg.gauge("citroen_dist_peer_banned", "peer", idx).set(w.banned ? 1 : 0);
  reg.gauge("citroen_dist_peer_consecutive_failures", "peer", idx)
      .set(static_cast<double>(w.failures));
  reg.gauge("citroen_dist_peers_banned")
      .set(static_cast<double>(std::count_if(
          workers_.begin(), workers_.end(), [](const Worker& o) {
            return o.kind == Kind::Socket && o.banned;
          })));
}

// ---- dispatch --------------------------------------------------------------

bool WorkerPool::takes(const Worker& w, const Job& job) const {
  if (w.banned) return false;
  return w.kind == Kind::Fork ||
         (sockets_ && job.socket_attempts < config_.max_attempts_per_job);
}

void WorkerPool::dispatch(Worker& w, std::size_t job_index) const {
  const bool fork = w.kind == Kind::Fork;
  sandbox::SandboxJob job;
  job.id = next_job_id_++;
  job.kind = measure_ ? sandbox::JobKind::Evaluate : sandbox::JobKind::Compile;
  if (fork && injector_) {
    // Fork workers re-derive real-fault decisions from the plan, purely.
    const sim::FaultPlan& plan = injector_->plan();
    job.has_plan =
        plan.segv_rate > 0 || plan.oom_rate > 0 || plan.spin_rate > 0;
    if (job.has_plan) job.plan = plan;
  }
  job.assignment = *jobs_[job_index].seqs;
  std::string frame = sandbox::encode_job(job);
  if (!fork) frame = tag_message(PeerMsg::Job, frame);

  // In flight *before* the write: a failed write then flows through
  // fail(), so a job never silently vanishes from the batch.
  ++stats_.jobs_dispatched;
  w.job = static_cast<std::ptrdiff_t>(job_index);
  w.job_id = job.id;
  w.last_activity = monotonic_seconds();
  w.deadline = config_.job_wall_timeout_seconds > 0
                   ? w.last_activity + config_.job_wall_timeout_seconds
                   : 0;
  // Async spans: a job's lifetime spans polls and belongs to no one
  // thread's stack.
  if (fork) {
    OBS_COUNTER_INC("citroen_sandbox_jobs_dispatched_total");
    if (obs::trace_enabled())
      obs::emit('b', "sandbox_job", "sandbox", job.id, "worker", w.slot);
  } else {
    OBS_COUNTER_INC("citroen_dist_jobs_total");
    if (obs::trace_enabled()) {
      obs::emit('b', "dist_job", "dist", job.id, "peer", w.slot);
      // Flow start: the peer emits the matching 'f' inside its peer_job
      // span (same id), linking dispatch to remote execution in the
      // merged trace.
      obs::emit('s', "dist_job", "dist", job.id);
    }
  }
  // TEST HOOK: an external SIGKILL mid-job. The worker is stopped before
  // the job reaches it, so however fast the job is, the worker cannot
  // finish it and reply before the kill lands.
  const bool kill_hook =
      config_.kill_job_id >= 0 &&
      job.id == static_cast<std::uint64_t>(config_.kill_job_id) && w.pid > 0;
  if (kill_hook) ::kill(w.pid, SIGSTOP);
  const IoStatus wrote = sandbox::write_frame(fork ? w.job_fd : w.fd, frame);
  if (kill_hook) ::kill(w.pid, SIGKILL);
  if (wrote != IoStatus::Ok) {
    if (fork) {
      // The worker died idle, after its previous job: nothing it ran
      // provoked this, so the job goes back on the queue unblamed.
      end_job_span(true, job.id);
      queue_.push_front(job_index);
      w.job = -1;
    }
    return fail(w, fork ? FailureKind::WorkerCrash : FailureKind::PeerLost,
                "job dispatch failed");
  }
}

void WorkerPool::service(Worker& w) const {
  const bool fork = w.kind == Kind::Fork;
  do {
    std::string payload, err;
    const IoStatus st = w.reader->read(&payload, /*timeout_seconds=*/0.0, &err);
    if (st == IoStatus::Timeout) return;  // partial frame; keep polling
    if (st != IoStatus::Ok)
      return fail(w,
                  fork                        ? FailureKind::WorkerCrash
                  : st == IoStatus::Corrupt ? FailureKind::PeerProtocol
                                              : FailureKind::PeerLost,
                  st == IoStatus::Corrupt ? "corrupt result stream" : "");
    std::string_view body = payload;
    if (!fork) {
      PeerMsg tag;
      std::uint64_t nonce = 0;
      if (!untag_message(payload, &tag, &body) ||
          (tag != PeerMsg::Result &&
           (tag != PeerMsg::Pong || !decode_nonce(body, &nonce))))
        return fail(w, FailureKind::PeerProtocol, "");
      if (tag == PeerMsg::Pong) {
        w.awaiting_pong = false;
        w.last_activity = monotonic_seconds();
        continue;
      }
    }
    sandbox::SandboxResult res;
    // A garbled payload or a stale/foreign job id: the stream is out of
    // sync (and a fork worker's candidate provoked it).
    if (w.job < 0 || !sandbox::decode_result(std::string(body), &res, &err) ||
        res.id != w.job_id)
      return fail(w,
                  fork ? FailureKind::WorkerCrash : FailureKind::PeerProtocol,
                  "malformed result (" +
                      (err.empty() ? std::string("job id mismatch") : err) +
                      ")");
    finish(w, std::move(res));
  } while (w.live && w.reader->pending());
}

void WorkerPool::finish(Worker& w, sandbox::SandboxResult res) const {
  const bool fork = w.kind == Kind::Fork;
  // Splice the worker's piggybacked trace events and counter deltas into
  // our sink and registry; a peer's timestamps are re-based by its
  // handshake clock offset (a fork worker shares our clock).
  sandbox::ingest_result_obs(res, static_cast<std::uint32_t>(w.pid),
                             fork ? 0 : w.clock_offset_ns);
  end_job_span(fork, w.job_id);
  const auto j = static_cast<std::size_t>(w.job);
  w.job = -1;
  w.failures = 0;
  w.last_activity = monotonic_seconds();
  if (res.status == sandbox::ResultStatus::Ok) {
    if (res.pure.built && !res.pure.runs.empty())
      base_.install_measure_memo(res.pure.binary_hash,
                                 std::move(res.pure.runs));
    remember(jobs_[j].sig, {FailureKind::None, measure_, ""});
    ++stats_.jobs_ok;
  } else if (fork) {
    remember(jobs_[j].sig,
             {FailureKind::WorkerOOM, true,
              "sandbox: evaluation exhausted the worker memory cap"});
    ++stats_.jobs_oom;
  } else {
    // A socket result other than Ok leaves the candidate unvetted: the
    // next rung, a fork worker or the in-process path, decides it.
    jobs_[j].socket_attempts = config_.max_attempts_per_job;
    queue_.push_back(j);
  }
}

// ---- verdicts --------------------------------------------------------------

void WorkerPool::remember(std::uint64_t sig, Verdict v) const {
  if (verdicts_.size() >= kMaxVerdicts && verdicts_.count(sig) == 0) {
    // Shed only Ok entries. Fatal verdicts are the containment record
    // itself — after a purge plus a breaker trip, a forgotten lethal
    // candidate would reach the in-process path uncontained. They are
    // bounded by the number of genuinely lethal candidates.
    std::erase_if(verdicts_, [](const auto& kv) {
      return kv.second.kind == FailureKind::None;
    });
  }
  verdicts_[sig] = std::move(v);
}

const WorkerPool::Verdict* WorkerPool::find_verdict(std::uint64_t sig,
                                                    bool need_measured) const {
  const auto it = verdicts_.find(sig);
  if (it == verdicts_.end()) return nullptr;
  if (it->second.kind == FailureKind::None && need_measured &&
      !it->second.measured)
    return nullptr;  // vetted compile-only; evaluate needs the runs memo
  return &it->second;
}

const WorkerPool::Verdict* WorkerPool::vet(const sim::SequenceAssignment& seqs,
                                           bool with_measure) const {
  const std::uint64_t sig = sim::assignment_signature(seqs);
  if (const Verdict* v = find_verdict(sig, with_measure)) return v;
  run_jobs({&seqs, 1}, with_measure);
  return find_verdict(sig, with_measure);
}

void WorkerPool::run_jobs(std::span<const sim::SequenceAssignment> batch,
                          bool with_measure) const {
  measure_ = with_measure;
  // Compile-only vetting is cheap and stays off the network; peers
  // ignore fault plans, so an installed injector keeps jobs local too.
  sockets_ = with_measure && !injector_;
  if (std::none_of(workers_.begin(), workers_.end(), [&](const Worker& w) {
        return !w.banned && (w.kind == Kind::Fork || sockets_);
      }))
    return;

  jobs_.clear();
  queue_.clear();
  std::unordered_set<std::uint64_t> queued;
  for (const auto& seqs : batch) {
    const std::uint64_t sig = sim::assignment_signature(seqs);
    if (find_verdict(sig, with_measure) || !queued.insert(sig).second)
      continue;
    jobs_.push_back({&seqs, sig, 0});
    queue_.push_back(jobs_.size() - 1);
  }
  if (jobs_.empty()) return;
  std::optional<obs::Span> batch_span;
  if (sockets_ && num_sockets_ > 0) batch_span.emplace("dist_batch", "dist");

  const auto in_flight = [](const Worker& w) {
    return w.job >= 0 || w.awaiting_pong;
  };
  const auto any_in_flight = [&] {
    return std::any_of(workers_.begin(), workers_.end(), in_flight);
  };
  const auto first_job_for = [&](const Worker& w) {
    return std::find_if(queue_.begin(), queue_.end(),
                        [&](std::size_t j) { return takes(w, jobs_[j]); });
  };

  while (!queue_.empty() || any_in_flight()) {
    // 1. A queued job no worker can take any more falls to the
    //    in-process path.
    std::erase_if(queue_, [&](std::size_t j) {
      const Job& job = jobs_[j];
      if (std::any_of(workers_.begin(), workers_.end(),
                      [&](const Worker& w) { return takes(w, job); }))
        return false;
      ++stats_.local_fallback;
      if (job.socket_attempts >= config_.max_attempts_per_job)
        OBS_COUNTER_INC("citroen_dist_local_fallback_total");
      return true;
    });

    // 2. Start the workers that are due and have a job waiting: a pool's
    //    first fork and first connect happen here.
    double now = monotonic_seconds();
    for (Worker& w : workers_)
      if (!w.live && !w.banned && now >= w.next_attempt &&
          first_job_for(w) != queue_.end() && !start(w))
        fail(w, w.kind == Kind::Fork ? FailureKind::WorkerCrash
                                     : FailureKind::PeerLost,
             "start failed");

    // 3. Dispatch: each free worker, in list order (sockets first), takes
    //    the first queued job it may run.
    for (Worker& w : workers_) {
      if (!w.live || in_flight(w)) continue;
      const auto it = first_job_for(w);
      if (it == queue_.end()) continue;
      const std::size_t j = *it;
      queue_.erase(it);
      dispatch(w, j);
    }

    // 4. Ping sockets that have been idle too long.
    now = monotonic_seconds();
    for (Worker& w : workers_) {
      if (w.kind != Kind::Socket || !w.live || in_flight(w) ||
          now - w.last_activity < kHeartbeatIntervalSeconds)
        continue;
      OBS_COUNTER_INC("citroen_dist_heartbeats_total");
      const std::string ping =
          tag_message(PeerMsg::Ping, encode_nonce(++ping_nonce_));
      if (sandbox::write_frame(w.fd, ping) != IoStatus::Ok) {
        fail(w, FailureKind::PeerLost, "");
        continue;
      }
      w.awaiting_pong = true;
      w.pong_deadline = now + config_.heartbeat_timeout_seconds;
    }

    // 5. Nothing in flight: sleep to the earliest restart gate, or go
    //    straight back to step 1 when no worker is left to wait for.
    if (!any_in_flight()) {
      if (queue_.empty()) break;
      double gate = now + 0.1;
      bool waiting = false;
      for (const Worker& w : workers_) {
        if (w.live || w.banned) continue;
        waiting = true;
        gate = std::min(gate, w.next_attempt);
      }
      if (waiting) sleep_seconds(std::clamp(gate - now, 0.001, 0.1));
      continue;
    }

    // 6. Wait for results and pongs, up to the earliest deadline.
    std::vector<pollfd> fds;
    std::vector<Worker*> owners;
    double wake = now + 0.25;
    for (Worker& w : workers_) {
      if (!w.live || !in_flight(w)) continue;
      fds.push_back({w.fd, POLLIN, 0});
      owners.push_back(&w);
      if (w.job >= 0 && w.deadline > 0) wake = std::min(wake, w.deadline);
      if (w.awaiting_pong) wake = std::min(wake, w.pong_deadline);
    }
    const int rc = ::poll(
        fds.data(), fds.size(),
        std::max(1, static_cast<int>((wake - monotonic_seconds()) * 1e3)));
    if (rc < 0 && errno != EINTR) {
      // Nothing can be waited on: every job, unblamed, goes in-process.
      for (Worker& w : workers_) {
        if (w.job >= 0) {
          end_job_span(w.kind == Kind::Fork, w.job_id);
          queue_.push_back(static_cast<std::size_t>(w.job));
          w.job = -1;
        }
        if (!w.banned) ban(w);
      }
      continue;
    }
    for (std::size_t k = 0; rc > 0 && k < fds.size(); ++k)
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) && owners[k]->live)
        service(*owners[k]);

    // 7. Enforce job and pong deadlines.
    now = monotonic_seconds();
    for (Worker& w : workers_) {
      if (!w.live) continue;
      if (w.job >= 0 && w.deadline > 0 && now >= w.deadline)
        fail(w,
             w.kind == Kind::Fork ? FailureKind::WorkerTimeout
                                  : FailureKind::PeerTimeout,
             "");
      else if (w.awaiting_pong && now >= w.pong_deadline)
        fail(w, FailureKind::PeerTimeout, "");
    }
  }
}

// ---- the Evaluator surface -------------------------------------------------

sim::CompileOutcome WorkerPool::compile(const sim::SequenceAssignment& seqs,
                                        bool keep_program) const {
  const Verdict* v = vet(seqs, /*with_measure=*/false);
  if (!v || v->kind == FailureKind::None)
    return base_.compile(seqs, keep_program);
  sim::CompileOutcome out;
  out.valid = false;
  out.failure = v->kind;
  out.why_invalid = v->why;
  out.transient = false;
  return out;
}

sim::EvalOutcome WorkerPool::evaluate(const sim::SequenceAssignment& seqs) {
  const Verdict* v = vet(seqs, /*with_measure=*/true);
  if (!v || v->kind == FailureKind::None) return base_.evaluate(seqs);
  sim::EvalOutcome out;
  out.valid = false;
  out.failure = v->kind;
  out.why_invalid = v->why;
  out.transient = false;
  out.attempts = 1;
  return out;
}

void WorkerPool::prefetch(std::span<const sim::SequenceAssignment> batch,
                          bool with_measure) {
  run_jobs(batch, with_measure);
  // Forward only survivors: a candidate that killed its worker must never
  // touch the in-process pipeline. Verdict-less candidates (nothing could
  // vet them) pass through — uncontained beats unevaluated.
  std::vector<sim::SequenceAssignment> survivors;
  survivors.reserve(batch.size());
  for (const auto& seqs : batch) {
    const Verdict* v =
        find_verdict(sim::assignment_signature(seqs), with_measure);
    if (!v || v->kind == FailureKind::None) survivors.push_back(seqs);
  }
  base_.prefetch(survivors, with_measure);
}

std::unique_ptr<WorkerPool> make_worker_pool(
    sim::ProgramEvaluator& base, const std::string& machine,
    const std::vector<std::string>& peers) {
  PoolConfig cfg;
  if (support::env_flag("CITROEN_SANDBOX"))
    cfg.fork_workers =
        std::clamp(support::env_int("CITROEN_SANDBOX_WORKERS", 2), 1, 16);
  cfg.peers = peers;
  if (const char* env = std::getenv("CITROEN_PEERS"); env && peers.empty())
    cfg.peers = parse_peer_list(env);
  if (cfg.fork_workers <= 0 && cfg.peers.empty()) return nullptr;
  cfg.spec = make_program_spec(base, machine);
  return std::make_unique<WorkerPool>(base, std::move(cfg));
}

}  // namespace citroen::dist
