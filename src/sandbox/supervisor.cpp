#include "sandbox/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/pass.hpp"
#include "support/backoff.hpp"
#include "support/env.hpp"

namespace citroen::sandbox {

namespace {

// A run can memoize at most a few hundred thousand distinct candidates;
// past this something is generating garbage and we shed the memo rather
// than grow without bound.
constexpr std::size_t kMaxVerdicts = std::size_t{1} << 20;

int resolve_worker_count(int requested) {
  int n = requested > 0 ? requested
                        : support::env_int("CITROEN_SANDBOX_WORKERS", 2);
  return std::clamp(n, 1, 16);
}

void sleep_seconds(double s) {
  if (s <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
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

}  // namespace

double jittered_backoff(double base_seconds, double jitter,
                        std::uint64_t* state) {
  return support::jittered_backoff(base_seconds, jitter, state);
}

SandboxedEvaluator::SandboxedEvaluator(sim::ProgramEvaluator& base,
                                       SandboxConfig config)
    : base_(base), config_(config) {
  config_.workers = resolve_worker_count(config_.workers);
  jitter_state_ = config_.respawn_jitter_seed != 0
                      ? config_.respawn_jitter_seed
                      : (static_cast<std::uint64_t>(::getpid()) << 32) ^
                            reinterpret_cast<std::uintptr_t>(this);
  // A dead supervisor must surface to us as EPIPE/poll events, never as a
  // process-killing SIGPIPE while writing a job frame.
  ::signal(SIGPIPE, SIG_IGN);
}

SandboxedEvaluator::~SandboxedEvaluator() {
  // Closing the job pipe is the shutdown signal: workers _exit(0) at EOF.
  for (auto& w : workers_) {
    if (w.job_fd >= 0) ::close(w.job_fd);
    w.job_fd = -1;
  }
  for (auto& w : workers_) {
    if (w.pid <= 0) continue;
    bool reaped = false;
    for (int i = 0; i < 200; ++i) {  // ~2s grace, then force
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == w.pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      sleep_seconds(0.01);
    }
    if (!reaped) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
    }
    w.pid = -1;
  }
  for (auto& w : workers_) destroy_worker(w, /*kill=*/false);
}

void SandboxedEvaluator::set_fault_injector(
    const sim::FaultInjector* injector) {
  injector_ = injector;
  base_.set_fault_injector(injector);
}

bool SandboxedEvaluator::spawn_worker(std::size_t slot) const {
  // The span's 'E' lands in the parent after fork; the child clears its
  // inherited copy of the 'B' in obs::reset_after_fork, so worker rings
  // never carry a dangling half-span.
  OBS_SPAN("worker_spawn", "sandbox");
  OBS_COUNTER_INC("citroen_sandbox_forks_total");
  Worker& w = workers_[slot];
  int job_pipe[2] = {-1, -1};
  int result_pipe[2] = {-1, -1};
  if (::pipe(job_pipe) != 0) return false;
  if (::pipe(result_pipe) != 0) {
    ::close(job_pipe[0]);
    ::close(job_pipe[1]);
    return false;
  }
  if (!w.cell) w.cell = map_progress_cell();  // best-effort; null tolerated
  if (w.cell) w.cell->word.store(0, std::memory_order_relaxed);

  // Forked children inherit stdio buffers; flush so nothing queued in the
  // supervisor can ever be replayed from a worker.
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
  if (pid < 0) {
    ::close(job_pipe[0]);
    ::close(job_pipe[1]);
    ::close(result_pipe[0]);
    ::close(result_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Keep stdio and our own two pipe ends, drop every other fd.
    // A worker holding another worker's job pipe -- a sibling's, or one
    // of another evaluator's in the same process -- would keep that
    // worker from ever reading EOF, so its supervisor's shutdown would
    // wait out the grace period and then SIGKILL it.
    close_fds_except(job_pipe[0], result_pipe[1]);
    worker_serve(base_, job_pipe[0], result_pipe[1], w.cell, config_.limits);
    // worker_serve is [[noreturn]]
  }
  ::close(job_pipe[0]);
  ::close(result_pipe[1]);
  w.pid = pid;
  w.job_fd = job_pipe[1];
  w.result_fd = result_pipe[0];
  w.reader = std::make_unique<FrameReader>(w.result_fd);
  w.jobs_done = 0;
  w.alive = true;
  ++stats_.forks;
  return true;
}

void SandboxedEvaluator::destroy_worker(Worker& w, bool kill) const {
  if (kill && w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
  }
  w.pid = -1;
  if (w.job_fd >= 0) ::close(w.job_fd);
  if (w.result_fd >= 0) ::close(w.result_fd);
  w.job_fd = w.result_fd = -1;
  w.reader.reset();
  if (w.cell) {
    unmap_progress_cell(w.cell);
    w.cell = nullptr;
  }
  w.alive = false;
}

void SandboxedEvaluator::trip_breaker(const char* why) const {
  if (tripped_) return;
  tripped_ = true;
  ++stats_.breaker_trips;
  if (obs::trace_enabled())
    obs::emit('I', "breaker_trip", "sandbox", 0, nullptr, 0, why);
  OBS_COUNTER_INC("citroen_sandbox_breaker_trips_total");
  std::fprintf(stderr,
               "[sandbox] circuit breaker tripped (%s) on '%s': degrading "
               "to in-process evaluation (uncontained)\n",
               why, base_.program_name().c_str());
  for (auto& w : workers_) destroy_worker(w, /*kill=*/true);
}

std::string SandboxedEvaluator::progress_signature(const Worker& w) const {
  if (!w.cell) return "no progress cell";
  const Progress p =
      unpack_progress(w.cell->word.load(std::memory_order_relaxed));
  char buf[160];
  if (p.stage == WorkerStage::Build) {
    const auto& reg = passes::PassRegistry::instance();
    const char* pass =
        p.pass_id < reg.num_passes()
            ? reg.name_of(static_cast<passes::PassId>(p.pass_id)).c_str()
            : "?";
    std::snprintf(buf, sizeof(buf), "stage build, pass '%s'", pass);
  } else {
    std::snprintf(buf, sizeof(buf), "stage %s", worker_stage_name(p.stage));
  }
  return buf;
}

void SandboxedEvaluator::handle_death(std::size_t slot, std::uint64_t sig,
                                      bool in_flight, bool timed_out,
                                      const std::string& extra) const {
  Worker& w = workers_[slot];
  // The Corrupt/Error read paths reach here while the worker may still
  // be alive (a garbled result stream is not proof of death), so kill
  // before the blocking reap or waitpid hangs forever. Against a worker
  // that already exited the signal lands on a zombie — a no-op — and the
  // status below still reports the original cause of death.
  if (w.pid > 0) ::kill(w.pid, SIGKILL);
  int status = 0;
  pid_t got = ::waitpid(w.pid, &status, 0);
  if (got < 0) status = 0;

  sim::FailureKind kind = sim::FailureKind::WorkerCrash;
  std::string why;
  const std::string site = progress_signature(w);
  if (timed_out) {
    kind = sim::FailureKind::WorkerTimeout;
    why = "sandbox: exceeded " +
          std::to_string(config_.job_wall_timeout_seconds) +
          "s wall deadline (" + site + ")";
  } else if (WIFSIGNALED(status)) {
    const int signo = WTERMSIG(status);
    if (signo == SIGXCPU) {
      kind = sim::FailureKind::WorkerTimeout;
      why = "sandbox: exceeded per-job CPU budget (" + site + ")";
    } else {
      why = "sandbox: worker killed by " + describe_signal(signo) + " (" +
            site + ")";
    }
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != kWorkerExitClean) {
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

  if (in_flight) {
    Verdict v;
    v.kind = kind;
    v.measured = true;  // a lethal candidate is lethal for both job kinds
    v.why = why;
    remember_verdict(sig, std::move(v));
    if (kind == sim::FailureKind::WorkerTimeout)
      ++stats_.worker_timeouts;
    else
      ++stats_.worker_crashes;
  }

  destroy_worker(w, /*kill=*/false);  // already dead and reaped

  ++consecutive_deaths_;
  if (consecutive_deaths_ >= config_.breaker_threshold) {
    trip_breaker("consecutive worker deaths");
    return;
  }
  // Seeded jitter decorrelates sibling supervisors after a correlated
  // crash (one bad candidate fanned out to every job's pool): without it
  // they all sleep the same exponential schedule and refork in lockstep.
  sleep_seconds(support::respawn_backoff(
      consecutive_deaths_, config_.respawn_backoff_seconds,
      config_.respawn_backoff_max_seconds, config_.respawn_jitter,
      &jitter_state_));
  if (spawn_worker(slot)) {
    ++stats_.respawns;
  } else {
    trip_breaker("worker respawn failed");
  }
}

void SandboxedEvaluator::remember_verdict(std::uint64_t sig,
                                          Verdict v) const {
  if (verdicts_.size() >= kMaxVerdicts && verdicts_.count(sig) == 0) {
    // Shed only vetted-Ok entries. Fatal verdicts are the containment
    // record itself — after a purge plus a breaker trip, a forgotten
    // lethal candidate would reach the in-process path uncontained.
    // They are bounded by the number of genuinely lethal candidates,
    // which is tiny next to kMaxVerdicts.
    for (auto it = verdicts_.begin(); it != verdicts_.end();) {
      if (it->second.kind == sim::FailureKind::None)
        it = verdicts_.erase(it);
      else
        ++it;
    }
  }
  verdicts_[sig] = std::move(v);
}

void SandboxedEvaluator::record_result(const SandboxResult& res,
                                       std::uint64_t sig,
                                       bool with_measure) const {
  Verdict v;
  if (res.status == ResultStatus::Oom) {
    v.kind = sim::FailureKind::WorkerOOM;
    v.measured = true;
    v.why = "sandbox: evaluation exhausted the worker memory cap";
    ++stats_.jobs_oom;
  } else {
    v.kind = sim::FailureKind::None;
    v.measured = with_measure;
    if (res.pure.built && !res.pure.runs.empty())
      base_.install_measure_memo(res.pure.binary_hash, res.pure.runs);
    ++stats_.jobs_ok;
  }
  remember_verdict(sig, std::move(v));
}

const SandboxedEvaluator::Verdict* SandboxedEvaluator::find_verdict(
    std::uint64_t sig, bool need_measured) const {
  const auto it = verdicts_.find(sig);
  if (it == verdicts_.end()) return nullptr;
  if (it->second.kind == sim::FailureKind::None && need_measured &&
      !it->second.measured)
    return nullptr;  // vetted compile-only; evaluate needs the runs memo
  return &it->second;
}

void SandboxedEvaluator::run_jobs(
    std::span<const sim::SequenceAssignment> batch, bool with_measure) const {
  if (tripped_) return;

  struct Pending {
    const sim::SequenceAssignment* seqs;
    std::uint64_t sig;
  };
  std::vector<Pending> todo;
  std::unordered_set<std::uint64_t> queued;
  for (const auto& seqs : batch) {
    const std::uint64_t sig = sim::assignment_signature(seqs);
    if (find_verdict(sig, with_measure)) {
      ++stats_.verdict_hits;
      continue;
    }
    if (queued.insert(sig).second) todo.push_back({&seqs, sig});
  }
  if (todo.empty()) return;

  if (!spawned_once_) {
    spawned_once_ = true;
    workers_.resize(static_cast<std::size_t>(config_.workers));
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!spawn_worker(i)) {
        trip_breaker("initial worker spawn failed");
        return;
      }
    }
  }

  // Pipelined dispatch: every idle live worker gets the next unvetted
  // candidate; the supervisor polls result pipes and wall deadlines.
  const std::size_t n_workers = workers_.size();
  std::vector<std::ptrdiff_t> running(n_workers, -1);  // todo index or -1
  std::vector<std::uint64_t> job_id(n_workers, 0);
  std::vector<double> deadline(n_workers, 0.0);
  std::size_t next = 0;
  std::size_t done = 0;

  const bool attach_plan =
      injector_ && (injector_->plan().segv_rate > 0 ||
                    injector_->plan().oom_rate > 0 ||
                    injector_->plan().spin_rate > 0);

  while (done < todo.size() && !tripped_) {
    // 1. Dispatch to idle workers.
    for (std::size_t i = 0; i < n_workers && next < todo.size(); ++i) {
      Worker& w = workers_[i];
      if (!w.alive || running[i] >= 0) continue;
      SandboxJob job;
      job.id = next_job_id_++;
      job.kind = with_measure ? JobKind::Evaluate : JobKind::Compile;
      job.has_plan = attach_plan;
      if (attach_plan) job.plan = injector_->plan();
      job.assignment = *todo[next].seqs;
      if (write_frame(w.job_fd, encode_job(job)) != IoStatus::Ok) {
        // The worker died while idle (its previous job finished). Nothing
        // is in flight, so no candidate gets blamed; retry on a respawn.
        handle_death(i, 0, /*in_flight=*/false, /*timed_out=*/false,
                     "job dispatch failed");
        continue;
      }
      // Async span ('b'/'e' paired by job id): a sandbox job's lifetime
      // spans polls and belongs to no one thread's stack.
      if (obs::trace_enabled())
        obs::emit('b', "sandbox_job", "sandbox", job.id, "worker",
                  static_cast<std::uint64_t>(i));
      OBS_COUNTER_INC("citroen_sandbox_jobs_dispatched_total");
      running[i] = static_cast<std::ptrdiff_t>(next);
      job_id[i] = job.id;
      deadline[i] = config_.job_wall_timeout_seconds > 0
                        ? monotonic_seconds() + config_.job_wall_timeout_seconds
                        : 0.0;
      ++next;
      ++stats_.jobs_dispatched;
      if (config_.kill_job_id >= 0 &&
          job.id == static_cast<std::uint64_t>(config_.kill_job_id)) {
        // Test hook: an "external" SIGKILL the supervisor did not send,
        // exercising the crash-containment path end to end.
        ::kill(w.pid, SIGKILL);
      }
    }

    // Collect busy workers; service anything already buffered first.
    std::vector<std::size_t> busy;
    for (std::size_t i = 0; i < n_workers; ++i)
      if (running[i] >= 0) busy.push_back(i);
    if (busy.empty()) {
      if (next >= todo.size()) break;
      // Queue left but nobody alive to run it: every worker is dead and
      // respawn/breaker policy is applied in handle_death. If we are here
      // without a trip, a spawn succeeded — loop back and dispatch.
      bool any_alive = false;
      for (const auto& w : workers_) any_alive |= w.alive;
      if (!any_alive) {
        trip_breaker("no live workers");
        break;
      }
      continue;
    }

    auto service = [&](std::size_t i) {
      Worker& w = workers_[i];
      std::string payload, err;
      const IoStatus st = w.reader->read(&payload, /*timeout_seconds=*/0.0,
                                         &err);
      const std::ptrdiff_t t = running[i];
      const auto end_job_span = [&] {
        if (obs::trace_enabled())
          obs::emit('e', "sandbox_job", "sandbox", job_id[i]);
      };
      switch (st) {
        case IoStatus::Ok: {
          SandboxResult res;
          if (!decode_result(payload, &res, &err) ||
              res.id != job_id[i]) {
            // Confused worker: garbled payload or a stale/foreign job id.
            // Tear it down and blame the in-flight candidate — its
            // evaluation provoked the garbage.
            end_job_span();
            destroy_worker(w, /*kill=*/true);
            Verdict v;
            v.kind = sim::FailureKind::WorkerCrash;
            v.measured = true;
            v.why = "sandbox: worker returned a malformed result (" +
                    (err.empty() ? std::string("job id mismatch") : err) +
                    ")";
            remember_verdict(todo[static_cast<std::size_t>(t)].sig,
                             std::move(v));
            ++stats_.worker_crashes;
            running[i] = -1;
            ++done;
            ++consecutive_deaths_;
            if (consecutive_deaths_ >= config_.breaker_threshold)
              trip_breaker("consecutive worker deaths");
            else if (spawn_worker(i))
              ++stats_.respawns;
            else
              trip_breaker("worker respawn failed");
            return;
          }
          // Same-machine fork: no clock skew, offset 0.
          ingest_result_obs(res, static_cast<std::uint32_t>(w.pid));
          end_job_span();
          record_result(res, todo[static_cast<std::size_t>(t)].sig,
                        with_measure);
          consecutive_deaths_ = 0;
          running[i] = -1;
          ++done;
          ++w.jobs_done;
          if (config_.max_jobs_per_worker > 0 &&
              w.jobs_done >= config_.max_jobs_per_worker) {
            // Graceful recycle (leak hygiene), not a death: close the job
            // pipe (worker exits clean at EOF), reap, spawn a replacement.
            const pid_t pid = w.pid;
            destroy_worker(w, /*kill=*/false);
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (spawn_worker(i)) ++stats_.respawns;
          }
          return;
        }
        case IoStatus::Timeout:
          return;  // partial frame; keep polling
        case IoStatus::Eof:
        case IoStatus::Error:
        case IoStatus::Corrupt: {
          end_job_span();
          handle_death(i, todo[static_cast<std::size_t>(t)].sig,
                       /*in_flight=*/true, /*timed_out=*/false,
                       st == IoStatus::Corrupt ? "corrupt result stream"
                                               : "");
          running[i] = -1;
          ++done;
          return;
        }
      }
    };

    bool serviced_buffered = false;
    for (const std::size_t i : busy) {
      if (running[i] >= 0 && workers_[i].reader &&
          workers_[i].reader->pending()) {
        service(i);
        serviced_buffered = true;
      }
    }
    if (serviced_buffered || tripped_) continue;

    // 2. Poll result pipes up to the earliest wall deadline.
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_owner;
    double min_deadline = 0.0;
    for (const std::size_t i : busy) {
      if (running[i] < 0) continue;
      fds.push_back({workers_[i].result_fd, POLLIN, 0});
      fd_owner.push_back(i);
      if (deadline[i] > 0 &&
          (min_deadline == 0.0 || deadline[i] < min_deadline))
        min_deadline = deadline[i];
    }
    if (fds.empty()) continue;
    int wait_ms = 200;
    if (min_deadline > 0) {
      const double remain = min_deadline - monotonic_seconds();
      wait_ms = static_cast<int>(remain * 1000.0) + 1;
      wait_ms = std::clamp(wait_ms, 1, 1000);
    }
    const int rc = ::poll(fds.data(), fds.size(), wait_ms);
    if (rc > 0) {
      for (std::size_t k = 0; k < fds.size(); ++k) {
        const std::size_t i = fd_owner[k];
        if (running[i] < 0 || tripped_) continue;
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) service(i);
      }
    } else if (rc < 0 && errno != EINTR) {
      trip_breaker("poll failed");
      break;
    }
    if (tripped_) break;

    // 3. Enforce wall deadlines.
    const double now = monotonic_seconds();
    for (std::size_t i = 0; i < n_workers; ++i) {
      if (running[i] < 0 || deadline[i] <= 0 || now < deadline[i]) continue;
      ::kill(workers_[i].pid, SIGKILL);
      if (obs::trace_enabled())
        obs::emit('e', "sandbox_job", "sandbox", job_id[i]);
      handle_death(i, todo[static_cast<std::size_t>(running[i])].sig,
                   /*in_flight=*/true, /*timed_out=*/true, "");
      running[i] = -1;
      ++done;
      if (tripped_) break;
    }
  }
  // On a breaker trip mid-batch the remaining candidates keep no verdict;
  // callers fall through to the uncontained in-process path for them.
}

sim::CompileOutcome SandboxedEvaluator::compile(
    const sim::SequenceAssignment& seqs, bool keep_program) const {
  // A tripped breaker stops *new* vetting, but verdicts already earned
  // stay authoritative: a candidate known to kill workers must never
  // reach the in-process path.
  const std::uint64_t sig = sim::assignment_signature(seqs);
  const Verdict* v = find_verdict(sig, /*need_measured=*/false);
  if (!v && !tripped_) {
    run_jobs({&seqs, 1}, /*with_measure=*/false);
    v = find_verdict(sig, /*need_measured=*/false);
  }
  if (v && v->kind != sim::FailureKind::None) {
    sim::CompileOutcome out;
    out.valid = false;
    out.failure = v->kind;
    out.why_invalid = v->why;
    out.transient = false;
    return out;
  }
  return base_.compile(seqs, keep_program);
}

sim::EvalOutcome SandboxedEvaluator::evaluate(
    const sim::SequenceAssignment& seqs) {
  const std::uint64_t sig = sim::assignment_signature(seqs);
  const Verdict* v = find_verdict(sig, /*need_measured=*/true);
  if (!v && !tripped_) {
    run_jobs({&seqs, 1}, /*with_measure=*/true);
    v = find_verdict(sig, /*need_measured=*/true);
  }
  if (v && v->kind != sim::FailureKind::None) {
    sim::EvalOutcome out;
    out.valid = false;
    out.failure = v->kind;
    out.why_invalid = v->why;
    out.transient = false;
    out.attempts = 1;
    return out;
  }
  return base_.evaluate(seqs);
}

void SandboxedEvaluator::prefetch(
    std::span<const sim::SequenceAssignment> batch, bool with_measure) {
  if (!tripped_) run_jobs(batch, with_measure);
  // Forward only survivors: candidates whose vetting died must never
  // touch the in-process pipeline. Verdict-less candidates (breaker
  // tripped mid-batch) pass through — uncontained beats unevaluated.
  std::vector<sim::SequenceAssignment> survivors;
  survivors.reserve(batch.size());
  for (const auto& seqs : batch) {
    const Verdict* v =
        find_verdict(sim::assignment_signature(seqs), with_measure);
    if (v && v->kind != sim::FailureKind::None) continue;
    survivors.push_back(seqs);
  }
  base_.prefetch(survivors, with_measure);
}

}  // namespace citroen::sandbox
