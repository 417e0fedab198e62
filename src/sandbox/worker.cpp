#include "sandbox/worker.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/pass.hpp"
#include "passes/passman.hpp"
#include "sandbox/ipc.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/prefix_cache.hpp"

namespace citroen::sandbox {

namespace {

// Single-threaded worker process: plain globals feed the pass-progress
// hook (a bare function pointer, so no capturing lambda).
ProgressCell* g_cell = nullptr;
std::uint64_t g_job_id = 0;

void set_progress(WorkerStage stage, std::uint16_t pass_id) {
  if (g_cell)
    g_cell->word.store(pack_progress(g_job_id, stage, pass_id),
                       std::memory_order_relaxed);
}

void pass_progress_hook(passes::PassId id) {
  set_progress(WorkerStage::Build, static_cast<std::uint16_t>(id));
}

std::size_t current_vm_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long pages = 0;
  const int got = std::fscanf(f, "%lu", &pages);
  std::fclose(f);
  if (got != 1) return 0;
  return static_cast<std::size_t>(pages) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

void apply_startup_limits(const WorkerLimits& limits) {
  // A crashing worker is routine here; dumping core for every injected
  // SIGSEGV would be pure noise (and disk churn) in soak runs.
  rlimit core{0, 0};
  ::setrlimit(RLIMIT_CORE, &core);
#if !defined(CITROEN_ASAN)
  if (limits.mem_headroom_bytes > 0) {
    const std::size_t cap = current_vm_bytes() + limits.mem_headroom_bytes;
    rlimit mem{cap, cap};
    ::setrlimit(RLIMIT_AS, &mem);
  }
#else
  (void)limits;
#endif
}

void apply_job_cpu_limit(double budget_seconds) {
  if (budget_seconds <= 0) return;
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return;
  const double used =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  // RLIMIT_CPU counts cumulative process CPU, so each job's budget sits
  // on top of whatever earlier jobs already consumed. Only the soft limit
  // moves (SIGXCPU, classified as a timeout); the hard limit is passed
  // through untouched — an unprivileged process can never raise a hard
  // limit again, so lowering it once would wedge a stale cap under every
  // later job and kill innocent candidates on long-lived workers.
  rlimit cpu{};
  if (::getrlimit(RLIMIT_CPU, &cpu) != 0) return;
  auto soft = static_cast<rlim_t>(std::ceil(used + budget_seconds)) + 1;
  if (cpu.rlim_max != RLIM_INFINITY && soft > cpu.rlim_max)
    soft = cpu.rlim_max;
  cpu.rlim_cur = soft;
  if (::setrlimit(RLIMIT_CPU, &cpu) != 0) {
    // Best effort: with no CPU cap the supervisor's wall deadline still
    // contains a runaway job (as WorkerTimeout, same classification).
  }
}

/// The injected crash: a real SIGSEGV with the default disposition, so
/// the worker dies by the signal in every build. (A null store would do
/// in a plain build, but UBSan stops it first and the worker exits 1.)
[[noreturn]] void die_segv() {
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
  ::_exit(127);  // unreachable; keeps [[noreturn]] honest
}

/// Allocate-and-touch until the allocator gives up. With RLIMIT_AS set
/// this throws bad_alloc quickly (contained in-worker -> WorkerOOM);
/// under ASan the allocator aborts instead (-> WorkerCrash).
void allocate_until_oom() {
#if defined(CITROEN_ASAN)
  // RLIMIT_AS is disabled under ASan, so the chunked hoard below would
  // consume real machine memory until an external OOM killer stepped in.
  // One absurd allocation triggers ASan's allocation-size hard error
  // immediately instead: the worker aborts, the supervisor classifies a
  // WorkerCrash — the documented ASan shape of this fault class.
  volatile char* p = new char[std::size_t{1} << 46];
  p[0] = 1;
#endif
  constexpr std::size_t kChunk = std::size_t{16} << 20;
  std::vector<std::unique_ptr<char[]>> hoard;
  for (std::size_t i = 0; i < (std::size_t{1} << 18); ++i) {
    hoard.push_back(std::make_unique<char[]>(kChunk));
    for (std::size_t off = 0; off < kChunk; off += 4096)
      hoard.back()[off] = static_cast<char>(i);
  }
  // 4 TB allocated without failure: limits are not being enforced.
  ::_exit(kWorkerExitProtocol);
}

[[noreturn]] void spin_forever() {
  volatile std::uint64_t sink = 0;
  for (;;) sink = sink + 1;
}

/// Fire the injected real fault for this job, if any. Walks tuned
/// modules in (sorted) assignment order and triggers on the first hit,
/// with the progress cell pointed at the fault's chosen pass so the
/// supervisor's crash signature names it.
void maybe_trigger_real_fault(const SandboxJob& job) {
  if (!job.has_plan) return;
  const sim::FaultInjector injector(job.plan);
  const auto& reg = passes::PassRegistry::instance();
  for (const auto& [module, seq] : job.assignment) {
    const auto d = injector.real_fault(module, seq);
    if (d.mode == sim::RealFaultMode::None) continue;
    std::uint16_t pass_id = 0;
    if (d.pass_index < seq.size()) {
      const int id = reg.id_of(seq[d.pass_index]);
      if (id >= 0) pass_id = static_cast<std::uint16_t>(id);
    }
    set_progress(WorkerStage::Build, pass_id);
    switch (d.mode) {
      case sim::RealFaultMode::Segv: die_segv();
      case sim::RealFaultMode::Oom: allocate_until_oom(); return;
      case sim::RealFaultMode::Spin: spin_forever();
      case sim::RealFaultMode::None: return;
    }
  }
}

}  // namespace

void worker_serve(sim::ProgramEvaluator& eval, int job_fd, int result_fd,
                  ProgressCell* progress, const WorkerLimits& limits) {
  // Detach everything shared with the supervisor. The shared prefix
  // cache's shard mutexes may have been held by pool threads at fork
  // time (those threads do not exist in this process), so the child must
  // never touch it; its forked copy of the *private* cache is coherent
  // and becomes this worker's working cache.
  eval.set_shared_prefix_cache(nullptr);
  eval.set_fault_injector(nullptr);
  eval.set_thread_pool(nullptr);
  // Obs state forked mid-flight: reset every (spin)lock, discard events
  // inherited from the supervisor, and clear the output paths so this
  // process can never clobber the supervisor's trace/metrics files. The
  // enable flags survive — the worker keeps tracing into its own rings
  // and ships per-job deltas home inside each result frame.
  obs::reset_after_fork();
  // Same treatment for the pass layer's stat-key interner: its spinlock
  // may have been held by a supervisor pool thread at fork time.
  passes::reset_stat_interner_after_fork();
  // Counters were inherited at their supervisor-side values; baseline
  // the delta tracking there or the first frame would re-ship them all.
  baseline_obs_counters();

  ::signal(SIGPIPE, SIG_IGN);  // a dead supervisor surfaces as EPIPE
  ::signal(SIGINT, SIG_IGN);   // terminal ^C noise is the supervisor's call
  ::signal(SIGTERM, SIG_DFL);  // inherited watchdog handler is meaningless

  apply_startup_limits(limits);
  g_cell = progress;
  sim::set_pass_progress_hook(&pass_progress_hook);

  FrameReader reader(job_fd);
  for (;;) {
    std::string payload;
    const auto st = reader.read(&payload, /*timeout_seconds=*/-1.0);
    if (st == IoStatus::Eof) ::_exit(kWorkerExitClean);
    if (st != IoStatus::Ok) ::_exit(kWorkerExitProtocol);

    SandboxJob job;
    std::string err;
    if (!decode_job(payload, &job, &err)) ::_exit(kWorkerExitProtocol);

    g_job_id = job.id;
    set_progress(WorkerStage::Build, 0);
    apply_job_cpu_limit(limits.job_cpu_seconds);

    SandboxResult res;
    res.id = job.id;
    try {
      maybe_trigger_real_fault(job);
      if (job.kind == JobKind::Evaluate) {
        res.pure = eval.pure_evaluate(job.assignment, /*with_measure=*/true);
        // pure_evaluate interleaves build and measure internally; the
        // stage marker only needs to be truthful at crash granularity.
        set_progress(WorkerStage::Measure, 0);
      } else {
        res.pure = eval.pure_evaluate(job.assignment, /*with_measure=*/false);
      }
      res.status = ResultStatus::Ok;
    } catch (const std::bad_alloc&) {
      // The hoard (or the evaluation's own allocations) unwound when the
      // exception propagated, so the worker is healthy again and stays up.
      res.status = ResultStatus::Oom;
      res.pure = sim::PureEvalResult{};
    } catch (...) {
      ::_exit(kWorkerExitProtocol);
    }

    set_progress(WorkerStage::Reply, 0);
    collect_obs_deltas(&res);
    if (write_frame(result_fd, encode_result(res)) != IoStatus::Ok)
      ::_exit(kWorkerExitProtocol);
    set_progress(WorkerStage::Idle, 0);
  }
}

}  // namespace citroen::sandbox
