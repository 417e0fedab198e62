#pragma once
// Child-process side of the evaluation sandbox.
//
// After fork the worker detaches everything shared with the supervisor
// (shared prefix cache, fault injector, thread pool), applies its rlimit
// caps, installs the pass-progress hook into its (now private) copy of
// the evaluator, and serves pure evaluation jobs off the job pipe until
// EOF. It only ever performs `ProgramEvaluator::pure_evaluate` — no
// order-sensitive state exists in the child, so nothing it does (or
// fails to do) can change supervisor-side results.
//
// The worker never returns to the forked C++ runtime: every exit path is
// `_exit`, so destructors of supervisor-owned objects (thread pool,
// journal fds, cache shards possibly mid-mutation in other threads at
// fork time) are never run in the child.

#include <cstddef>
#include <cstdint>

#include "sandbox/protocol.hpp"

// CITROEN_ASAN marks an AddressSanitizer build, whose workers set no
// RLIMIT_AS (see WorkerLimits::mem_headroom_bytes).
#if defined(__SANITIZE_ADDRESS__)
#define CITROEN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CITROEN_ASAN 1
#endif
#endif

namespace citroen::sim {
class ProgramEvaluator;
}

namespace citroen::sandbox {

/// Per-worker resource caps, applied in the child before serving.
struct WorkerLimits {
  /// Per-job CPU budget (seconds). RLIMIT_CPU is cumulative, so the
  /// worker re-derives the limit from getrusage() before every job.
  /// 0 disables.
  double job_cpu_seconds = 20.0;
  /// Address-space headroom (bytes) granted above the worker's size at
  /// startup via RLIMIT_AS. 0 disables. Compile-time disabled under
  /// AddressSanitizer: ASan's shadow reservations make RLIMIT_AS
  /// meaningless (and fatal).
  std::size_t mem_headroom_bytes = std::size_t{512} << 20;
};

/// Worker exit codes (see the consolidated table in DESIGN.md). Kept
/// clear of the watchdog's 0/75/99 so a status seen by waitpid is
/// unambiguous about which layer chose it.
inline constexpr int kWorkerExitClean = 0;     ///< job pipe reached EOF
inline constexpr int kWorkerExitProtocol = 3;  ///< malformed frame/stream

/// Serve jobs forever; never returns. `eval` is this process's copy of
/// the supervisor's base evaluator, `job_fd`/`result_fd` the worker ends
/// of the two pipes, `progress` the shared crash-signature cell (may be
/// null).
[[noreturn]] void worker_serve(sim::ProgramEvaluator& eval, int job_fd,
                               int result_fd, ProgressCell* progress,
                               const WorkerLimits& limits);

}  // namespace citroen::sandbox
