#pragma once
// Deadline- and signal-aware shutdown coordination.
//
// The watchdog is a process-wide singleton that a runner consults between
// units of work (one evaluation, one tuner step). `stop_requested()`
// becomes true when SIGINT/SIGTERM arrives or the configured wall-clock
// deadline passes, so a deadline overshoots by at most one unit of work.
//
// Signal handlers only flip a sig_atomic_t flag — all I/O (journal flush,
// final checkpoint) happens later on the normal code path.

#include <csignal>

namespace citroen::persist {

class Watchdog {
 public:
  static Watchdog& instance();

  /// Install SIGINT/SIGTERM handlers that request a graceful stop. Safe
  /// to call more than once.
  void install_signal_handlers();

  /// Arm a wall-clock deadline `seconds` from now; <= 0 disarms it.
  void set_deadline_seconds(double seconds);

  /// True once a stop signal arrived or the deadline passed.
  bool stop_requested() const;

  /// Programmatic stop (tests, embedding code).
  void request_stop() { stop_flag_ = 1; }

 private:
  Watchdog() = default;

  volatile std::sig_atomic_t stop_flag_ = 0;
  bool handlers_installed_ = false;
  bool deadline_armed_ = false;
  double deadline_monotonic_ = 0.0;  // CLOCK_MONOTONIC seconds
};

}  // namespace citroen::persist
