#pragma once
// Shared plumbing for the crash-safe bench runners: the watchdog arming
// and the session log lines that tuner_runner.hpp and aibo_runner.hpp
// both use.

#include <cstdio>

#include "persist/run_session.hpp"
#include "persist/watchdog.hpp"

namespace citroen::bench {

/// Install signal handlers and arm the wall-clock deadline (<= 0: none).
/// Called once per process, before any run starts: re-arming between
/// sweeps would clear a pending stop and restart the deadline.
inline void arm_watchdog(double deadline_seconds) {
  auto& wd = persist::Watchdog::instance();
  wd.install_signal_handlers();
  wd.set_deadline_seconds(deadline_seconds);
}

/// Surface recovery/checkpoint notes on stderr (stdout stays canonical
/// for the CI byte-diff).
inline void print_session_notes(const persist::RunSession& s) {
  if (!s.recovery_note().empty())
    std::fprintf(stderr, "[%s] %s\n", s.run_name().c_str(),
                 s.recovery_note().c_str());
  if (!s.checkpoint_note().empty())
    std::fprintf(stderr, "[%s] %s\n", s.run_name().c_str(),
                 s.checkpoint_note().c_str());
}

}  // namespace citroen::bench
