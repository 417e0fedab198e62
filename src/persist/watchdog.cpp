#include "persist/watchdog.hpp"

#include <ctime>

namespace citroen::persist {

namespace {

double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void on_stop_signal(int) { Watchdog::instance().request_stop(); }

}  // namespace

Watchdog& Watchdog::instance() {
  static Watchdog w;
  return w;
}

void Watchdog::install_signal_handlers() {
  if (handlers_installed_) return;
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // interrupt blocking syscalls so the run loop notices
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  handlers_installed_ = true;
}

void Watchdog::set_deadline_seconds(double seconds) {
  if (seconds <= 0.0) {
    deadline_armed_ = false;
    return;
  }
  deadline_armed_ = true;
  deadline_monotonic_ = monotonic_now() + seconds;
}

bool Watchdog::stop_requested() const {
  if (stop_flag_) return true;
  return deadline_armed_ && monotonic_now() >= deadline_monotonic_;
}

}  // namespace citroen::persist
