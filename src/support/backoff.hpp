#pragma once
// Shared retry/backoff arithmetic.
//
// Two independent subsystems sleep-and-retry against correlated
// failure: the worker pool respawning dead fork workers and reconnecting
// to lost peers, and the serving client resubmitting after daemon
// restarts. Each used to carry its own splitmix64 +
// jitter formula; this header is the single unit-tested implementation
// all of them draw from. Results never depend on these values — jitter
// only stretches sleeps — so the stream seed is free to differ per site.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace citroen::support {

/// Deterministic 64-bit mixer (Vigna's splitmix64). Advances `state`.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) drawn from the splitmix64 stream `state`.
inline double uniform_unit(std::uint64_t* state) {
  return static_cast<double>(splitmix64(*state) >> 11) * 0x1.0p-53;
}

/// `base_seconds` scaled by a uniform factor in [1 - jitter, 1 + jitter]
/// (jitter clamped to [0, 1]). Anti-thundering-herd for fixed schedules:
/// N agents sleeping the same exponential ladder decorrelate instead of
/// retrying in lockstep. jitter == 0 returns base_seconds exactly.
inline double jittered_backoff(double base_seconds, double jitter,
                               std::uint64_t* state) {
  const double j = std::clamp(jitter, 0.0, 1.0);
  if (j <= 0) return base_seconds;
  return base_seconds * (1.0 - j + 2.0 * j * uniform_unit(state));
}

/// Exponential schedule with full jitter: cap = min(max, initial * 2^n),
/// returned delay uniform in [0.1 * cap, cap]. The 10% floor keeps a
/// hot-loop retry from ever spinning at zero delay. `attempt` counts
/// from 0 and is clamped so the shift can't overflow.
inline double full_jitter_backoff(int attempt, double initial_seconds,
                                  double max_seconds, std::uint64_t* state) {
  const double cap =
      std::min(max_seconds,
               initial_seconds * std::ldexp(1.0, std::clamp(attempt, 0, 20)));
  return cap * (0.1 + 0.9 * uniform_unit(state));
}

/// Fixed-ratio exponential ladder with proportional jitter — the worker
/// pool's respawn/reconnect schedule: delay for the k-th consecutive
/// failure (k >= 1) is min(max, base * 2^(k-1)) stretched by
/// jittered_backoff.
inline double respawn_backoff(int consecutive_failures, double base_seconds,
                              double max_seconds, double jitter,
                              std::uint64_t* state) {
  const int k = std::max(1, consecutive_failures);
  const double base = std::min(
      max_seconds,
      base_seconds * std::ldexp(1.0, std::min(k - 1, 16)));
  return jittered_backoff(base, jitter, state);
}

}  // namespace citroen::support
