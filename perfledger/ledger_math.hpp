#pragma once
// The ledger's own arithmetic, kept free of any system dependency so
// ledger_test.cpp can pin it: percentiles and the tail-percentile rule,
// self time of a span, the per-layer sum check, and the curve digest.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ledger {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. Empty input reads 0.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = static_cast<std::size_t>(std::max(1.0, rank));
  return v[std::min(k, v.size()) - 1];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Samples strictly above the nearest-rank q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t k = static_cast<std::size_t>(std::max(1.0, rank));
  return n - std::min(k, n);
}

/// The highest percentile that still has ten samples beyond it, from a
/// fixed ladder, with the sample count it rests on. A tail read from
/// fewer samples than that is noise, so it is never reported.
struct Tail {
  double q = 0.0;        ///< 0 when no ladder step qualifies
  double value = 0.0;
  std::size_t count = 0; ///< samples the percentile was taken over
};

inline Tail tail_percentile(const std::vector<double>& v) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail t;
  t.count = v.size();
  for (const double q : kLadder) {
    if (samples_beyond(v.size(), q) >= 10) {
      t.q = q;
      t.value = percentile(v, q);
      return t;
    }
  }
  return t;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// A span's duration minus the part of it its child spans cover. The
/// children are clipped to the span and their union is taken, so
/// overlapping or escaping children are never subtracted twice.
inline double self_time(Interval span, std::vector<Interval> children) {
  for (auto& c : children) {
    c.begin = std::max(c.begin, span.begin);
    c.end = std::min(c.end, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double reach = span.begin;
  for (const auto& c : children) {
    if (c.end <= c.begin) continue;
    const double from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (span.end - span.begin) - covered;
}

/// Self time of every span against one sorted-by-begin list of child
/// intervals recorded on the same thread (the tuner's evaluator calls).
inline double total_self_time(const std::vector<Interval>& spans,
                              const std::vector<Interval>& children) {
  double total = 0.0;
  std::size_t first = 0;
  for (const auto& s : spans) {
    while (first < children.size() && children[first].end <= s.begin)
      ++first;
    std::vector<Interval> inside;
    for (std::size_t i = first;
         i < children.size() && children[i].begin < s.end; ++i)
      inside.push_back(children[i]);
    total += self_time(s, std::move(inside));
  }
  return total;
}

/// The per-layer sum check: the layer times measured on the tuner thread
/// must account for its wall time, up to the tracing overhead (plus a 2%
/// floor for harness bookkeeping between calls).
inline bool sums_to_wall(double layers_sum, double wall,
                         double tracing_overhead) {
  const double tolerance = std::max(std::fabs(tracing_overhead), 0.02 * wall);
  return std::fabs(wall - layers_sum) <= tolerance;
}

/// FNV-1a over the raw IEEE-754 bytes of every curve, in order, with each
/// curve's length mixed in so [a][b,c] and [a,b][c] differ.
inline std::uint64_t curve_digest(const std::vector<std::vector<double>>& cs) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& c : cs) {
    const std::uint64_t len = c.size();
    mix(&len, sizeof(len));
    if (!c.empty()) mix(c.data(), c.size() * sizeof(double));
  }
  return h;
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

}  // namespace ledger
