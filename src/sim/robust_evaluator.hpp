#pragma once
// Hardened evaluation layer: makes the tuning loop survive the fault
// model of sim/faults.hpp the way a production tuning service must
// survive a noisy embedded board (the paper's Jetson TX2 target).
//
// On top of an inner Evaluator (a plain ProgramEvaluator, or a
// dist::WorkerPool whose fork workers contain real process deaths) it
// adds:
//   - bounded retry with (simulated) backoff for transient failures,
//   - a quarantine set of assignment signatures that failed
//     deterministically, so the search never re-pays for a known-bad
//     sequence and candidate generators can skip proposing them; the set
//     is LRU-bounded (`RobustConfig::quarantine_cap`) so soak runs cannot
//     grow it without limit,
//   - replicated measurement under injected noise with median /
//     trimmed-mean aggregation, plus adaptive re-measurement when a
//     candidate lands near the incumbent (where a wrong ranking is most
//     costly),
//   - a noisy-rejection guard: measurements whose replicate spread stays
//     too large to trust are rejected rather than recorded,
//   - per-failure-class counters and budget accounting that charges
//     every failed attempt, so experiments can report the true cost.
//
// With no injector attached (or an all-zero plan) every call forwards to
// the base evaluator and outputs are bit-for-bit identical to it.

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>

#include "sim/evaluator.hpp"
#include "sim/faults.hpp"

namespace citroen::sim {

struct RobustConfig {
  int max_retries = 2;           ///< extra attempts after a transient failure
  int replicates = 3;            ///< noisy measurements aggregated per eval
  int max_extra_replicates = 4;  ///< adaptive re-measurement cap
  /// 0 = median aggregation; in (0, 0.5) = trimmed mean discarding this
  /// fraction from each tail.
  double trim_fraction = 0.0;
  /// Re-measure adaptively when a candidate's aggregated speedup lands
  /// within this relative margin of the best speedup seen so far.
  double near_incumbent_margin = 0.03;
  /// Reject the measurement entirely (failure class `noisy-rejected`)
  /// when the replicates' median absolute deviation exceeds this fraction
  /// of the median even after adaptive re-measurement.
  double noisy_reject_mad = 0.35;
  bool quarantine = true;        ///< remember deterministic failures
  /// Most signatures the quarantine set remembers before evicting the
  /// least-recently-used one (0 = unbounded). An evicted signature merely
  /// pays its deterministic failure again if re-proposed — correctness is
  /// unaffected, only the budget spent.
  std::size_t quarantine_cap = 8192;
};

/// LRU-bounded map of assignment signature -> failure class. Recency
/// order is deterministic: insertions and evaluate-path hits refresh it,
/// read-only generator queries (`peek`) do not, so results never depend
/// on how often candidates were merely *proposed*.
class QuarantineSet {
 public:
  explicit QuarantineSet(std::size_t cap = 0) : cap_(cap) {}

  void set_cap(std::size_t cap);

  /// Record (or refresh) a signature, evicting the LRU entry past the cap.
  void insert(std::uint64_t sig, FailureKind kind);
  /// Lookup without touching recency (candidate-generator queries).
  const FailureKind* peek(std::uint64_t sig) const;
  /// Lookup and refresh recency (an evaluation answered from quarantine:
  /// a signature the search keeps proposing should stay resident).
  const FailureKind* touch(std::uint64_t sig);

  std::size_t size() const { return index_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  /// Serialized most- to least-recent so a restored set evicts in the
  /// same order the original would have.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  using Order = std::list<std::pair<std::uint64_t, FailureKind>>;

  std::size_t cap_;
  std::uint64_t evictions_ = 0;
  Order order_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, Order::iterator> index_;
};

/// Observable robustness counters (reported by the fault benches).
struct RobustStats {
  int evaluations = 0;       ///< evaluate() calls that reached the base
  int attempts = 0;          ///< base evaluations incl. retries
  int retries = 0;           ///< attempts beyond the first
  int quarantine_hits = 0;   ///< evaluations skipped via the quarantine set
  int remeasurements = 0;    ///< adaptive extra replicates taken
  int valid = 0;             ///< evaluations that produced a trusted result
  /// Failed evaluations per failure class name ("crash", "hang", ...).
  std::map<std::string, int> failures;
};

class RobustEvaluator : public Evaluator {
 public:
  /// `injector` may be nullptr (no faults); it must outlive this object.
  /// The injector is attached through `base` (decorators forward it to
  /// the ProgramEvaluator at the bottom) for this wrapper's lifetime.
  RobustEvaluator(Evaluator& base, RobustConfig config = {},
                  const FaultInjector* injector = nullptr);
  ~RobustEvaluator() override;

  const ir::Program& base_program() const override {
    return base_.base_program();
  }
  const std::string& program_name() const override {
    return base_.program_name();
  }
  double o3_cycles() const override { return base_.o3_cycles(); }
  double o0_cycles() const override { return base_.o0_cycles(); }
  std::int64_t reference_output() const override {
    return base_.reference_output();
  }
  std::vector<std::pair<std::string, double>> hot_modules() const override {
    return base_.hot_modules();
  }

  CompileOutcome compile(const SequenceAssignment& seqs,
                         bool keep_program = false) const override;
  EvalOutcome evaluate(const SequenceAssignment& seqs) override;

  /// Forward the pure prefetch work to the base evaluator, minus
  /// candidates already quarantined (their serial evaluation short-
  /// circuits before touching the base). Quarantine decisions themselves
  /// stay in the serial replay, so batch results match serial exactly.
  void prefetch(std::span<const SequenceAssignment> batch,
                bool with_measure = true) override;

  bool is_quarantined(const SequenceAssignment& seqs) const override;

  const RobustStats& robust_stats() const { return stats_; }
  std::size_t quarantine_size() const { return quarantine_.size(); }
  std::uint64_t quarantine_evictions() const {
    return quarantine_.evictions();
  }

  /// Checkpoint/restore this wrapper's own order-sensitive state: the
  /// quarantine set (in recency order), per-binary replicate counters,
  /// robustness counters and the incumbent speedup. The wrapped base
  /// evaluator and the fault injector checkpoint themselves separately.
  void save_state(persist::Writer& w) const;
  void load_state(persist::Reader& r);

  double total_compile_seconds() const override {
    return base_.total_compile_seconds();
  }
  double total_measure_seconds() const override {
    return base_.total_measure_seconds();
  }
  int num_compiles() const override { return base_.num_compiles(); }
  int num_measurements() const override { return base_.num_measurements(); }
  int num_cache_hits() const override { return base_.num_cache_hits(); }

 private:
  double aggregate(std::vector<double>& samples) const;
  double dispersion(std::vector<double> samples) const;

  Evaluator& base_;
  RobustConfig config_;
  const FaultInjector* injector_;
  QuarantineSet quarantine_;
  /// Replicate counter per binary: keeps repeated noisy measurements of
  /// the same binary on fresh deterministic noise draws.
  std::unordered_map<std::uint64_t, std::uint64_t> replicate_counter_;
  mutable RobustStats stats_;  ///< compile() retries update it too
  double best_speedup_seen_ = 0.0;
};

}  // namespace citroen::sim
