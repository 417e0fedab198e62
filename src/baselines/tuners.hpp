#pragma once
// Competing phase-ordering autotuners (Sec. 5.4.4): random search, GA,
// DES, an OpenTuner-style multi-algorithm ensemble with credit
// assignment, and a BOCA-style random-forest BO over raw sequence
// features. Each applies one sequence to the program's hot modules and
// reports the same best-so-far speedup curve as CITROEN, so all the
// Fig. 5.6/5.7 comparisons are apples-to-apples.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/evaluator.hpp"
#include "support/matrix.hpp"

namespace citroen::persist {
class Writer;  // persist/codec.hpp
class Reader;
}

namespace citroen::baselines {

struct PhaseTunerConfig {
  int budget = 100;       ///< runtime measurements
  int max_seq_len = 60;
  double hot_threshold = 0.9;
  int max_hot_modules = 3;
  std::vector<std::string> pass_space;  ///< default: full registry
  std::uint64_t seed = 1;
};

struct TuneTrace {
  std::string tuner;
  double best_speedup = 0.0;  ///< over -O3
  /// Assignment behind `best_speedup` (re-validate it on a clean
  /// evaluator when tuning ran under measurement noise).
  sim::SequenceAssignment best_assignment;
  Vec speedup_curve;          ///< best-so-far per measurement
  int invalid = 0;
  /// Invalid evaluations per failure class ("crash", "hang", ...).
  std::map<std::string, int> failure_counts;
  int quarantined_skipped = 0;  ///< proposals dropped via the quarantine set
};

/// Checkpoint/restore a (possibly partial) trace.
void put(persist::Writer& w, const TuneTrace& t);
void get(persist::Reader& r, TuneTrace& out);

/// A baseline tuner advanced one unit at a time, so a crash-safe runner
/// can checkpoint, honour a deadline, or stop between steps. The step
/// granularity matches each algorithm's natural batch (random: one
/// 16-candidate chunk; ga/des: one ask(4) batch; opentuner: one
/// candidate; boca: the initial design, then one forest iteration), so
/// driving step() to exhaustion is byte-identical to the corresponding
/// one-shot run_* function.
class ResumablePhaseTuner {
 public:
  virtual ~ResumablePhaseTuner() = default;
  virtual const std::string& name() const = 0;
  /// Advance one unit; false once the budget/attempt limits are spent.
  virtual bool step() = 0;
  /// Assemble the trace-so-far. Valid mid-run (interrupted runs still
  /// report their best-so-far curve).
  virtual TuneTrace finish() = 0;
  /// Serialize/restore the complete tuner state (trace, RNG stream,
  /// heuristic populations, surrogate training set) such that a restored
  /// tuner continues byte-identically to one that never stopped.
  virtual void save_state(persist::Writer& w) const = 0;
  virtual void load_state(persist::Reader& r) = 0;
};

/// Factory over the five baselines: "random", "ga", "des", "opentuner"
/// (ensemble) and "boca" (random-forest BO). Throws on unknown names.
std::unique_ptr<ResumablePhaseTuner> make_phase_tuner(
    const std::string& name, sim::Evaluator& eval,
    const PhaseTunerConfig& config);

TuneTrace run_random_search(sim::Evaluator& eval,
                            const PhaseTunerConfig& config);
TuneTrace run_ga_tuner(sim::Evaluator& eval,
                       const PhaseTunerConfig& config);
TuneTrace run_des_tuner(sim::Evaluator& eval,
                        const PhaseTunerConfig& config);
/// OpenTuner-style: GA + DES + random run side by side; techniques that
/// produce improvements get a growing share of the measurement budget.
TuneTrace run_ensemble_tuner(sim::Evaluator& eval,
                             const PhaseTunerConfig& config);
/// BOCA-style: random-forest surrogate on raw sequence features; EI
/// scores a large pool of mutated candidates, best one is measured.
TuneTrace run_rf_bo_tuner(sim::Evaluator& eval,
                          const PhaseTunerConfig& config);

}  // namespace citroen::baselines
