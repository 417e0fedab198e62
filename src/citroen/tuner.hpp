#pragma once
// CITROEN (Ch. 5): BO-based compiler phase ordering guided by
// compilation statistics.
//
// Each iteration:
//   1. pick the module with the best expected payoff (adaptive budget
//      allocation across the program's hot modules),
//   2. generate candidate pass sequences with the discrete heuristics
//      (1+lambda ES seeded from the incumbent, a discrete GA, and random
//      sequences — the AIBO recipe adapted to categorical space),
//   3. *compile* every candidate (cheap) to collect its statistics
//      feature vector; identical binaries are resolved from the cache for
//      free,
//   4. score candidates with the acquisition function over the GP cost
//      model fit on (statistics, measured runtime) pairs, plus a coverage
//      bonus that steers away from already-observed feature points
//      (Sec. 5.3.4's fix for the sparse feature space of Table 5.2),
//   5. measure only the winning candidate (one runtime measurement),
//      update the model, the heuristics, and the allocation bandit.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "af/acquisition.hpp"
#include "citroen/features.hpp"
#include "gp/gp.hpp"
#include "sim/evaluator.hpp"

namespace citroen::core {

struct CitroenConfig {
  int budget = 100;            ///< runtime measurements
  int initial_random = 10;     ///< random sequences measured up-front
  int candidates_per_iter = 16;///< compile-only candidates per iteration
  int max_seq_len = 60;        ///< paper: 120 over 76 passes; scaled
  double hot_threshold = 0.9;  ///< tune modules covering this runtime share
  int max_hot_modules = 3;

  af::AfConfig af;             ///< default UCB beta=1.96
  gp::GpConfig gp;
  int refit_period = 4;        ///< full hyper-refit every k iterations
  /// On refactor-only rounds with an unchanged active feature set, freeze
  /// the input/output transforms, append-transform only the new
  /// observations and let the GP extend its Cholesky factor rank-one
  /// (O(n^2)) instead of refitting from scratch (O(n^3)).
  bool incremental_gp = true;

  enum class Features { Stats, Autophase, RawSequence };
  Features features = Features::Stats;   ///< Fig. 5.9 alternatives

  bool coverage_af = true;     ///< ablation: disable the coverage bonus
  double coverage_weight = 0.25;
  bool heuristic_generator = true;  ///< ablation: random-only candidates
  bool adaptive_allocation = true;  ///< ablation: round-robin modules
  double bandit_explore = 0.5;

  /// Pass names forming the search space (default: the full registry;
  /// `passes::legacy_pass_names()` models the older compiler of
  /// Fig. 5.10).
  std::vector<std::string> pass_space;

  /// Warm-start observations from a previous run on another program
  /// (the thesis's Sec. 6.3.3 future-work direction: exploiting
  /// program-independent pass correlations). Feature dimensionality must
  /// match this tuner's configuration (same feature kind and module
  /// count); mismatching entries are ignored.
  std::vector<std::pair<Vec, double>> warm_start;

  /// Transfer-corpus winners: (module name, pass-name sequence) pairs
  /// measured by the FIRST phase-1 attempts in place of random
  /// sequences. Names that no longer resolve (unknown module or pass)
  /// are dropped. Every seed is validated by an ordinary measurement
  /// before it can become an incumbent, so a stale or mismatched seed
  /// can waste budget but never produce a wrong answer. An empty list
  /// keeps phase 1 byte-identical to a run without a corpus: seeded
  /// attempts consume no RNG draws and leave the round-robin cursor
  /// untouched.
  std::vector<std::pair<std::string, std::vector<std::string>>>
      seed_sequences;

  std::uint64_t seed = 1;
};

struct TuneResult {
  double best_speedup = 0.0;   ///< over -O3
  sim::SequenceAssignment best_assignment;
  Vec speedup_curve;           ///< best-so-far after each measurement
  std::map<std::string, int> measurements_per_module;
  int measurements = 0;
  int compiles = 0;
  int cache_hits = 0;          ///< identical-binary reuses
  int invalid = 0;             ///< builds rejected by verify/difftest
  /// Invalid evaluations per failure class ("crash", "hang",
  /// "miscompile", "noisy-rejected", "verifier") — the final report's
  /// failure breakdown.
  std::map<std::string, int> failure_counts;
  int quarantined_skipped = 0; ///< candidates dropped via the quarantine set
  int gp_fit_failures = 0;     ///< cost-model refits that had to be discarded
  int random_fallback_rounds = 0;  ///< iterations run without a model
  int feature_collisions = 0;  ///< distinct binaries, identical features
  double model_seconds = 0.0;
  double compile_seconds = 0.0;
  double measure_seconds = 0.0;
  /// (feature name, ARD relevance = 1/lengthscale), descending — the
  /// Table 5.5 ranking of impactful compilation statistics.
  std::vector<std::pair<std::string, double>> stat_relevance;
  /// Every (feature, normalised runtime) observation gathered during the
  /// run; feed as `warm_start` to transfer knowledge to another program.
  std::vector<std::pair<Vec, double>> observations;
};

class CitroenTuner {
 public:
  /// Works against any `sim::Evaluator` — the plain `ProgramEvaluator`
  /// or the hardened `RobustEvaluator` (whose quarantine set the
  /// candidate generators consult via `is_quarantined`).
  CitroenTuner(sim::Evaluator& evaluator, CitroenConfig config);
  ~CitroenTuner();

  /// One-shot convenience: start() + step() to exhaustion + finish().
  TuneResult run();

  // ---- stepwise API (crash-safe runners) --------------------------------
  // The same search, advanced one unit at a time so a runner can
  // checkpoint, honour a deadline, or stop between steps. run() is
  // byte-identical to driving these by hand.

  /// Reset to a fresh run (applies warm-start observations).
  void start();
  /// Advance one unit — one phase-1 random attempt or one phase-2
  /// model-guided iteration. Returns false once the budget/iteration
  /// limits are exhausted (the run is complete).
  bool step();
  /// Assemble the result from the current state. Idempotent and valid
  /// mid-run, so an interrupted run still reports its best-so-far.
  TuneResult finish() const;
  bool started() const { return impl_ != nullptr; }

  /// Serialize/restore the complete search state — RNG stream, per-module
  /// heuristics, model training set, GP factorisation, transforms,
  /// result-so-far — such that a restored tuner continues byte-identically
  /// to one that never stopped. load_state() implies start().
  void save_state(persist::Writer& w) const;
  void load_state(persist::Reader& r);

  /// Modules selected for tuning (after hot-module profiling).
  const std::vector<std::string>& tuned_modules() const { return modules_; }

 private:
  struct Impl;

  sim::Evaluator& eval_;
  CitroenConfig config_;
  std::vector<std::string> modules_;
  std::unique_ptr<Impl> impl_;
};

/// Hot-module selection (Sec. 5.3.1), shared by CITROEN and the
/// baselines: the hottest modules covering `threshold` of runtime,
/// capped at `max_modules`, never the dispatch-only driver, sorted by
/// name. Exposed so the transfer corpus can probe exactly the modules a
/// tuner will tune (its config's hot_threshold and max_hot_modules)
/// before the tuner is constructed.
std::vector<std::string> select_hot_modules(const sim::Evaluator& evaluator,
                                            double threshold,
                                            int max_modules);

/// Serialization of a finished result (the `complete` checkpoint stores
/// it so a resumed-but-finished run returns without recomputation).
void put(persist::Writer& w, const TuneResult& r);
void get(persist::Reader& r, TuneResult& out);

}  // namespace citroen::core
