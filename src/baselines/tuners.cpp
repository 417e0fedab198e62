#include "baselines/tuners.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/random_forest.hpp"
#include "citroen/features.hpp"
#include "citroen/tuner.hpp"
#include "heuristics/des.hpp"
#include "heuristics/ga.hpp"
#include "passes/pass.hpp"
#include "persist/codec.hpp"

namespace citroen::baselines {

using heuristics::Sequence;

void put(persist::Writer& w, const TuneTrace& t) {
  w.str(t.tuner);
  w.f64(t.best_speedup);
  sim::put(w, t.best_assignment);
  persist::put(w, t.speedup_curve);
  w.i32(t.invalid);
  persist::put(w, t.failure_counts);
  w.i32(t.quarantined_skipped);
}

void get(persist::Reader& r, TuneTrace& out) {
  out = TuneTrace{};
  out.tuner = r.str();
  out.best_speedup = r.f64();
  sim::get(r, out.best_assignment);
  persist::get(r, out.speedup_curve);
  out.invalid = r.i32();
  persist::get(r, out.failure_counts);
  out.quarantined_skipped = r.i32();
}

namespace {

struct Session {
  sim::Evaluator& eval;
  PhaseTunerConfig config;
  std::vector<std::string> modules;
  std::vector<std::string> space;
  TuneTrace trace;
  int used = 0;

  Session(sim::Evaluator& e, const PhaseTunerConfig& c)
      : eval(e), config(c) {
    space = c.pass_space.empty()
                ? passes::PassRegistry::instance().pass_names()
                : c.pass_space;
    modules = core::select_hot_modules(e, c.hot_threshold, c.max_hot_modules);
  }

  int num_passes() const { return static_cast<int>(space.size()); }

  /// The whole-program assignment a sequence denotes: the same pass
  /// order applied to every tuned module.
  sim::SequenceAssignment assignment(const Sequence& s) const {
    sim::SequenceAssignment a;
    std::vector<std::string> names;
    names.reserve(s.size());
    for (int p : s) names.push_back(space[static_cast<std::size_t>(p)]);
    for (const auto& m : modules) a[m] = names;
    return a;
  }

  /// Warm the evaluator's memo caches for an upcoming chunk of
  /// candidates. Purely a performance hint: replaying `measure` over the
  /// chunk afterwards yields bit-identical traces at any thread count.
  void prefetch(const std::vector<Sequence>& chunk) {
    std::vector<sim::SequenceAssignment> assigns;
    assigns.reserve(chunk.size());
    for (const auto& c : chunk) assigns.push_back(assignment(c));
    eval.prefetch(assigns, /*with_measure=*/true);
  }

  /// Measure one sequence applied to every tuned module. Returns the
  /// normalised runtime y (cycles / o3; invalid builds = 4.0).
  double measure(const Sequence& s) {
    const sim::SequenceAssignment a = assignment(s);
    // A quarantined signature is a known deterministic failure: learn
    // "bad" for free instead of burning an evaluation on it.
    if (eval.is_quarantined(a)) {
      ++trace.quarantined_skipped;
      return 4.0;
    }
    const auto out = eval.evaluate(a);
    double y;
    if (!out.valid) {
      ++trace.invalid;
      ++trace.failure_counts[sim::failure_kind_name(out.failure)];
      y = 4.0;
    } else {
      y = 1.0 / out.speedup;
    }
    if (!out.cache_hit) {
      ++used;
      trace.speedup_curve.push_back(std::max(
          trace.speedup_curve.empty() ? 0.0 : trace.speedup_curve.back(),
          1.0 / y));
    }
    if (out.valid && y < best_y) {
      best_y = y;
      trace.best_assignment = a;
    }
    return y;
  }

  double best_y = 1e300;  ///< best observed normalised runtime

  bool done() const { return used >= config.budget; }

  TuneTrace finish(std::string name) {
    trace.tuner = std::move(name);
    trace.best_speedup =
        trace.speedup_curve.empty() ? 0.0 : trace.speedup_curve.back();
    return trace;
  }
};

/// Common state every baseline shares: the session (trace + budget
/// accounting), the RNG stream and the attempt safety valve.
class BaseTuner : public ResumablePhaseTuner {
 public:
  BaseTuner(std::string name, sim::Evaluator& e, const PhaseTunerConfig& c)
      : name_(std::move(name)), s_(e, c), rng_(c.seed) {}

  const std::string& name() const override { return name_; }
  TuneTrace finish() override { return s_.finish(name_); }

  void save_state(persist::Writer& w) const override {
    put(w, s_.trace);
    w.i32(s_.used);
    w.f64(s_.best_y);
    persist::put(w, rng_);
    w.i32(attempts_);
    save_extra(w);
  }

  void load_state(persist::Reader& r) override {
    get(r, s_.trace);
    s_.used = r.i32();
    s_.best_y = r.f64();
    persist::get(r, rng_);
    attempts_ = r.i32();
    load_extra(r);
  }

 protected:
  virtual void save_extra(persist::Writer&) const {}
  virtual void load_extra(persist::Reader&) {}

  int attempt_limit() const { return s_.config.budget * 20; }

  std::string name_;
  Session s_;
  Rng rng_;
  int attempts_ = 0;
};

class RandomTuner final : public BaseTuner {
 public:
  using BaseTuner::BaseTuner;

  // One chunk of candidates per step, generated up-front so the
  // evaluator can compile and measure the whole chunk concurrently
  // before the serial replay. The replay order (and the RNG stream:
  // `measure` consumes no randomness) is identical to generating one
  // candidate at a time.
  bool step() override {
    if (s_.done() || attempts_ >= attempt_limit()) return false;
    std::vector<Sequence> chunk;
    const int n = std::min(16, attempt_limit() - attempts_);
    chunk.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      chunk.push_back(heuristics::random_sequence(
          s_.num_passes(), s_.config.max_seq_len, rng_));
    attempts_ += n;
    s_.prefetch(chunk);
    for (const auto& c : chunk) {
      if (s_.done()) break;
      s_.measure(c);
    }
    return true;
  }
};

class GaTuner final : public BaseTuner {
 public:
  GaTuner(std::string name, sim::Evaluator& e, const PhaseTunerConfig& c)
      : BaseTuner(std::move(name), e, c),
        ga_(s_.num_passes(), c.max_seq_len) {}

  bool step() override {
    if (s_.done() || attempts_ >= attempt_limit()) return false;
    ++attempts_;
    const auto batch = ga_.ask(4, rng_);
    s_.prefetch(batch);  // hint only; tell/measure order stays serial
    for (const auto& c : batch) {
      if (s_.done()) break;
      ga_.tell(c, s_.measure(c));
    }
    return true;
  }

 protected:
  void save_extra(persist::Writer& w) const override {
    w.u64(ga_.population().size());
    for (const auto& [seq, y] : ga_.population()) {
      persist::put(w, seq);
      w.f64(y);
    }
  }

  void load_extra(persist::Reader& r) override {
    const std::uint64_t n = r.u64();
    std::vector<std::pair<Sequence, double>> pop;
    pop.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Sequence seq;
      persist::get(r, seq);
      const double y = r.f64();
      pop.emplace_back(std::move(seq), y);
    }
    ga_.set_population(std::move(pop));
  }

 private:
  heuristics::GaSequence ga_;
};

class DesTuner final : public BaseTuner {
 public:
  DesTuner(std::string name, sim::Evaluator& e, const PhaseTunerConfig& c)
      : BaseTuner(std::move(name), e, c),
        des_(s_.num_passes(), c.max_seq_len) {}

  bool step() override {
    if (s_.done() || attempts_ >= attempt_limit()) return false;
    ++attempts_;
    const auto batch = des_.ask(4, rng_);
    s_.prefetch(batch);  // hint only; tell/measure order stays serial
    for (const auto& c : batch) {
      if (s_.done()) break;
      des_.tell(c, s_.measure(c));
    }
    return true;
  }

 protected:
  void save_extra(persist::Writer& w) const override {
    persist::put(w, des_.incumbent());
    w.f64(des_.incumbent_value());
  }

  void load_extra(persist::Reader& r) override {
    Sequence best;
    persist::get(r, best);
    const double y = r.f64();
    des_.set_incumbent(std::move(best), y);
  }

 private:
  heuristics::DesSequence des_;
};

class EnsembleTuner final : public BaseTuner {
 public:
  EnsembleTuner(std::string name, sim::Evaluator& e,
                const PhaseTunerConfig& c)
      : BaseTuner(std::move(name), e, c),
        ga_(s_.num_passes(), c.max_seq_len),
        des_(s_.num_passes(), c.max_seq_len) {}

  // OpenTuner-style AUC credit: techniques earn score for improvements
  // and are sampled proportionally (plus smoothing for exploration).
  // Candidates are picked one at a time because each pick depends on the
  // credit updated by the previous measurement — no batch to prefetch.
  bool step() override {
    if (s_.done() || attempts_ >= attempt_limit()) return false;
    ++attempts_;
    const std::size_t pick = rng_.categorical(credit_);
    Sequence c;
    if (pick == 0) {
      c = ga_.ask(1, rng_)[0];
    } else if (pick == 1) {
      c = des_.ask(1, rng_)[0];
    } else {
      c = heuristics::random_sequence(s_.num_passes(),
                                      s_.config.max_seq_len, rng_);
    }
    const double y = s_.measure(c);
    ga_.tell(c, y);
    des_.tell(c, y);
    if (y < ens_best_y_) {
      ens_best_y_ = y;
      credit_[pick] += 1.0;
    } else {
      credit_[pick] = std::max(0.2, credit_[pick] * 0.98);
    }
    return true;
  }

 protected:
  void save_extra(persist::Writer& w) const override {
    w.u64(ga_.population().size());
    for (const auto& [seq, y] : ga_.population()) {
      persist::put(w, seq);
      w.f64(y);
    }
    persist::put(w, des_.incumbent());
    w.f64(des_.incumbent_value());
    persist::put(w, credit_);
    w.f64(ens_best_y_);
  }

  void load_extra(persist::Reader& r) override {
    const std::uint64_t n = r.u64();
    std::vector<std::pair<Sequence, double>> pop;
    pop.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Sequence seq;
      persist::get(r, seq);
      const double y = r.f64();
      pop.emplace_back(std::move(seq), y);
    }
    ga_.set_population(std::move(pop));
    Sequence best;
    persist::get(r, best);
    const double dy = r.f64();
    des_.set_incumbent(std::move(best), dy);
    persist::get(r, credit_);
    ens_best_y_ = r.f64();
  }

 private:
  heuristics::GaSequence ga_;
  heuristics::DesSequence des_;
  Vec credit_{1.0, 1.0, 1.0};  // ga, des, random
  double ens_best_y_ = 1e300;
};

class RfBoTuner final : public BaseTuner {
 public:
  RfBoTuner(std::string name, sim::Evaluator& e, const PhaseTunerConfig& c)
      : BaseTuner(std::move(name), e, c),
        feat_(s_.num_passes(), c.max_seq_len) {}

  bool step() override {
    // Initial random design (BOCA uses a random start set), prefetched
    // as one chunk; the serial observe order is unchanged.
    if (!init_done_) {
      init_done_ = true;
      const int init = std::min(8, s_.config.budget / 4 + 1);
      std::vector<Sequence> chunk;
      chunk.reserve(static_cast<std::size_t>(init));
      for (int i = 0; i < init; ++i)
        chunk.push_back(heuristics::random_sequence(
            s_.num_passes(), s_.config.max_seq_len, rng_));
      s_.prefetch(chunk);
      for (const auto& c : chunk) {
        if (static_cast<int>(ys_.size()) >= init || s_.done() ||
            attempts_++ >= attempt_limit())
          break;
        observe(c);
      }
      return true;
    }
    if (s_.done() || attempts_ >= attempt_limit()) return false;
    ++attempts_;
    // The forest is refit from (xs, ys, rng) at the top of every
    // iteration, so it carries no state across step boundaries and is
    // never checkpointed; restoring the training set and the RNG stream
    // reproduces it exactly.
    forest_.fit(xs_, ys_, rng_);
    double best_y = *std::min_element(ys_.begin(), ys_.end());

    // Candidate pool: mutations of the best sequences + random (BOCA's
    // neighbourhood expansion around promising decision settings).
    std::vector<Sequence> pool;
    std::vector<std::size_t> order(ys_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ys_[a] < ys_[b]; });
    for (int k = 0; k < 24; ++k) {
      if (k < 16 && !order.empty()) {
        const Sequence& base =
            seqs_[order[static_cast<std::size_t>(k) %
                        std::min<std::size_t>(4, order.size())]];
        pool.push_back(heuristics::mutate_sequence(
            base, s_.num_passes(), s_.config.max_seq_len, rng_));
      } else {
        pool.push_back(heuristics::random_sequence(
            s_.num_passes(), s_.config.max_seq_len, rng_));
      }
    }
    // EI over the forest.
    double best_ei = -1.0;
    const Sequence* winner = &pool[0];
    for (const auto& c : pool) {
      const auto [mean, var] = forest_.predict(feat_.extract(c));
      const double sigma = std::sqrt(std::max(var, 1e-12));
      const double z = (best_y - mean) / sigma;
      const double cdf = 0.5 * std::erfc(-z * 0.7071067811865476);
      const double pdf = 0.3989422804014327 * std::exp(-0.5 * z * z);
      const double ei = (best_y - mean) * cdf + sigma * pdf;
      if (ei > best_ei) {
        best_ei = ei;
        winner = &c;
      }
    }
    observe(*winner);
    return true;
  }

 protected:
  void save_extra(persist::Writer& w) const override {
    w.b(init_done_);
    w.u64(seqs_.size());
    for (const auto& seq : seqs_) persist::put(w, seq);
    persist::put(w, ys_);
  }

  void load_extra(persist::Reader& r) override {
    init_done_ = r.b();
    const std::uint64_t n = r.u64();
    seqs_.clear();
    seqs_.reserve(n);
    xs_.clear();
    xs_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Sequence seq;
      persist::get(r, seq);
      xs_.push_back(feat_.extract(seq));  // derived, recomputed on load
      seqs_.push_back(std::move(seq));
    }
    persist::get(r, ys_);
  }

 private:
  double observe(const Sequence& c) {
    const double y = s_.measure(c);
    seqs_.push_back(c);
    xs_.push_back(feat_.extract(c));
    ys_.push_back(y);
    return y;
  }

  core::SequenceFeatures feat_;
  std::vector<Sequence> seqs_;
  std::vector<Vec> xs_;
  Vec ys_;
  RandomForest forest_;
  bool init_done_ = false;
};

TuneTrace run_to_completion(ResumablePhaseTuner& t) {
  while (t.step()) {
  }
  return t.finish();
}

}  // namespace

std::unique_ptr<ResumablePhaseTuner> make_phase_tuner(
    const std::string& name, sim::Evaluator& eval,
    const PhaseTunerConfig& config) {
  if (name == "random")
    return std::make_unique<RandomTuner>(name, eval, config);
  if (name == "ga") return std::make_unique<GaTuner>(name, eval, config);
  if (name == "des") return std::make_unique<DesTuner>(name, eval, config);
  if (name == "opentuner")
    return std::make_unique<EnsembleTuner>(name, eval, config);
  if (name == "boca")
    return std::make_unique<RfBoTuner>(name, eval, config);
  throw std::invalid_argument("unknown baseline tuner: " + name);
}

TuneTrace run_random_search(sim::Evaluator& eval,
                            const PhaseTunerConfig& config) {
  RandomTuner t("random", eval, config);
  return run_to_completion(t);
}

TuneTrace run_ga_tuner(sim::Evaluator& eval,
                       const PhaseTunerConfig& config) {
  GaTuner t("ga", eval, config);
  return run_to_completion(t);
}

TuneTrace run_des_tuner(sim::Evaluator& eval,
                        const PhaseTunerConfig& config) {
  DesTuner t("des", eval, config);
  return run_to_completion(t);
}

TuneTrace run_ensemble_tuner(sim::Evaluator& eval,
                             const PhaseTunerConfig& config) {
  EnsembleTuner t("opentuner", eval, config);
  return run_to_completion(t);
}

TuneTrace run_rf_bo_tuner(sim::Evaluator& eval,
                          const PhaseTunerConfig& config) {
  RfBoTuner t("boca", eval, config);
  return run_to_completion(t);
}

}  // namespace citroen::baselines
