#pragma once
// Exact Gaussian-process regression with ARD kernels, fitted by Adam on
// the analytic log-marginal-likelihood gradient (Sec. 4.3.2: Matérn-5/2
// ARD, constant mean, bounded hyper-parameters, inputs rescaled to
// [0,1]^d and outputs Yeo-Johnson-standardised by the caller).

#include <cstddef>
#include <vector>

#include "gp/kernel.hpp"
#include "support/matrix.hpp"

namespace citroen::persist {
class Writer;  // persist/codec.hpp
class Reader;
}

namespace citroen::gp {

struct GpConfig {
  KernelType kernel = KernelType::Matern52;
  int fit_steps = 30;          ///< Adam iterations on the LML
  double learning_rate = 0.1;
  // Bounds follow Sec. 4.3.2 (lengthscale in [0.005, 20], noise variance
  // in [1e-6, 1e-2]).
  double min_lengthscale = 0.005;
  double max_lengthscale = 20.0;
  double min_noise_var = 1e-6;
  double max_noise_var = 1e-2;
  bool fit_hypers = true;      ///< false: keep current hypers, refactor only
  /// Use O(n^2) rank-one Cholesky updates for refactor-only fits whose
  /// data extend the previous fit (hyper-parameter rounds always pay the
  /// full O(n^3) refit). Disable to force full refactorisation.
  bool incremental = true;
};

struct Posterior {
  double mean = 0.0;
  double var = 0.0;
};

struct PosteriorGrad {
  double mean = 0.0;
  double var = 0.0;
  Vec dmean;  ///< d mean / d x
  Vec dvar;   ///< d var / d x
};

class GaussianProcess {
 public:
  explicit GaussianProcess(std::size_t dim, GpConfig config = {});

  std::size_t dim() const { return dim_; }
  std::size_t num_points() const { return x_.size(); }
  const GpConfig& config() const { return config_; }

  /// Toggle hyper-parameter optimisation for subsequent fits (used to
  /// alternate cheap refactor-only updates with full refits).
  void set_fit_hypers(bool enable) { config_.fit_hypers = enable; }

  /// Fit to the data: optimise hyper-parameters (unless disabled) and
  /// factorise. Inputs are expected in [0,1]^d; outputs standardised.
  void fit(const std::vector<Vec>& x, const Vec& y);

  /// Posterior at a point.
  Posterior predict(const Vec& x) const;

  /// Posterior with input gradients (for gradient-based AF maximisation).
  PosteriorGrad predict_with_grad(const Vec& x) const;

  /// Log marginal likelihood of the current fit.
  double log_marginal_likelihood() const { return lml_; }

  /// Learned ARD lengthscales (small = relevant dimension). Used by the
  /// Table 5.5 experiment to rank compilation statistics.
  Vec lengthscales() const;

  double noise_variance() const { return noise_var_; }

  /// Fit-path counters (observability for benches/tests).
  int num_incremental_fits() const { return num_incremental_; }
  int num_full_fits() const { return num_full_; }

  /// Checkpoint/restore the exact fitted state: training set, hypers,
  /// Cholesky factor and fit-path counters. The factor is stored
  /// bit-for-bit — an incrementally-extended factor differs from a
  /// from-scratch refit in the last ulps, so refitting on resume would
  /// break byte-identical replay. Restoring into a GP of a different
  /// dimensionality throws.
  void save_state(persist::Writer& w) const;
  void load_state(persist::Reader& r);

 private:
  /// Per pair of training points, as symmetric matrices: the noise-free
  /// kernel value and the scale of its lengthscale derivatives (see
  /// ArdKernel::terms). The hyper-parameter gradient is built from these.
  struct PairTerms {
    Matrix k;
    Matrix scale;
  };

  /// Build K under the current hypers, recording `terms` when given, and
  /// factorise it.
  void factorize(PairTerms* terms = nullptr);
  /// d LML / d [log lengthscales..., log signal, log noise] at the
  /// current factorisation; `terms` come from the factorize() that built it.
  Vec lml_gradient(const PairTerms& terms) const;
  /// Rank-one path: succeeds only when (x, y) extend the previous fit
  /// exactly and every appended point keeps the factor positive definite.
  bool try_incremental_fit(const std::vector<Vec>& x, const Vec& y);

  std::size_t dim_;
  GpConfig config_;
  ArdKernel kernel_;
  double log_noise_ = -3.0;  ///< log of the noise std-dev
  double noise_var_ = 1e-3;

  std::vector<Vec> x_;
  Vec y_;
  Cholesky chol_;
  Vec alpha_;  ///< K^{-1} y
  double lml_ = 0.0;
  /// Set when factorize() fell back to the jittered-identity factor;
  /// such a factor must never be extended incrementally.
  bool fallback_factor_ = false;
  int num_incremental_ = 0;
  int num_full_ = 0;
};

}  // namespace citroen::gp
