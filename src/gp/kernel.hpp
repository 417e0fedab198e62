#pragma once
// ARD covariance kernels for the GP surrogate: RBF and Matérn-5/2 (the
// thesis default), with analytic derivatives w.r.t. both inputs (for
// gradient-based acquisition maximisation) and log-hyper-parameters (for
// marginal-likelihood fitting).

#include <vector>

#include "support/matrix.hpp"

namespace citroen::gp {

enum class KernelType { RBF, Matern52 };

struct KernelHypers {
  Vec log_lengthscale;     ///< one per input dimension (ARD)
  double log_signal = 0.0; ///< log of the signal std-dev
};

class ArdKernel {
 public:
  ArdKernel(KernelType type, std::size_t dim);

  KernelType type() const { return type_; }
  std::size_t dim() const { return hypers_.log_lengthscale.size(); }

  const KernelHypers& hypers() const { return hypers_; }

  /// The only way to change the hyper-parameters: also refreshes the
  /// cached lengthscales and signal variance, so they never go stale.
  void set_hypers(KernelHypers hypers);

  /// exp(log_lengthscale), cached.
  const Vec& lengthscales() const { return lengthscale_; }

  /// k(a, b).
  double eval(const Vec& a, const Vec& b) const;

  /// k(x, x) = signal variance, cached.
  double diag() const { return signal_var_; }

  /// k(a, b) depends on a and b only through the scaled squared distance
  /// u = sum_i ((a_i - b_i) / l_i)^2, summed in index order. terms(u)
  /// gives k and the scale of its lengthscale derivatives:
  /// d k / d log(l_i) = scale * ((a_i - b_i) / l_i)^2, while
  /// d k / d log(signal) = 2k.
  struct Terms {
    double k;
    double scale;
  };
  Terms terms(double u) const;

  /// d k(x, b) / d x  (gradient w.r.t. the first argument).
  Vec grad_x(const Vec& x, const Vec& b) const;

 private:
  double sq_dist(const Vec& a, const Vec& b) const;

  KernelType type_;
  KernelHypers hypers_;
  Vec lengthscale_;
  double signal_var_ = 1.0;
};

}  // namespace citroen::gp
