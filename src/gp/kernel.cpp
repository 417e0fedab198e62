#include "gp/kernel.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace citroen::gp {

namespace {
constexpr double kSqrt5 = 2.2360679774997896;
}

ArdKernel::ArdKernel(KernelType type, std::size_t dim) : type_(type) {
  set_hypers({Vec(dim, std::log(0.3)), 0.0});
}

void ArdKernel::set_hypers(KernelHypers hypers) {
  hypers_ = std::move(hypers);
  lengthscale_.resize(hypers_.log_lengthscale.size());
  for (std::size_t i = 0; i < lengthscale_.size(); ++i)
    lengthscale_[i] = std::exp(hypers_.log_lengthscale[i]);
  signal_var_ = std::exp(2.0 * hypers_.log_signal);
}

double ArdKernel::sq_dist(const Vec& a, const Vec& b) const {
  assert(a.size() == dim() && b.size() == dim());
  double u = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double t = (a[i] - b[i]) / lengthscale_[i];
    u += t * t;
  }
  return u;
}

ArdKernel::Terms ArdKernel::terms(double u) const {
  if (type_ == KernelType::RBF) {
    const double k = signal_var_ * std::exp(-0.5 * u);
    return {k, k};
  }
  const double d = std::sqrt(u);
  const double e = std::exp(-kSqrt5 * d);
  // dk/dlog l_i = s2 * (5/3)(1 + sqrt5 d) e^{-sqrt5 d} * u_i
  return {signal_var_ * (1.0 + kSqrt5 * d + 5.0 / 3.0 * u) * e,
          signal_var_ * (5.0 / 3.0) * (1.0 + kSqrt5 * d) * e};
}

double ArdKernel::eval(const Vec& a, const Vec& b) const {
  return terms(sq_dist(a, b)).k;
}

Vec ArdKernel::grad_x(const Vec& x, const Vec& b) const {
  const std::size_t n = dim();
  Vec g(n, 0.0);
  const double s2 = signal_var_;
  const double u = sq_dist(x, b);
  if (type_ == KernelType::RBF) {
    const double k = s2 * std::exp(-0.5 * u);
    for (std::size_t i = 0; i < n; ++i) {
      const double l = lengthscale_[i];
      g[i] = -k * (x[i] - b[i]) / (l * l);
    }
    return g;
  }
  const double d = std::sqrt(u);
  if (d < 1e-12) return g;  // gradient is zero at coincident points
  // dk/dd = -s2 * (5d/3)(1 + sqrt5 d) exp(-sqrt5 d)
  const double dk_dd =
      -s2 * (5.0 * d / 3.0) * (1.0 + kSqrt5 * d) * std::exp(-kSqrt5 * d);
  for (std::size_t i = 0; i < n; ++i) {
    const double l = lengthscale_[i];
    const double dd_dxi = (x[i] - b[i]) / (l * l * d);
    g[i] = dk_dd * dd_dxi;
  }
  return g;
}

}  // namespace citroen::gp
