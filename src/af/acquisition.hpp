#pragma once
// Acquisition functions over a GP posterior (minimisation convention:
// lower objective is better; the AF itself is MAXIMISED).
//
//   UCB(x) = -mu(x) + sqrt(beta) * sigma(x)        (eq. 4.1)
//   EI(x)  = (best - mu) Phi(z) + sigma phi(z),  z = (best - mu)/sigma
//   PI(x)  = Phi(z)
//
// Analytic values and input gradients serve the multi-start gradient
// maximiser.

#include <utility>
#include <vector>

#include "gp/gp.hpp"

namespace citroen::af {

enum class AfKind { UCB, EI, PI };

struct AfConfig {
  AfKind kind = AfKind::UCB;
  double beta = 1.96;   ///< UCB exploration weight (beta_t)
};

/// Analytic acquisition over a fitted GP.
class Acquisition {
 public:
  Acquisition(const gp::GaussianProcess* model, AfConfig config,
              double best_y)
      : model_(model), config_(config), best_y_(best_y) {}

  double value(const Vec& x) const;

  /// Value and gradient w.r.t. x.
  std::pair<double, Vec> value_grad(const Vec& x) const;

  const AfConfig& config() const { return config_; }
  double best_y() const { return best_y_; }
  const gp::GaussianProcess* model() const { return model_; }

 private:
  const gp::GaussianProcess* model_;
  AfConfig config_;
  double best_y_;
};

/// Standard normal pdf/cdf helpers.
double normal_pdf(double z);
double normal_cdf(double z);

}  // namespace citroen::af
