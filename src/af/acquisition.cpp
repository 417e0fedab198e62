#include "af/acquisition.hpp"

#include <algorithm>
#include <cmath>

namespace citroen::af {

double normal_pdf(double z) {
  return 0.3989422804014327 * std::exp(-0.5 * z * z);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z * 0.7071067811865476); }

double Acquisition::value(const Vec& x) const {
  const auto p = model_->predict(x);
  const double sigma = std::sqrt(p.var);
  switch (config_.kind) {
    case AfKind::UCB:
      return -p.mean + std::sqrt(config_.beta) * sigma;
    case AfKind::EI: {
      if (sigma < 1e-12) return std::max(0.0, best_y_ - p.mean);
      const double z = (best_y_ - p.mean) / sigma;
      return (best_y_ - p.mean) * normal_cdf(z) + sigma * normal_pdf(z);
    }
    case AfKind::PI: {
      if (sigma < 1e-12) return best_y_ > p.mean ? 1.0 : 0.0;
      return normal_cdf((best_y_ - p.mean) / sigma);
    }
  }
  return 0.0;
}

std::pair<double, Vec> Acquisition::value_grad(const Vec& x) const {
  const auto p = model_->predict_with_grad(x);
  const double sigma = std::sqrt(p.var);
  const std::size_t d = x.size();
  Vec dsigma(d);
  for (std::size_t i = 0; i < d; ++i)
    dsigma[i] = p.dvar[i] / (2.0 * std::max(sigma, 1e-12));

  switch (config_.kind) {
    case AfKind::UCB: {
      const double v = -p.mean + std::sqrt(config_.beta) * sigma;
      Vec g(d);
      for (std::size_t i = 0; i < d; ++i)
        g[i] = -p.dmean[i] + std::sqrt(config_.beta) * dsigma[i];
      return {v, g};
    }
    case AfKind::EI: {
      if (sigma < 1e-12) {
        Vec g(d, 0.0);
        return {std::max(0.0, best_y_ - p.mean), g};
      }
      const double z = (best_y_ - p.mean) / sigma;
      const double cdf = normal_cdf(z);
      const double pdf = normal_pdf(z);
      const double v = (best_y_ - p.mean) * cdf + sigma * pdf;
      // dEI = -cdf * dmu + pdf * dsigma (standard identity).
      Vec g(d);
      for (std::size_t i = 0; i < d; ++i)
        g[i] = -cdf * p.dmean[i] + pdf * dsigma[i];
      return {v, g};
    }
    case AfKind::PI: {
      if (sigma < 1e-12) {
        Vec g(d, 0.0);
        return {best_y_ > p.mean ? 1.0 : 0.0, g};
      }
      const double z = (best_y_ - p.mean) / sigma;
      const double pdf = normal_pdf(z);
      Vec g(d);
      for (std::size_t i = 0; i < d; ++i) {
        const double dz = (-p.dmean[i] * sigma -
                           (best_y_ - p.mean) * dsigma[i]) /
                          (sigma * sigma);
        g[i] = pdf * dz;
      }
      return {normal_cdf(z), g};
    }
  }
  return {0.0, Vec(d, 0.0)};
}

}  // namespace citroen::af
