#include "gp/gp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/codec.hpp"
#include "support/thread_pool.hpp"

namespace citroen::gp {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;

// The fit's loops run on the global pool in blocks of constant size, so
// the partition depends on the problem size only, never on the pool size.
// A fit smaller than one block is a single task, which runs inline. The
// innermost loops have constant trip counts, which lets the compiler
// vectorise them element-wise: every lane computes exactly what a scalar
// loop would.
constexpr std::size_t kRowBlock = 16;  ///< kernel-matrix rows per task
constexpr std::size_t kLanes = 8;      ///< pairs per inner distance loop
constexpr std::size_t kColBlock = 16;  ///< K^{-1} columns per task
constexpr std::size_t kHyperSlice = 8; ///< lengthscales per gradient sweep
/// Gradient sweeps are grouped so a task covers at least this many
/// (pair, lengthscale) terms.
constexpr std::size_t kGradWork = std::size_t{1} << 16;

/// body(lo, hi) for each block of `block` indices in [0, n), one pool
/// task per block.
template <typename Body>
void for_blocks(std::size_t n, std::size_t block, const Body& body) {
  ThreadPool::global().parallel_for(
      (n + block - 1) / block, [&](std::size_t b) {
        body(b * block, std::min(n, (b + 1) * block));
      });
}

/// W = 0.5 (alpha alpha^T - K^{-1}), the weights of the LML gradient.
/// Column j of K^{-1} is exactly chol.solve(e_j): the same operations in
/// the same order, run for a block of columns at once. The forward sweep
/// of a block starts at its first column: above it every entry of e_j and
/// of the partial solution is +0, and subtracting L_ik * (+0) from +0
/// never changes a bit. Columns past n solve for e = 0 and are dropped.
Matrix gradient_weights(const Cholesky& chol, const Vec& alpha) {
  const Matrix& l = chol.L;
  const std::size_t n = l.rows();
  Matrix out(n, n);
  for_blocks(n, kColBlock, [&](std::size_t c0, std::size_t c1) {
    Matrix y(n, kColBlock);
    double acc[kColBlock];
    for (std::size_t i = c0; i < n; ++i) {  // L Y = E
      for (std::size_t c = 0; c < kColBlock; ++c)
        acc[c] = c0 + c == i ? 1.0 : 0.0;
      const double* li = l.row_ptr(i);
      for (std::size_t k = c0; k < i; ++k) {
        const double* yk = y.row_ptr(k);
        for (std::size_t c = 0; c < kColBlock; ++c) acc[c] -= li[k] * yk[c];
      }
      double* yi = y.row_ptr(i);
      for (std::size_t c = 0; c < kColBlock; ++c) yi[c] = acc[c] / li[i];
    }
    for (std::size_t i = n; i-- > 0;) {  // L^T X = Y
      double* yi = y.row_ptr(i);
      std::copy(yi, yi + kColBlock, acc);
      for (std::size_t k = i + 1; k < n; ++k) {
        const double lki = l(k, i);
        const double* yk = y.row_ptr(k);
        for (std::size_t c = 0; c < kColBlock; ++c) acc[c] -= lki * yk[c];
      }
      for (std::size_t c = 0; c < kColBlock; ++c) yi[c] = acc[c] / l(i, i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* yi = y.row_ptr(i);
      double* oi = out.row_ptr(i);
      for (std::size_t c = c0; c < c1; ++c)
        oi[c] = 0.5 * (alpha[i] * alpha[c] - yi[c - c0]);
    }
  });
  return out;
}

}  // namespace

GaussianProcess::GaussianProcess(std::size_t dim, GpConfig config)
    : dim_(dim), config_(config), kernel_(config.kernel, dim) {}

void GaussianProcess::factorize(PairTerms* terms) {
  const std::size_t n = x_.size();
  // X transposed, so the inner loop reads kLanes points' coordinate h at
  // once; the padding points (zeros) are computed and dropped.
  Matrix xt(dim_, (n + kLanes - 1) / kLanes * kLanes);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t h = 0; h < dim_; ++h) xt(h, i) = x_[i][h];
  const Vec& ls = kernel_.lengthscales();
  Matrix k(n, n);  // lower triangle only: cholesky() never reads above it
  if (terms) {
    terms->k = Matrix(n, n);
    terms->scale = Matrix(n, n);
  }
  for_blocks(n, kRowBlock, [&](std::size_t r0, std::size_t r1) {
    double u[kLanes];
    for (std::size_t i = r0; i < r1; ++i) {
      const double* xi = x_[i].data();
      for (std::size_t j0 = 0; j0 <= i; j0 += kLanes) {
        // The scaled squared distances u(x_i, x_j) of the lanes' j.
        std::fill(u, u + kLanes, 0.0);
        for (std::size_t h = 0; h < dim_; ++h) {
          const double xih = xi[h], l = ls[h];
          const double* xh = xt.row_ptr(h) + j0;
          for (std::size_t c = 0; c < kLanes; ++c) {
            const double t = (xih - xh[c]) / l;
            u[c] += t * t;
          }
        }
        for (std::size_t j = j0; j <= i && j < j0 + kLanes; ++j) {
          const auto t = kernel_.terms(u[j - j0]);
          k(i, j) = t.k;
          if (terms) {
            terms->k(i, j) = terms->k(j, i) = t.k;
            terms->scale(i, j) = terms->scale(j, i) = t.scale;
          }
        }
      }
      k(i, i) += noise_var_;
    }
  });
  chol_ = cholesky(k);
  fallback_factor_ = !chol_.ok;
  if (!chol_.ok) {
    // Pathological hypers: fall back to a heavily-jittered identity-ish
    // factorisation so predictions stay finite.
    for (std::size_t i = 0; i < n; ++i) k(i, i) += 1.0;
    chol_ = cholesky(k);
  }
  alpha_ = chol_.solve(y_);
  const double quad = dot(y_, alpha_);
  lml_ = -0.5 * quad - 0.5 * chol_.log_det() -
         0.5 * static_cast<double>(n) * kLog2Pi;
}

Vec GaussianProcess::lml_gradient(const PairTerms& terms) const {
  const std::size_t n = x_.size();
  const Matrix weights = gradient_weights(chol_, alpha_);
  // X and the lengthscales padded to whole slices with x = 0, l = 1; the
  // padding's sums are dropped.
  const std::size_t slices =
      std::max<std::size_t>(1, (dim_ + kHyperSlice - 1) / kHyperSlice);
  const std::size_t dpad = slices * kHyperSlice;
  Matrix xp(n, dpad);
  for (std::size_t i = 0; i < n; ++i)
    std::copy(x_[i].begin(), x_[i].end(), xp.row_ptr(i));
  Vec ls(dpad, 1.0);
  std::copy(kernel_.lengthscales().begin(), kernel_.lengthscales().end(),
            ls.begin());

  // dL/dtheta = 0.5 * sum_{ij} (alpha_i alpha_j - Kinv_ij) dK_ij/dtheta,
  // each sum over (i, j) in row-major order. The sums are independent of
  // one another, so slices of lengthscales are the pool tasks; the first
  // slice also carries the signal and noise sums.
  Vec grad(dim_ + 2, 0.0);
  const std::size_t per_task =
      std::max<std::size_t>(1, kGradWork / (n * n * kHyperSlice));
  for_blocks(slices, per_task, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const std::size_t h0 = s * kHyperSlice;
      double acc[kHyperSlice] = {};
      double signal = 0.0, noise = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* xi = xp.row_ptr(i) + h0;
        const double* wi = weights.row_ptr(i);
        const double* si = terms.scale.row_ptr(i);
        const double* ki = terms.k.row_ptr(i);
        for (std::size_t j = 0; j < n; ++j) {
          const double w = wi[j], scale = si[j];
          const double* xj = xp.row_ptr(j) + h0;
          for (std::size_t h = 0; h < kHyperSlice; ++h) {
            const double t = (xi[h] - xj[h]) / ls[h0 + h];
            acc[h] += w * (scale * (t * t));
          }
          if (s == 0) {
            signal += w * (2.0 * ki[j]);
            if (i == j) noise += w * 2.0 * noise_var_;
          }
        }
      }
      std::copy(acc, acc + std::min(kHyperSlice, dim_ - h0),
                grad.begin() + static_cast<std::ptrdiff_t>(h0));
      if (s == 0) {
        grad[dim_] = signal;
        grad[dim_ + 1] = noise;
      }
    }
  });
  return grad;
}

bool GaussianProcess::try_incremental_fit(const std::vector<Vec>& x,
                                          const Vec& y) {
  const std::size_t n = x_.size();
  if (n == 0 || x.size() <= n || fallback_factor_ || !chol_.ok) return false;
  // The previous fit must be an exact prefix: the factor we extend was
  // built from precisely these points under the current hypers.
  for (std::size_t i = 0; i < n; ++i)
    if (x[i] != x_[i] || y[i] != y_[i]) return false;

  for (std::size_t i = n; i < x.size(); ++i) {
    Vec k_new(i);
    for (std::size_t j = 0; j < i; ++j) k_new[j] = kernel_.eval(x[i], x[j]);
    if (!chol_.extend(k_new, kernel_.diag() + noise_var_)) return false;
    x_.push_back(x[i]);
    y_.push_back(y[i]);
  }
  alpha_ = chol_.solve(y_);
  lml_ = -0.5 * dot(y_, alpha_) - 0.5 * chol_.log_det() -
         0.5 * static_cast<double>(x_.size()) * kLog2Pi;
  return true;
}

void GaussianProcess::fit(const std::vector<Vec>& x, const Vec& y) {
  assert(x.size() == y.size());
  if (x.empty()) {
    x_ = x;
    y_ = y;
    return;
  }

  // Span name distinguishes the hyper-refit rounds fig5_12 attributes to
  // model time from the cheap refactor-only rounds between them.
  OBS_SPAN(config_.fit_hypers ? "gp_fit_hypers" : "gp_fit", "gp");
  OBS_INSTANT_ARG("gp_fit_points", "gp", "points", x.size());

  noise_var_ = std::exp(2.0 * log_noise_);
  if (!config_.fit_hypers && config_.incremental &&
      try_incremental_fit(x, y)) {
    ++num_incremental_;
    OBS_COUNTER_INC("citroen_gp_incremental_fits_total");
    return;
  }
  OBS_COUNTER_INC("citroen_gp_full_fits_total");
  // A failed incremental attempt may have appended some points; the full
  // assignment below overwrites any partial state.
  x_ = x;
  y_ = y;
  ++num_full_;
  const bool fit_hypers = config_.fit_hypers && config_.fit_steps > 0;
  PairTerms terms;
  factorize(fit_hypers ? &terms : nullptr);
  if (!fit_hypers) return;

  // Adam on [log lengthscales..., log signal, log noise].
  const std::size_t nh = dim_ + 2;
  Vec m(nh, 0.0), v(nh, 0.0);
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  double best_lml = lml_;
  KernelHypers best = kernel_.hypers();
  double best_noise = log_noise_;

  for (int step = 1; step <= config_.fit_steps; ++step) {
    const Vec g = lml_gradient(terms);
    KernelHypers hp = kernel_.hypers();
    for (std::size_t h = 0; h < nh; ++h) {
      m[h] = b1 * m[h] + (1 - b1) * g[h];
      v[h] = b2 * v[h] + (1 - b2) * g[h] * g[h];
      const double mh = m[h] / (1 - std::pow(b1, step));
      const double vh = v[h] / (1 - std::pow(b2, step));
      const double delta =
          config_.learning_rate * mh / (std::sqrt(vh) + eps);
      // Ascent (maximising LML).
      if (h < dim_) {
        double& ll = hp.log_lengthscale[h];
        ll = std::clamp(ll + delta, std::log(config_.min_lengthscale),
                        std::log(config_.max_lengthscale));
      } else if (h == dim_) {
        hp.log_signal = std::clamp(hp.log_signal + delta, std::log(1e-3),
                                   std::log(1e3));
      } else {
        log_noise_ = std::clamp(
            log_noise_ + delta, 0.5 * std::log(config_.min_noise_var),
            0.5 * std::log(config_.max_noise_var));
      }
    }
    kernel_.set_hypers(std::move(hp));
    noise_var_ = std::exp(2.0 * log_noise_);
    factorize(step < config_.fit_steps ? &terms : nullptr);
    if (lml_ > best_lml) {
      best_lml = lml_;
      best = kernel_.hypers();
      best_noise = log_noise_;
    }
  }
  kernel_.set_hypers(std::move(best));
  log_noise_ = best_noise;
  noise_var_ = std::exp(2.0 * log_noise_);
  factorize();
}

Posterior GaussianProcess::predict(const Vec& x) const {
  Posterior p;
  const std::size_t n = x_.size();
  if (n == 0) {
    p.var = kernel_.diag();
    return p;
  }
  Vec ks(n);
  for (std::size_t i = 0; i < n; ++i) ks[i] = kernel_.eval(x, x_[i]);
  p.mean = dot(ks, alpha_);
  const Vec v = chol_.solve(ks);
  p.var = std::max(1e-12, kernel_.diag() - dot(ks, v) + noise_var_);
  return p;
}

PosteriorGrad GaussianProcess::predict_with_grad(const Vec& x) const {
  PosteriorGrad p;
  p.dmean.assign(dim_, 0.0);
  p.dvar.assign(dim_, 0.0);
  const std::size_t n = x_.size();
  if (n == 0) {
    p.var = kernel_.diag();
    return p;
  }
  Vec ks(n);
  std::vector<Vec> dks(n);
  for (std::size_t i = 0; i < n; ++i) {
    ks[i] = kernel_.eval(x, x_[i]);
    dks[i] = kernel_.grad_x(x, x_[i]);
  }
  p.mean = dot(ks, alpha_);
  const Vec v = chol_.solve(ks);
  p.var = std::max(1e-12, kernel_.diag() - dot(ks, v) + noise_var_);
  for (std::size_t d = 0; d < dim_; ++d) {
    double dm = 0.0, dv = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dm += alpha_[i] * dks[i][d];
      dv += -2.0 * v[i] * dks[i][d];
    }
    p.dmean[d] = dm;
    p.dvar[d] = dv;
  }
  return p;
}

Vec GaussianProcess::lengthscales() const { return kernel_.lengthscales(); }

void GaussianProcess::save_state(persist::Writer& w) const {
  w.u64(dim_);
  persist::put(w, kernel_.hypers().log_lengthscale);
  w.f64(kernel_.hypers().log_signal);
  w.f64(log_noise_);
  w.f64(noise_var_);
  persist::put(w, x_);
  persist::put(w, y_);
  persist::put(w, chol_);
  persist::put(w, alpha_);
  w.f64(lml_);
  w.b(fallback_factor_);
  w.i32(num_incremental_);
  w.i32(num_full_);
  w.b(config_.fit_hypers);
}

void GaussianProcess::load_state(persist::Reader& r) {
  const std::uint64_t dim = r.u64();
  if (dim != dim_)
    throw std::runtime_error("gp: checkpoint dimensionality mismatch");
  KernelHypers hypers;
  persist::get(r, hypers.log_lengthscale);
  hypers.log_signal = r.f64();
  kernel_.set_hypers(std::move(hypers));
  log_noise_ = r.f64();
  noise_var_ = r.f64();
  persist::get(r, x_);
  persist::get(r, y_);
  persist::get(r, chol_);
  persist::get(r, alpha_);
  lml_ = r.f64();
  fallback_factor_ = r.b();
  num_incremental_ = r.i32();
  num_full_ = r.i32();
  config_.fit_hypers = r.b();
}

}  // namespace citroen::gp
