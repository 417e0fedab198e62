// Unit and integration tests for the GP surrogate and the AIBO loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "aibo/aibo.hpp"
#include "gp/gp.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "synth/functions.hpp"

using namespace citroen;

TEST(GaussianProcess, InterpolatesSmoothFunction) {
  Rng rng(1);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 40; ++i) {
    Vec x = {rng.uniform(), rng.uniform()};
    ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1]);
    xs.push_back(std::move(x));
  }
  gp::GaussianProcess model(2);
  model.fit(xs, ys);
  double max_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    Vec x = {rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
    const double truth = std::sin(3.0 * x[0]) + x[1] * x[1];
    max_err = std::max(max_err, std::abs(model.predict(x).mean - truth));
  }
  EXPECT_LT(max_err, 0.25);
}

TEST(GaussianProcess, VarianceShrinksAtData) {
  Rng rng(2);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 20; ++i) {
    Vec x = {rng.uniform()};
    ys.push_back(x[0]);
    xs.push_back(std::move(x));
  }
  gp::GaussianProcess model(1);
  model.fit(xs, ys);
  const double var_at_data = model.predict(xs[0]).var;
  const double var_far = model.predict({-5.0}).var;
  EXPECT_LT(var_at_data, var_far);
}

TEST(GaussianProcess, GradientMatchesFiniteDifference) {
  Rng rng(3);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 25; ++i) {
    Vec x = {rng.uniform(), rng.uniform(), rng.uniform()};
    ys.push_back(x[0] * x[1] - x[2]);
    xs.push_back(std::move(x));
  }
  gp::GaussianProcess model(3);
  model.fit(xs, ys);
  const Vec x0 = {0.3, 0.6, 0.4};
  const auto g = model.predict_with_grad(x0);
  const double h = 1e-6;
  for (std::size_t d = 0; d < 3; ++d) {
    Vec xp = x0, xm = x0;
    xp[d] += h;
    xm[d] -= h;
    const double fd_mean =
        (model.predict(xp).mean - model.predict(xm).mean) / (2 * h);
    const double fd_var =
        (model.predict(xp).var - model.predict(xm).var) / (2 * h);
    EXPECT_NEAR(g.dmean[d], fd_mean, 1e-4 + 1e-3 * std::abs(fd_mean));
    EXPECT_NEAR(g.dvar[d], fd_var, 1e-4 + 1e-3 * std::abs(fd_var));
  }
}

// ---- fit pinned bit for bit -------------------------------------------------

namespace {

/// A fit large enough to span several pool blocks in each of the fit's
/// loops: kernel-matrix rows, K^{-1} columns and gradient slices.
gp::GaussianProcess pinned_fit(gp::KernelType kernel) {
  Rng rng(16);
  const std::size_t n = 120, d = 30;
  std::vector<Vec> xs;
  Vec ys;
  for (std::size_t i = 0; i < n; ++i) {
    Vec x(d);
    for (auto& v : x) v = rng.uniform();
    ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[2] - 0.5 * x[3] +
                 rng.normal(0.0, 0.05));
    xs.push_back(std::move(x));
  }
  gp::GpConfig cfg;
  cfg.kernel = kernel;
  gp::GaussianProcess model(d, cfg);
  model.fit(xs, ys);
  return model;
}

struct PinnedFit {
  double lml, noise_var;
  double mean, var;  ///< predict() at (0.5, ..., 0.5)
  std::array<double, 30> lengthscales;
};

void expect_identical(const gp::GaussianProcess& model, const PinnedFit& want) {
  EXPECT_EQ(model.log_marginal_likelihood(), want.lml);
  EXPECT_EQ(model.noise_variance(), want.noise_var);
  const Vec ls = model.lengthscales();
  ASSERT_EQ(ls.size(), want.lengthscales.size());
  for (std::size_t h = 0; h < ls.size(); ++h)
    EXPECT_EQ(ls[h], want.lengthscales[h]) << "lengthscale " << h;
  const auto p = model.predict(Vec(30, 0.5));
  EXPECT_EQ(p.mean, want.mean);
  EXPECT_EQ(p.var, want.var);
}

PinnedFit observed(const gp::GaussianProcess& model) {
  PinnedFit out{};
  out.lml = model.log_marginal_likelihood();
  out.noise_var = model.noise_variance();
  const auto p = model.predict(Vec(30, 0.5));
  out.mean = p.mean;
  out.var = p.var;
  const Vec ls = model.lengthscales();
  std::copy(ls.begin(), ls.end(), out.lengthscales.begin());
  return out;
}

// Recorded from the fit that formed K^{-1} with one Cholesky solve per
// column and summed the gradient over every ordered pair, serially. Any
// reassociation in the fit moves some of these bits.
const PinnedFit kMaternFit = {
    0x1.4fe780f14fdcdp+6, 0x1.288b13153eb8p-17,
    0x1.13811ca4e56dp+0, 0x1.36a371daf601cp-9,
    {
      0x1.3513840cb4f61p-2, 0x1.a6d6c31b4d805p-1, 0x1.7322c9f931f91p-1,
      0x1.0aa60cd469658p+0, 0x1.51acbcebc7e4ap+2, 0x1.47bb5364a03e7p+2,
      0x1.625e19680463bp+2, 0x1.5f93c0ffc9ea4p+2, 0x1.602c4c2994dc9p+2,
      0x1.579b60acc72a1p+2, 0x1.4b4037f8a3d52p+2, 0x1.5e5c2d8742ba1p+2,
      0x1.4e80d5118638cp+2, 0x1.61ad77c9071b3p+2, 0x1.5e1da81d181cp+2,
      0x1.6c54c66a0d91ep+2, 0x1.5ae3e5c7370cep+2, 0x1.622ebd5d9732cp+2,
      0x1.39fc892359eb8p+2, 0x1.570b84665f71bp+2, 0x1.665af7d97a61p+2,
      0x1.5d877f58f71c1p+2, 0x1.56fcef60b85cdp+2, 0x1.63f8ac88caac4p+2,
      0x1.5727e4c40d114p+2, 0x1.654f7f66895a7p+2, 0x1.4eabd4965acdcp+2,
      0x1.56bcbaa602eadp+2, 0x1.5acc9701f9143p+2, 0x1.30bc4dd6714d8p+2
    }};

const PinnedFit kRbfFit = {
    0x1.703c7e556a149p+6, 0x1.a4d65b8a8847ap-15,
    0x1.15824d37a444fp+0, 0x1.11c38a1e8c048p-11,
    {
      0x1.31fa951ba7469p-2, 0x1.65ad0926fa394p-1, 0x1.93707845f6243p-1,
      0x1.05e452e3b1a0bp+0, 0x1.42f1784066e9ep+2, 0x1.2089f3aa1c9dp+2,
      0x1.4aa80943b0423p+2, 0x1.4274632930551p+2, 0x1.352ce4ce61177p+2,
      0x1.36731db85375ap+2, 0x1.32fd0631dff6fp+2, 0x1.2a43e10fec233p+2,
      0x1.32380b03ca031p+2, 0x1.41415daa691b7p+2, 0x1.3f778c627f5aep+2,
      0x1.494aa205ac129p+2, 0x1.430f58efd7497p+2, 0x1.45ee102e36db9p+2,
      0x1.1722d7de936ap+2, 0x1.21dc01908d38fp+2, 0x1.449344c0ae91bp+2,
      0x1.42551a6920275p+2, 0x1.3965ddf687006p+2, 0x1.3a7f8bc65c7bap+2,
      0x1.4d5350b0bbcfp+2, 0x1.44ccc4ed7b5c5p+2, 0x1.1dfe268cffe5fp+2,
      0x1.2c2cfbacf71a1p+2, 0x1.3ec7bbdcbcd61p+2, 0x1.ab457abe4da73p+1
    }};

}  // namespace

TEST(GaussianProcess, MaternFitIsPinnedBitForBit) {
  expect_identical(pinned_fit(gp::KernelType::Matern52), kMaternFit);
}

TEST(GaussianProcess, RbfFitIsPinnedBitForBit) {
  expect_identical(pinned_fit(gp::KernelType::RBF), kRbfFit);
}

TEST(GaussianProcess, FitInsideAPoolTaskMatchesTopLevelFit) {
  // Inside a pool task the fit's own parallel loops run inline.
  for (const auto kernel : {gp::KernelType::Matern52, gp::KernelType::RBF}) {
    PinnedFit nested{};
    ThreadPool::global().parallel_for(
        1, [&](std::size_t) { nested = observed(pinned_fit(kernel)); });
    expect_identical(pinned_fit(kernel), nested);
  }
}

TEST(Aibo, ImprovesOverInitialDesignOnAckley) {
  auto task = synth::make_task("ackley20");
  aibo::AiboConfig cfg;
  cfg.init_samples = 15;
  cfg.k = 40;
  cfg.gp.fit_steps = 10;
  aibo::Aibo bo(task.box, cfg, 11);
  const auto r = bo.run(task.f, 60);
  ASSERT_EQ(r.ys.size(), 60u);
  const double init_best = r.best_curve[14];
  EXPECT_LT(r.best(), init_best);
}

TEST(Aibo, BeatsPureRandomSearchOnAckley) {
  auto task = synth::make_task("ackley20");
  aibo::AiboConfig cfg;
  cfg.init_samples = 15;
  cfg.k = 40;
  cfg.gp.fit_steps = 10;
  aibo::Aibo bo(task.box, cfg, 5);
  const auto r = bo.run(task.f, 70);

  Rng rng(5);
  double random_best = 1e300;
  for (int i = 0; i < 70; ++i)
    random_best = std::min(random_best, task.f(task.box.sample(rng)));
  EXPECT_LT(r.best(), random_best);
}

TEST(Aibo, DiagnosticsArePopulated) {
  auto task = synth::make_task("rastrigin20");
  aibo::AiboConfig cfg;
  cfg.init_samples = 10;
  cfg.k = 30;
  cfg.gp.fit_steps = 5;
  aibo::Aibo bo(task.box, cfg, 3);
  const auto r = bo.run(task.f, 30);
  ASSERT_EQ(r.member_names.size(), 3u);
  int total_wins = 0;
  for (int w : r.af_wins) total_wins += w;
  EXPECT_EQ(total_wins, 20);  // one winner per post-init iteration
  EXPECT_FALSE(r.diags.empty());
  EXPECT_GT(r.model_seconds, 0.0);
}

TEST(Aibo, BatchModeProducesRequestedEvaluations) {
  auto task = synth::make_task("griewank20");
  aibo::AiboConfig cfg;
  cfg.init_samples = 10;
  cfg.k = 20;
  cfg.batch_size = 5;
  cfg.gp.fit_steps = 5;
  aibo::Aibo bo(task.box, cfg, 9);
  const auto r = bo.run(task.f, 40);
  EXPECT_EQ(r.ys.size(), 40u);
}
