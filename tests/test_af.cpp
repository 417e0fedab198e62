// Tests for the acquisition functions and their maximisers.

#include <gtest/gtest.h>

#include <cmath>

#include "af/acquisition.hpp"
#include "af/maximizer.hpp"

using namespace citroen;
using namespace citroen::af;

namespace {

/// GP fit to a simple 1-D bowl with a clear minimum at x = 0.3.
gp::GaussianProcess make_model() {
  Rng rng(1);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i <= 20; ++i) {
    const double x = i / 20.0;
    xs.push_back({x});
    ys.push_back((x - 0.3) * (x - 0.3));
  }
  gp::GaussianProcess model(1);
  model.fit(xs, ys);
  return model;
}

double best_y(const gp::GaussianProcess& /*m*/) { return 0.0; }

}  // namespace

TEST(Acquisition, UcbFormula) {
  const auto model = make_model();
  AfConfig cfg;
  cfg.kind = AfKind::UCB;
  cfg.beta = 4.0;
  const Acquisition af(&model, cfg, best_y(model));
  const Vec x = {0.5};
  const auto p = model.predict(x);
  EXPECT_NEAR(af.value(x), -p.mean + 2.0 * std::sqrt(p.var), 1e-12);
}

TEST(Acquisition, EiNonNegativeEverywhere) {
  const auto model = make_model();
  const Acquisition af(&model, {AfKind::EI, 0.0}, 0.05);
  for (int i = 0; i <= 50; ++i) {
    EXPECT_GE(af.value({i / 50.0}), 0.0);
  }
}

TEST(Acquisition, PiBoundedByOne) {
  const auto model = make_model();
  const Acquisition af(&model, {AfKind::PI, 0.0}, 0.05);
  for (int i = 0; i <= 50; ++i) {
    const double v = af.value({i / 50.0});
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Acquisition, UcbPrefersTheKnownMinimumRegion) {
  const auto model = make_model();
  const Acquisition af(&model, {AfKind::UCB, 1.0}, 0.0);
  // The AF near the minimum (0.3) must exceed the AF at the worst end.
  EXPECT_GT(af.value({0.3}), af.value({1.0}));
}

class AfGradients : public ::testing::TestWithParam<AfKind> {};

TEST_P(AfGradients, MatchFiniteDifferences) {
  const auto model = make_model();
  AfConfig cfg;
  cfg.kind = GetParam();
  cfg.beta = 1.96;
  const Acquisition af(&model, cfg, 0.04);
  for (const double x0 : {0.1, 0.45, 0.82}) {
    const auto [v, g] = af.value_grad({x0});
    const double h = 1e-6;
    const double fd = (af.value({x0 + h}) - af.value({x0 - h})) / (2 * h);
    EXPECT_NEAR(g[0], fd, 1e-4 + 1e-3 * std::abs(fd)) << "x=" << x0;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AfGradients,
                         ::testing::Values(AfKind::UCB, AfKind::EI,
                                           AfKind::PI),
                         [](const auto& info) {
                           switch (info.param) {
                             case AfKind::UCB: return "UCB";
                             case AfKind::EI: return "EI";
                             default: return "PI";
                           }
                         });

TEST(Maximizer, AscendImprovesAfValue) {
  const auto model = make_model();
  const Acquisition af(&model, {AfKind::UCB, 1.96}, 0.0);
  const heuristics::Box box{{0.0}, {1.0}};
  const Vec start = {0.95};
  const double v0 = af.value(start);
  const auto [x, v] = ascend(af, start, box, {});
  EXPECT_GE(v, v0);
  EXPECT_GE(x[0], 0.0);
  EXPECT_LE(x[0], 1.0);
}

TEST(Maximizer, EsAndRandomFindReasonablePoints) {
  const auto model = make_model();
  const Acquisition af(&model, {AfKind::UCB, 1.0}, 0.0);
  const heuristics::Box box{{0.0}, {1.0}};
  Rng rng(3);
  const auto es = es_maximize(af, box, 120, rng);
  const auto rs = random_maximize(af, box, 120, rng);
  // Both must find AF values at least as good as a fixed corner probe.
  EXPECT_GE(es.second, af.value({1.0}));
  EXPECT_GE(rs.second, af.value({1.0}));
}

TEST(NormalHelpers, CdfPdfSanity) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(10.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(-10.0), 0.0, 1e-12);
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_GT(normal_pdf(0.0), normal_pdf(1.0));
}
