// Unit tests for the support layer: RNG, dense linear algebra,
// transforms, and descriptive statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/matrix.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/transforms.hpp"

using namespace citroen;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIndexInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  // The two streams should not be identical.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, CategoricalAllZeroFallsBackUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) ++counts[rng.categorical(w)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Matrix, MatmulIdentity) {
  Matrix a(3, 3);
  int v = 1;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v++;
  }
  const Matrix c = matmul(a, Matrix::identity(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c(i, j), a(i, j));
  }
}

TEST(Matrix, CholeskySolveRoundTrip) {
  Rng rng(3);
  const std::size_t n = 12;
  // SPD matrix A = B B^T + n*I.
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = i == j ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc;
    }
  }
  const Cholesky ch = cholesky(a);
  ASSERT_TRUE(ch.ok);
  EXPECT_EQ(ch.jitter, 0.0);
  Vec x(n);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  const Vec rhs = matvec(a, x);
  const Vec sol = ch.solve(rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(sol[i], x[i], 1e-8);
}

TEST(Matrix, CholeskyAddsJitterForSingular) {
  Matrix a(3, 3);  // rank-1
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = 1.0;
  }
  const Cholesky ch = cholesky(a);
  EXPECT_TRUE(ch.ok);
  EXPECT_GT(ch.jitter, 0.0);
}

TEST(Matrix, LogDetMatchesKnownValue) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  const Cholesky ch = cholesky(a);
  ASSERT_TRUE(ch.ok);
  EXPECT_NEAR(ch.log_det(), std::log(36.0), 1e-9);
}

TEST(Matrix, EighReconstructsMatrix) {
  Rng rng(21);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenSym e = eigh_jacobi(a);
  // A == V diag(w) V^T
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += e.vectors(i, k) * e.values[k] * e.vectors(j, k);
      EXPECT_NEAR(acc, a(i, j), 1e-8);
    }
  }
}

TEST(Matrix, EighVectorsOrthonormal) {
  Rng rng(22);
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenSym e = eigh_jacobi(a);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += e.vectors(k, p) * e.vectors(k, q);
      EXPECT_NEAR(acc, p == q ? 1.0 : 0.0, 1e-8);
    }
  }
}

// ---- Yeo-Johnson property sweep -------------------------------------------

class YeoJohnsonRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(YeoJohnsonRoundTrip, RawInverseIsExact) {
  const double lambda = GetParam();
  for (const double y : {-10.0, -1.5, -0.1, 0.0, 0.1, 1.5, 10.0, 300.0}) {
    const double z = YeoJohnson::raw(y, lambda);
    EXPECT_NEAR(YeoJohnson::raw_inverse(z, lambda), y,
                1e-8 * (1.0 + std::abs(y)))
        << "lambda=" << lambda << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, YeoJohnsonRoundTrip,
                         ::testing::Values(-1.5, -0.5, 0.0, 0.5, 1.0, 2.0,
                                           3.0));

TEST(YeoJohnson, FitStandardisesSkewedData) {
  Rng rng(31);
  Vec y;
  for (int i = 0; i < 400; ++i) {
    const double u = rng.normal();
    y.push_back(std::exp(u));  // log-normal: heavily right-skewed
  }
  YeoJohnson yj;
  yj.fit(y);
  const Vec z = yj.transform(y);
  EXPECT_NEAR(mean(z), 0.0, 1e-9);
  EXPECT_NEAR(stddev(z), 1.0, 1e-9);
  // The fitted transform should reduce skewness substantially.
  auto skew = [](const Vec& v) {
    const double m = mean(v), s = stddev(v);
    double acc = 0.0;
    for (double x : v) acc += std::pow((x - m) / s, 3.0);
    return acc / static_cast<double>(v.size());
  };
  EXPECT_LT(std::abs(skew(z)), std::abs(skew(y)) / 2.0);
}

TEST(YeoJohnson, TransformInverseRoundTrip) {
  Vec y = {1.0, 5.0, 2.5, -3.0, 0.0, 12.0};
  YeoJohnson yj;
  yj.fit(y);
  for (double v : y) EXPECT_NEAR(yj.inverse(yj.transform(v)), v, 1e-7);
}

TEST(InputScaler, RoundTrip) {
  InputScaler sc({-2.0, 0.0}, {4.0, 10.0});
  const Vec x = {1.0, 7.5};
  const Vec u = sc.to_unit(x);
  EXPECT_NEAR(u[0], 0.5, 1e-12);
  EXPECT_NEAR(u[1], 0.75, 1e-12);
  const Vec back = sc.from_unit(u);
  EXPECT_NEAR(back[0], x[0], 1e-12);
  EXPECT_NEAR(back[1], x[1], 1e-12);
}

TEST(InputScaler, FitHandlesConstantDimension) {
  InputScaler sc;
  sc.fit({{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}});
  const Vec u = sc.to_unit({2.0, 5.0});
  EXPECT_TRUE(std::isfinite(u[1]));
}

TEST(Statistics, BasicAggregates) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(Statistics, PearsonPerfectCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

// ---- shared jittered backoff (support/backoff.hpp) -------------------------
// One implementation backs the worker pool's respawn and reconnect
// delays and citroen-cli's resubmit retries.

#include "support/backoff.hpp"

TEST(Backoff, JitteredStaysInWindowAndIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42, s3 = 99;
  std::vector<double> a, c;
  for (int i = 0; i < 200; ++i) {
    a.push_back(support::jittered_backoff(0.1, 0.5, &s1));
    const double b = support::jittered_backoff(0.1, 0.5, &s2);
    c.push_back(support::jittered_backoff(0.1, 0.5, &s3));
    EXPECT_EQ(a.back(), b);  // same state stream => same delays
    EXPECT_GE(a.back(), 0.1 * 0.5);
    EXPECT_LE(a.back(), 0.1 * 1.5);
  }
  EXPECT_NE(a, c) << "different seeds must decorrelate";
  // A jitter above 1 clamps to 1: the factor stays within [0, 2].
  std::uint64_t s = 7;
  for (int i = 0; i < 64; ++i) {
    const double clamped = support::jittered_backoff(1.0, 5.0, &s);
    EXPECT_GE(clamped, 0.0);
    EXPECT_LE(clamped, 2.0);
  }
}

TEST(Backoff, JitterZeroIsExact) {
  std::uint64_t s = 7;
  EXPECT_DOUBLE_EQ(support::jittered_backoff(0.25, 0.0, &s), 0.25);
}

TEST(Backoff, FullJitterBoundedByCap) {
  std::uint64_t s = 99;
  for (int attempt = 0; attempt < 30; ++attempt) {
    const double d = support::full_jitter_backoff(attempt, 0.05, 2.0, &s);
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, 2.0);
  }
}

TEST(Backoff, FullJitterGrowsWithAttempts) {
  // The cap for attempt k is initial*2^k: the attempt-5 floor (10% of
  // its cap) must exceed the attempt-0 ceiling (100% of its cap).
  std::uint64_t s = 3;
  double early_max = 0, late_min = 1e9;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t t = s + static_cast<std::uint64_t>(i);
    early_max = std::max(early_max,
                         support::full_jitter_backoff(0, 0.05, 100.0, &t));
    late_min = std::min(late_min,
                        support::full_jitter_backoff(5, 0.05, 100.0, &t));
  }
  EXPECT_LT(early_max, 0.05 + 1e-12);
  EXPECT_GT(late_min, 0.05);
}

TEST(Backoff, RespawnDoublesAndClamps) {
  std::uint64_t s = 11;
  // jitter 0 => exact exponential ladder, clamped at the max.
  EXPECT_DOUBLE_EQ(support::respawn_backoff(1, 0.1, 1.0, 0.0, &s), 0.1);
  EXPECT_DOUBLE_EQ(support::respawn_backoff(2, 0.1, 1.0, 0.0, &s), 0.2);
  EXPECT_DOUBLE_EQ(support::respawn_backoff(3, 0.1, 1.0, 0.0, &s), 0.4);
  EXPECT_DOUBLE_EQ(support::respawn_backoff(10, 0.1, 1.0, 0.0, &s), 1.0);
  EXPECT_DOUBLE_EQ(support::respawn_backoff(60, 0.1, 1.0, 0.0, &s), 1.0);
}
