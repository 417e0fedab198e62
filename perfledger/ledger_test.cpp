// Tests of the ledger's own arithmetic (ledger_math.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "ledger_math.hpp"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(ledger::percentile(v, 0.5), 50);
  EXPECT_EQ(ledger::percentile(v, 0.95), 95);
  EXPECT_EQ(ledger::percentile(v, 1.0), 100);
  EXPECT_EQ(ledger::percentile(v, 0.0), 1);
  EXPECT_EQ(ledger::percentile({7.0, 1.0, 3.0}, 0.5), 3);  // unsorted input
  EXPECT_EQ(ledger::percentile({}, 0.5), 0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(ledger::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(ledger::samples_beyond(100, 0.95), 5u);
  EXPECT_EQ(ledger::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(ledger::samples_beyond(3, 0.5), 1u);
}

TEST(TailPercentile, HighestWithTenBeyond) {
  // 1000 samples: p99 leaves exactly ten above it, p99.9 only one.
  auto t = ledger::tail_percentile(one_to(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.count, 1000u);
  // 200 samples: p95 leaves ten.
  t = ledger::tail_percentile(one_to(200));
  EXPECT_EQ(t.q, 0.95);
  EXPECT_EQ(t.value, 190);
  // 199 samples: p95 leaves nine, so p90 is the highest defensible tail.
  t = ledger::tail_percentile(one_to(199));
  EXPECT_EQ(t.q, 0.9);
  EXPECT_EQ(t.count, 199u);
  // Too few samples for any tail: nothing is reported, the count still is.
  t = ledger::tail_percentile(one_to(15));
  EXPECT_EQ(t.q, 0.0);
  EXPECT_EQ(t.value, 0.0);
  EXPECT_EQ(t.count, 15u);
}

TEST(SelfTime, SubtractsCoveredChildren) {
  EXPECT_DOUBLE_EQ(ledger::self_time({0, 10}, {}), 10);
  EXPECT_DOUBLE_EQ(ledger::self_time({0, 10}, {{1, 3}, {5, 6}}), 7);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  EXPECT_DOUBLE_EQ(ledger::self_time({0, 10}, {{1, 5}, {3, 7}, {4, 6}}), 4);
}

TEST(SelfTime, ChildrenClippedToSpan) {
  // A child that starts before or ends after its parent only covers the
  // overlap; one wholly outside covers nothing.
  EXPECT_DOUBLE_EQ(ledger::self_time({2, 10}, {{0, 4}, {9, 12}, {20, 30}}), 5);
  EXPECT_DOUBLE_EQ(ledger::self_time({0, 10}, {{0, 10}}), 0);
}

TEST(SelfTime, TotalOverManySpans) {
  // Two steps; evaluator calls inside each, one between them.
  const std::vector<ledger::Interval> steps = {{0, 10}, {20, 30}};
  const std::vector<ledger::Interval> calls = {{1, 4}, {12, 18}, {21, 22}, {25, 29}};
  EXPECT_DOUBLE_EQ(ledger::total_self_time(steps, calls), 7 + 5);
}

TEST(SumCheck, WithinTracingOverhead) {
  // Layers account for 9.7 s of a 10 s wall: fine when tracing cost 0.5 s.
  EXPECT_TRUE(ledger::sums_to_wall(9.7, 10.0, 0.5));
  // The same gap with a 0.1 s overhead is still inside the 2% floor...
  EXPECT_TRUE(ledger::sums_to_wall(9.8, 10.0, 0.1));
  // ...but a 1 s hole is not.
  EXPECT_FALSE(ledger::sums_to_wall(9.0, 10.0, 0.1));
  // Layers may not claim more than the wall either, and a negative
  // overhead (traced run faster by noise) counts by magnitude.
  EXPECT_FALSE(ledger::sums_to_wall(11.0, 10.0, 0.1));
  EXPECT_TRUE(ledger::sums_to_wall(10.4, 10.0, -0.5));
}

TEST(CurveDigest, OrderAndSplitSensitive) {
  const auto a = ledger::curve_digest({{1.0, 2.0}, {3.0}});
  EXPECT_EQ(a, ledger::curve_digest({{1.0, 2.0}, {3.0}}));
  EXPECT_NE(a, ledger::curve_digest({{1.0}, {2.0, 3.0}}));
  EXPECT_NE(a, ledger::curve_digest({{3.0}, {1.0, 2.0}}));
  EXPECT_NE(a, ledger::curve_digest({{1.0, 2.0}, {3.0000000000000004}}));
}

TEST(Geomean, Basic) {
  EXPECT_DOUBLE_EQ(ledger::geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(ledger::geomean({}), 0.0);
}

}  // namespace
