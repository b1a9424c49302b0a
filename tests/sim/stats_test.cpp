#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace flecc::sim {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleVarianceIsZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 3.0);
}

TEST(SampleSetTest, QuantileErrors) {
  SampleSet s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
}

TEST(SampleSetTest, AddAfterQuantileStillSorted) {
  SampleSet s;
  s.add(2.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
}

TEST(CounterSetTest, IncrementAndQuery) {
  CounterSet c;
  c.inc("a");
  c.inc("a", 4);
  c.inc("b");
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("b"), 1u);
  EXPECT_EQ(c.get("missing"), 0u);
  EXPECT_EQ(c.total(), 6u);
}

TEST(CounterSetTest, ResetClears) {
  CounterSet c;
  c.inc("x", 10);
  c.reset();
  EXPECT_EQ(c.get("x"), 0u);
  EXPECT_EQ(c.total(), 0u);
}

TEST(CounterSetTest, ToStringSortedByName) {
  CounterSet c;
  c.inc("zeta");
  c.inc("alpha", 2);
  EXPECT_EQ(c.to_string(), "alpha=2\nzeta=1\n");
}

}  // namespace
}  // namespace flecc::sim
