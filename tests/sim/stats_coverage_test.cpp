// Deeper coverage of the stats plumbing the obs layer leans on:
// SampleSet quantile edge cases.
#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace flecc::sim {
namespace {

TEST(SampleSetQuantileTest, ExtremesAndSingleSample) {
  SampleSet one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);

  SampleSet many;
  for (int i = 1; i <= 100; ++i) many.add(i);
  EXPECT_DOUBLE_EQ(many.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(many.quantile(1.0), 100.0);
  EXPECT_NEAR(many.quantile(0.99), 99.01, 1e-9);
}

TEST(SampleSetQuantileTest, DuplicatesCollapse) {
  SampleSet s;
  for (int i = 0; i < 50; ++i) s.add(5.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSetQuantileTest, ClearResets) {
  SampleSet s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 9.0);
}

}  // namespace
}  // namespace flecc::sim
