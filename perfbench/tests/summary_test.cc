#include "summary.h"

#include <gtest/gtest.h>

#include <vector>

namespace quasaq::perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

TEST(SummaryTest, MedianOddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({7.0}), 7.0);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(SummaryTest, QuartilesMatchPythonExclusiveMethod) {
  Quartiles ten = ComputeQuartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  Quartiles five = ComputeQuartiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);

  // Two values: the clamped index extrapolates past both ends.
  Quartiles two = ComputeQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  Quartiles one = ComputeQuartiles({4});
  EXPECT_EQ(one.q1, 4.0);
  EXPECT_EQ(one.q3, 4.0);
}

TEST(SummaryTest, NearestRankPercentile) {
  const std::vector<double> values = Iota(1000);
  EXPECT_EQ(Percentile(values, 50.0), 500.0);
  EXPECT_EQ(Percentile(values, 99.0), 990.0);
  EXPECT_EQ(Percentile(values, 99.9), 999.0);
  EXPECT_EQ(Percentile(values, 100.0), 1000.0);
  EXPECT_EQ(Percentile({5.0}, 99.0), 5.0);
}

TEST(SummaryTest, SamplesBeyondPercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(SummaryTest, HighestTailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  std::optional<Tail> tail = HighestTail(Iota(1000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 99.0);
  EXPECT_EQ(tail->value, 990.0);
  EXPECT_EQ(tail->samples, 1000u);

  tail = HighestTail(Iota(999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 90.0);

  tail = HighestTail(Iota(10000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 99.9);

  tail = HighestTail(Iota(20));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 50.0);

  EXPECT_FALSE(HighestTail(Iota(19)).has_value());
}

}  // namespace
}  // namespace quasaq::perfbench
