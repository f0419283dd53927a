#include "common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace quasaq {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats stats;
  stats.Add(-3.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 3.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  RunningStats a;
  RunningStats b;
  RunningStats combined;
  for (int i = 0; i < 50; ++i) {
    double x = 0.37 * i - 3.0;
    a.Add(x);
    combined.Add(x);
  }
  for (int i = 0; i < 80; ++i) {
    double x = 1.1 * i + 2.0;
    b.Add(x);
    combined.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a;
  RunningStats empty;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats a_copy = a;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.Merge(a_copy);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

// Regression: merging an empty accumulator must be a no-op — in
// particular it must not fold the empty side's zero-initialized
// min/max into a stream whose real extremes are both above (or both
// below) zero.
TEST(RunningStatsTest, MergeEmptyDoesNotClobberExtremes) {
  RunningStats positive;
  positive.Add(5.0);
  positive.Add(9.0);
  positive.Merge(RunningStats());
  EXPECT_DOUBLE_EQ(positive.min(), 5.0);
  EXPECT_DOUBLE_EQ(positive.max(), 9.0);

  RunningStats negative;
  negative.Add(-9.0);
  negative.Add(-5.0);
  negative.Merge(RunningStats());
  EXPECT_DOUBLE_EQ(negative.min(), -9.0);
  EXPECT_DOUBLE_EQ(negative.max(), -5.0);

  RunningStats empty;
  empty.Merge(positive);
  EXPECT_DOUBLE_EQ(empty.min(), 5.0);
  EXPECT_DOUBLE_EQ(empty.max(), 9.0);
}

TEST(TimeSeriesTest, MeanOverWindow) {
  TimeSeries series;
  series.Add(0, 10.0);
  series.Add(kSecond, 20.0);
  series.Add(2 * kSecond, 30.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(0, 2 * kSecond), 20.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(kSecond, 2 * kSecond), 25.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(3 * kSecond, 4 * kSecond), 0.0);
}

TEST(TimeSeriesTest, MeanOverEmptySeriesIsZero) {
  TimeSeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_DOUBLE_EQ(series.MeanOver(0, 10 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(5 * kSecond), 0.0);
}

TEST(TimeSeriesTest, MeanOverInvertedWindowIsZero) {
  TimeSeries series;
  series.Add(kSecond, 10.0);
  series.Add(2 * kSecond, 20.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(2 * kSecond, kSecond), 0.0);
}

TEST(TimeSeriesTest, MeanOverIncludesBothClosedBoundaries) {
  TimeSeries series;
  series.Add(kSecond, 10.0);
  series.Add(2 * kSecond, 20.0);
  series.Add(3 * kSecond, 30.0);
  // [from, to] is closed: samples exactly at either boundary count.
  EXPECT_DOUBLE_EQ(series.MeanOver(kSecond, 3 * kSecond), 20.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(2 * kSecond, 2 * kSecond), 20.0);
  // Just inside the boundaries excludes the edge samples.
  EXPECT_DOUBLE_EQ(
      series.MeanOver(kSecond + kMicrosecond, 3 * kSecond - kMicrosecond),
      20.0);
  EXPECT_DOUBLE_EQ(series.MeanOver(0, kSecond), 10.0);
}

TEST(TimeSeriesTest, ValueAtExactSampleTime) {
  TimeSeries series;
  series.Add(kSecond, 1.0);
  series.Add(3 * kSecond, 3.0);
  // A sample exactly at the query time is "at or before" — returned.
  EXPECT_DOUBLE_EQ(series.ValueAt(3 * kSecond), 3.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(3 * kSecond - kMicrosecond), 1.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(kSecond - kMicrosecond), 0.0);
}

TEST(TimeSeriesTest, ValueAtReturnsLatestSampleNotAfter) {
  TimeSeries series;
  series.Add(kSecond, 1.0);
  series.Add(3 * kSecond, 3.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(0), 0.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(2 * kSecond), 1.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(10 * kSecond), 3.0);
}

TEST(TimeSeriesTest, DownsampleAveragesWithinBuckets) {
  TimeSeries series;
  for (int i = 0; i < 100; ++i) {
    series.Add(i * kSecond, static_cast<double>(i));
  }
  auto buckets = series.Downsample(100 * kSecond, 10);
  ASSERT_EQ(buckets.size(), 10u);
  // First bucket covers values 0..9 -> mean 4.5.
  EXPECT_NEAR(buckets.front().value, 4.5, 1e-9);
  EXPECT_NEAR(buckets.back().value, 94.5, 1e-9);
}

TEST(TimeSeriesTest, DownsampleSkipsEmptyBuckets) {
  TimeSeries series;
  series.Add(0, 1.0);
  series.Add(99 * kSecond, 2.0);
  auto buckets = series.Downsample(100 * kSecond, 10);
  EXPECT_EQ(buckets.size(), 2u);
}

// Regression: degenerate arguments return an empty result instead of
// dividing by a zero bucket width (which asserted in debug builds and
// was undefined behavior under NDEBUG).
TEST(TimeSeriesTest, DownsampleDegenerateArgumentsReturnEmpty) {
  TimeSeries series;
  series.Add(kSecond, 1.0);
  series.Add(2 * kSecond, 2.0);
  EXPECT_TRUE(series.Downsample(100 * kSecond, 0).empty());
  EXPECT_TRUE(series.Downsample(0, 10).empty());
  EXPECT_TRUE(series.Downsample(-kSecond, 10).empty());
}

TEST(WindowedRateTest, CountsEventsPerWindow) {
  WindowedRate rate(kMinute);
  rate.AddEvent(0);
  rate.AddEvent(30 * kSecond);
  rate.AddEvent(61 * kSecond);
  rate.AddEvent(200 * kSecond);  // beyond the horizon below
  auto rows = rate.Rates(2 * kMinute);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].value, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].value, 1.0);
  EXPECT_EQ(rate.total_events(), 4u);
}

TEST(WindowedRateTest, OutOfOrderEventsAreAccepted) {
  WindowedRate rate(kSecond);
  rate.AddEvent(5 * kSecond);
  rate.AddEvent(kSecond);
  auto rows = rate.Rates(6 * kSecond);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_DOUBLE_EQ(rows[1].value, 1.0);
  EXPECT_DOUBLE_EQ(rows[5].value, 1.0);
}

}  // namespace
}  // namespace quasaq
