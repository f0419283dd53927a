#include "resource/pool.h"

#include <gtest/gtest.h>

namespace quasaq::res {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ResourcePoolTest, DeclareAndQuery) {
  ResourcePool pool;
  EXPECT_FALSE(pool.HasBucket(Cpu(0)));
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  EXPECT_TRUE(pool.HasBucket(Cpu(0)));
  EXPECT_DOUBLE_EQ(pool.Capacity(Cpu(0)), 1.0);
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  EXPECT_DOUBLE_EQ(pool.Utilization(Cpu(0)), 0.0);
}

TEST(ResourcePoolTest, AcquireChargesBuckets) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 3200.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.25);
  demand.Add(Net(0), 800.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_DOUBLE_EQ(pool.Utilization(Cpu(0)), 0.25);
  EXPECT_DOUBLE_EQ(pool.Utilization(Net(0)), 0.25);
}

TEST(ResourcePoolTest, AcquireIsAtomicOnOverflow) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 100.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.5);
  demand.Add(Net(0), 150.0);  // overflows net
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kResourceExhausted);
  // Nothing was charged.
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  EXPECT_DOUBLE_EQ(pool.Used(Net(0)), 0.0);
}

TEST(ResourcePoolTest, UndeclaredBucketIsNotFound) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Net(0), 1.0);
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kNotFound);
  EXPECT_FALSE(pool.Fits(demand));
}

TEST(ResourcePoolTest, FitsChecksWithoutCharging) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.9);
  EXPECT_TRUE(pool.Fits(demand));
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_FALSE(pool.Fits(demand));
}

TEST(ResourcePoolTest, ExactFillIsAccepted) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 1.0);
  EXPECT_TRUE(pool.Acquire(demand).ok());
  EXPECT_EQ(pool.Utilization(Cpu(0)), 1.0);
}

TEST(ResourcePoolTest, CapacityBelowOneLedgerUnitIsInvalid) {
  ResourcePool pool;
  // 4e-7 rounds to zero ledger units (one unit is 1e-6).
  EXPECT_EQ(pool.DeclareBucket(Cpu(0), 4e-7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.DeclareBucket(Cpu(0), 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(pool.HasBucket(Cpu(0)));
  EXPECT_TRUE(pool.DeclareBucket(Cpu(0), 1e-6).ok());
}

TEST(ResourcePoolTest, ReleaseRestoresCapacity) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.6);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_TRUE(pool.Release(demand).ok());
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
}

TEST(ResourcePoolTest, ReleaseClampsAtZero) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.6);
  // An over-release is clamped *and* reported.
  EXPECT_EQ(pool.Release(demand).code(),  // never acquired
            StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
}

TEST(ResourcePoolTest, RepeatedAcquireAccumulates) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.4);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.Utilization(Cpu(0)), 0.8);
}

TEST(ResourcePoolTest, BucketsReturnsSortedIds) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Net(1), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(1), 1.0).ok());
  auto buckets = pool.Buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], Cpu(0));
  EXPECT_EQ(buckets[1], Cpu(1));
  EXPECT_EQ(buckets[2], Net(1));
}

TEST(ResourcePoolTest, MaxUtilizationTracksHottestBucket) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 100.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.2);
  demand.Add(Net(0), 70.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_EQ(pool.MaxUtilization(), 0.7);
}

TEST(ResourcePoolTest, DebugStringListsBuckets) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  std::string s = pool.DebugString();
  EXPECT_NE(s.find("site0/cpu"), std::string::npos);
}

TEST(ResourcePoolTest, RedeclareKeepsUsage) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.5);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 2.0).ok());  // capacity upgrade
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.5);
  EXPECT_DOUBLE_EQ(pool.Utilization(Cpu(0)), 0.25);
}

}  // namespace
}  // namespace quasaq::res
