#include "common/resource_vector.h"

#include <gtest/gtest.h>

namespace quasaq {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ResourceKindTest, NamesAreStable) {
  EXPECT_EQ(ResourceKindName(ResourceKind::kCpu), "cpu");
  EXPECT_EQ(ResourceKindName(ResourceKind::kNetworkBandwidth), "net");
  EXPECT_EQ(ResourceKindName(ResourceKind::kDiskBandwidth), "disk");
  EXPECT_EQ(ResourceKindName(ResourceKind::kMemory), "mem");
}

TEST(BucketIdTest, EqualityAndOrdering) {
  EXPECT_EQ(Cpu(0), Cpu(0));
  EXPECT_NE(Cpu(0), Cpu(1));
  EXPECT_NE(Cpu(0), Net(0));
  EXPECT_LT(Cpu(0), Cpu(1));
  EXPECT_LT(Cpu(0), Net(0));  // same site, kind order
}

TEST(BucketIdTest, ToStringFormat) {
  EXPECT_EQ(BucketIdToString(Net(2)), "site2/net");
}

TEST(ResourceVectorTest, StartsEmpty) {
  ResourceVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.0);
}

TEST(ResourceVectorTest, AddAndGet) {
  ResourceVector v;
  v.Add(Cpu(0), 0.5);
  v.Add(Net(1), 100.0);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.5);
  EXPECT_DOUBLE_EQ(v.Get(Net(1)), 100.0);
  EXPECT_DOUBLE_EQ(v.Get(Net(0)), 0.0);
  EXPECT_EQ(v.size(), 2u);
}

TEST(ResourceVectorTest, AddAccumulates) {
  ResourceVector v;
  v.Add(Cpu(0), 0.2);
  v.Add(Cpu(0), 0.3);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.5);
  EXPECT_EQ(v.size(), 1u);
}

TEST(ResourceVectorTest, NegativeAddClampsAtZero) {
  ResourceVector v;
  v.Add(Cpu(0), 0.2);
  v.Add(Cpu(0), -1.0);
  EXPECT_DOUBLE_EQ(v.Get(Cpu(0)), 0.0);
}

TEST(ResourceVectorTest, EntriesStaySorted) {
  ResourceVector v;
  v.Add(Net(1), 1.0);
  v.Add(Cpu(0), 1.0);
  v.Add(Cpu(1), 1.0);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.entries()[0].bucket, Cpu(0));
  EXPECT_EQ(v.entries()[1].bucket, Cpu(1));
  EXPECT_EQ(v.entries()[2].bucket, Net(1));
}

TEST(ResourceVectorTest, ToStringListsEntries) {
  ResourceVector v;
  v.Add(Cpu(0), 0.25);
  std::string s = v.ToString();
  EXPECT_NE(s.find("site0/cpu"), std::string::npos);
  EXPECT_NE(s.find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace quasaq
