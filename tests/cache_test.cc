#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_manager.h"
#include "cache/eviction.h"
#include "cache/segment.h"
#include "cache/segment_cache.h"
#include "common/rng.h"
#include "media/frames.h"
#include "media/library.h"
#include "media/video.h"

namespace quasaq::cache {
namespace {

media::ReplicaInfo MakeReplica(int64_t oid, double duration_seconds,
                               int ladder_level = 0) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(oid);
  replica.site = SiteId(0);
  replica.qos = media::QualityLadder::Standard()
                    .levels[static_cast<size_t>(ladder_level)];
  replica.duration_seconds = duration_seconds;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

TEST(SegmentLayoutTest, SegmentsAreWholeGops) {
  media::ReplicaInfo replica = MakeReplica(1, 120.0);
  SegmentLayout layout = SegmentLayout::For(replica);
  media::GopPattern pattern =
      media::GopPattern::StandardFor(replica.qos.format);
  double gop_seconds =
      static_cast<double>(pattern.size()) / replica.qos.frame_rate;
  EXPECT_GE(layout.gops_per_segment(), 1);
  EXPECT_NEAR(layout.segment_seconds(),
              layout.gops_per_segment() * gop_seconds, 1e-9);
}

TEST(SegmentLayoutTest, SegmentSizesSumToObjectSize) {
  for (double duration : {7.0, 60.0, 95.5, 120.0, 600.0}) {
    media::ReplicaInfo replica = MakeReplica(1, duration);
    SegmentLayout layout = SegmentLayout::For(replica);
    double sum = 0.0;
    for (int i = 0; i < layout.num_segments(); ++i) {
      sum += layout.SegmentKb(i);
    }
    EXPECT_NEAR(sum, layout.total_kb(), layout.total_kb() * 1e-9)
        << "duration=" << duration;
    EXPECT_NEAR(layout.PrefixKb(layout.num_segments()), sum, 1e-6);
    EXPECT_DOUBLE_EQ(layout.total_kb(), replica.size_kb);
  }
}

TEST(SegmentLayoutTest, LastSegmentCarriesTheRemainder) {
  media::ReplicaInfo replica = MakeReplica(1, 95.0);
  SegmentLayout layout = SegmentLayout::For(replica);
  ASSERT_GE(layout.num_segments(), 2);
  EXPECT_LE(layout.SegmentKb(layout.num_segments() - 1),
            layout.SegmentKb(0));
  EXPECT_GT(layout.SegmentKb(layout.num_segments() - 1), 0.0);
}

TEST(SegmentLayoutTest, OffsetMapsIntoValidSegments) {
  media::ReplicaInfo replica = MakeReplica(1, 120.0);
  SegmentLayout layout = SegmentLayout::For(replica);
  EXPECT_EQ(layout.SegmentAtOffsetKb(0.0), 0);
  EXPECT_EQ(layout.SegmentAtOffsetKb(-5.0), 0);
  EXPECT_EQ(layout.SegmentAtOffsetKb(layout.total_kb() * 2.0),
            layout.num_segments() - 1);
  // An offset just inside segment 1's range maps to segment 1.
  EXPECT_EQ(layout.SegmentAtOffsetKb(layout.SegmentKb(0) + 1.0), 1);
}

TEST(SegmentCacheTest, HitMissSequenceIsDeterministic) {
  // The same seeded workload replayed into two fresh caches must produce
  // identical hit/miss sequences — cache behavior depends only on the
  // access sequence and the simulated clock, never on host state.
  auto run = [] {
    SegmentCache::Options options;
    options.capacity_kb = 2000.0;
    obs::MetricsRegistry metrics;
    SegmentCache cache(options, metrics, "0");
    Rng rng(1234);
    std::vector<bool> outcomes;
    for (int i = 0; i < 2000; ++i) {
      SegmentKey key{PhysicalOid(rng.UniformInt(0, 7)),
                     static_cast<int32_t>(rng.UniformInt(0, 11))};
      outcomes.push_back(cache.Access(key, 100.0, i * kSecond));
    }
    return outcomes;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  // The workload overflows the cache, so both hits and misses occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(SegmentCacheTest, ByteAccountingBalances) {
  SegmentCache::Options options;
  options.capacity_kb = 1500.0;
  obs::MetricsRegistry metrics;
  SegmentCache cache(options, metrics, "0");
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    SegmentKey key{PhysicalOid(rng.UniformInt(0, 4)),
                   static_cast<int32_t>(rng.UniformInt(0, 9))};
    cache.Access(key, 100.0, i * kSecond);
  }
  const SegmentCache::Counters& counters = cache.counters();
  // Everything inserted either is still resident or was evicted.
  EXPECT_NEAR(cache.used_kb(),
              counters.inserted_kb - counters.evicted_kb, 1e-6);
  EXPECT_LE(cache.used_kb(), options.capacity_kb + 1e-9);
  EXPECT_EQ(counters.hits + counters.misses, 500u);
  EXPECT_NEAR(counters.hit_kb + counters.miss_kb, 500 * 100.0, 1e-6);
}

TEST(SegmentCacheTest, LruEvictsLeastRecentlyUsed) {
  SegmentCache::Options options;
  options.capacity_kb = 300.0;
  options.policy = "lru";
  obs::MetricsRegistry metrics;
  SegmentCache cache(options, metrics, "0");
  cache.Access(SegmentKey{PhysicalOid(1), 0}, 100.0, 1 * kSecond);
  cache.Access(SegmentKey{PhysicalOid(1), 1}, 100.0, 2 * kSecond);
  cache.Access(SegmentKey{PhysicalOid(1), 2}, 100.0, 3 * kSecond);
  // Refresh segment 0; segment 1 becomes the LRU victim.
  cache.Access(SegmentKey{PhysicalOid(1), 0}, 100.0, 4 * kSecond);
  cache.Access(SegmentKey{PhysicalOid(2), 0}, 100.0, 5 * kSecond);
  EXPECT_TRUE(cache.Contains(SegmentKey{PhysicalOid(1), 0}));
  EXPECT_FALSE(cache.Contains(SegmentKey{PhysicalOid(1), 1}));
  EXPECT_TRUE(cache.Contains(SegmentKey{PhysicalOid(1), 2}));
  EXPECT_TRUE(cache.Contains(SegmentKey{PhysicalOid(2), 0}));
}

TEST(SegmentCacheTest, PoliciesDivergeOnSkewedPrefixWorkload) {
  // A popular video's prefix is re-read constantly while a long one-off
  // scan floods the cache. Under LRU the scan's fresh segments displace
  // the popular prefix; the utility-weighted policy keeps it resident.
  auto run = [](const std::string& policy) {
    SegmentCache::Options options;
    options.capacity_kb = 1000.0;
    options.policy = policy;
    obs::MetricsRegistry metrics;
    SegmentCache cache(options, metrics, "0");
    const PhysicalOid popular(1);
    const PhysicalOid scan(2);
    SimTime now = 0;
    // Build up popularity: many sessions re-reading the short prefix.
    for (int session = 0; session < 20; ++session) {
      for (int32_t seg = 0; seg < 4; ++seg) {
        now += kSecond;
        cache.Access(SegmentKey{popular, seg}, 100.0, now);
      }
    }
    // One long cold scan, twice the cache size.
    for (int32_t seg = 0; seg < 20; ++seg) {
      now += kSecond;
      cache.Access(SegmentKey{scan, seg}, 100.0, now);
    }
    // How much of the popular prefix survived the flood?
    return cache.CachedSegmentsOf(popular);
  };
  int lru_survivors = run("lru");
  int utility_survivors = run("utility");
  EXPECT_EQ(lru_survivors, 0);       // LRU keeps only the newest segments
  EXPECT_EQ(utility_survivors, 4);   // utility keeps the hot prefix
}

TEST(SegmentCacheTest, ContainsHasNoSideEffects) {
  obs::MetricsRegistry metrics;
  SegmentCache cache(SegmentCache::Options{}, metrics, "0");
  cache.Access(SegmentKey{PhysicalOid(1), 0}, 100.0, kSecond);
  SegmentCache::Counters before = cache.counters();
  EXPECT_TRUE(cache.Contains(SegmentKey{PhysicalOid(1), 0}));
  EXPECT_FALSE(cache.Contains(SegmentKey{PhysicalOid(1), 1}));
  EXPECT_EQ(cache.counters().hits, before.hits);
  EXPECT_EQ(cache.counters().misses, before.misses);
}

TEST(SegmentCacheTest, OversizedSegmentIsRejected) {
  SegmentCache::Options options;
  options.capacity_kb = 100.0;
  obs::MetricsRegistry metrics;
  SegmentCache cache(options, metrics, "0");
  EXPECT_FALSE(cache.Access(SegmentKey{PhysicalOid(1), 0}, 500.0, 0));
  EXPECT_FALSE(cache.Contains(SegmentKey{PhysicalOid(1), 0}));
  EXPECT_EQ(cache.counters().rejected, 1u);
  EXPECT_DOUBLE_EQ(cache.used_kb(), 0.0);
}

TEST(SegmentCacheTest, EraseReplicaDropsAllItsSegments) {
  obs::MetricsRegistry metrics;
  SegmentCache cache(SegmentCache::Options{}, metrics, "0");
  for (int32_t seg = 0; seg < 5; ++seg) {
    cache.Access(SegmentKey{PhysicalOid(1), seg}, 50.0, kSecond);
    cache.Access(SegmentKey{PhysicalOid(2), seg}, 50.0, kSecond);
  }
  EXPECT_DOUBLE_EQ(cache.CachedKbOf(PhysicalOid(1)), 250.0);
  EXPECT_EQ(cache.EraseReplica(PhysicalOid(1)), 5u);
  EXPECT_DOUBLE_EQ(cache.CachedKbOf(PhysicalOid(1)), 0.0);
  EXPECT_EQ(cache.CachedSegmentsOf(PhysicalOid(1)), 0);
  // The other replica is untouched and the bytes balance.
  EXPECT_DOUBLE_EQ(cache.CachedKbOf(PhysicalOid(2)), 250.0);
  EXPECT_DOUBLE_EQ(cache.used_kb(), 250.0);
  // Invalidation is not eviction pressure: not charged as evictions.
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(CacheManagerTest, StreamingWarmsTheSourceSiteOnly) {
  std::vector<SiteId> sites = {SiteId(0), SiteId(1)};
  obs::MetricsRegistry metrics;
  CacheManager manager(sites, CacheManager::Options{}, metrics);
  media::ReplicaInfo replica = MakeReplica(3, 60.0);
  EXPECT_DOUBLE_EQ(manager.CachedFraction(SiteId(0), replica), 0.0);

  manager.OnStream(SiteId(0), replica, kSecond);
  EXPECT_DOUBLE_EQ(manager.CachedFraction(SiteId(0), replica), 1.0);
  EXPECT_DOUBLE_EQ(manager.CachedFraction(SiteId(1), replica), 0.0);
  // Unknown sites answer cold instead of failing.
  EXPECT_DOUBLE_EQ(manager.CachedFraction(SiteId(9), replica), 0.0);

  // First pass was all misses; a second pass is all hits.
  SegmentCache::Counters counters = manager.TotalCounters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_GT(counters.misses, 0u);
  manager.OnStream(SiteId(0), replica, 2 * kSecond);
  counters = manager.TotalCounters();
  EXPECT_EQ(counters.hits, counters.misses);
  EXPECT_DOUBLE_EQ(counters.hit_kb, counters.miss_kb);

  manager.EraseReplica(replica.id);
  EXPECT_DOUBLE_EQ(manager.CachedFraction(SiteId(0), replica), 0.0);
}

TEST(EvictionPolicyTest, FactoryKnowsBothPolicies) {
  EXPECT_NE(MakeEvictionPolicy("lru"), nullptr);
  EXPECT_NE(MakeEvictionPolicy("utility"), nullptr);
  EXPECT_EQ(MakeEvictionPolicy("no-such-policy"), nullptr);
}

TEST(EvictionPolicyTest, UtilityFavorsEarlySegmentsAndPopularity) {
  UtilityWeightedPolicy policy;
  SegmentMeta early;
  early.key = SegmentKey{PhysicalOid(1), 0};
  early.popularity = 5.0;
  early.last_access = 10 * kSecond;
  SegmentMeta late = early;
  late.key.index = 9;
  EXPECT_GT(policy.Score(early, 10 * kSecond),
            policy.Score(late, 10 * kSecond));
  // Popularity decays with idleness inside the score.
  EXPECT_GT(policy.Score(early, 10 * kSecond),
            policy.Score(early, 1000 * kSecond));
}

}  // namespace
}  // namespace quasaq::cache
