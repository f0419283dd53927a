// Cache-aware plan generation: cache-served plan variants, their
// disk -> memory-bandwidth resource swap, how the cost evaluator ranks
// them, the storage manager's cache-served read path, and the
// system-level admission loop that warms the cache.

#include <gtest/gtest.h>

#include "cache/cache_manager.h"
#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/plan_generator.h"
#include "core/system.h"
#include "media/library.h"
#include "resource/pool.h"
#include "simcore/simulator.h"
#include "storage/storage_manager.h"

namespace quasaq::core {
namespace {

media::VideoContent MakeContent(int64_t oid) {
  media::VideoContent content;
  content.id = LogicalOid(oid);
  content.title = "video" + std::to_string(oid);
  content.duration_seconds = 60.0;
  content.master_quality = media::QualityLadder::Standard().levels[0];
  return content;
}

media::ReplicaInfo MakeReplica(int64_t oid, int64_t content, int site,
                               int level) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(content);
  replica.site = SiteId(site);
  replica.qos =
      media::QualityLadder::Standard().levels[static_cast<size_t>(level)];
  replica.duration_seconds = 60.0;
  replica.frame_seed = static_cast<uint64_t>(oid);
  media::FinalizeReplicaSizing(replica);
  return replica;
}

// Planner-side stub: reports the same cached fraction for every replica.
class FakeCacheView : public cache::CacheView {
 public:
  explicit FakeCacheView(double fraction) : fraction_(fraction) {}
  double CachedFraction(SiteId, const media::ReplicaInfo&) const override {
    return fraction_;
  }

 private:
  double fraction_;
};

class CachePlanTest : public ::testing::Test {
 protected:
  CachePlanTest()
      : sites_({SiteId(0), SiteId(1)}),
        metadata_(sites_, meta::DistributedMetadataEngine::Options()),
        replica_(MakeReplica(0, 0, 0, 0)) {
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    EXPECT_TRUE(metadata_.InsertReplica(replica_).ok());
  }

  PlanGenerator MakeGenerator(PlanGenerator::Options options = {}) {
    return PlanGenerator(&metadata_, sites_, options);
  }

  static query::QosRequirement AnyQos() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    return qos;
  }

  std::vector<SiteId> sites_;
  meta::DistributedMetadataEngine metadata_;
  media::ReplicaInfo replica_;
};

TEST_F(CachePlanTest, WarmCacheDoublesTheSpaceWithCachedVariants) {
  PlanGenerator cold = MakeGenerator();
  Result<std::vector<Plan>> cold_plans =
      cold.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(cold_plans.ok());
  for (const Plan& plan : *cold_plans) {
    EXPECT_FALSE(plan.IsCacheServed());
  }

  FakeCacheView view(0.6);
  PlanGenerator warm = MakeGenerator();
  warm.set_cache_view(&view);
  Result<std::vector<Plan>> warm_plans =
      warm.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(warm_plans.ok());
  // Every base plan gains exactly one cache-served twin.
  EXPECT_EQ(warm_plans->size(), cold_plans->size() * 2);
  size_t cached = 0;
  for (const Plan& plan : *warm_plans) {
    if (plan.IsCacheServed()) {
      ++cached;
      EXPECT_DOUBLE_EQ(plan.cache_fraction, 0.6);
    }
  }
  EXPECT_EQ(cached, cold_plans->size());
}

TEST_F(CachePlanTest, CachedVariantSwapsDiskForMemoryBandwidth) {
  FakeCacheView view(0.6);
  PlanGenerator generator = MakeGenerator();
  generator.set_cache_view(&view);
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(plans.ok());
  BucketId disk{SiteId(0), ResourceKind::kDiskBandwidth};
  BucketId membw{SiteId(0), ResourceKind::kMemoryBandwidth};
  size_t checked = 0;
  for (const Plan& plan : *plans) {
    if (plan.IsCacheServed()) {
      EXPECT_NEAR(plan.resources.Get(disk),
                  replica_.bitrate_kbps * 0.4, 1e-9);
      EXPECT_NEAR(plan.resources.Get(membw),
                  replica_.bitrate_kbps * 0.6, 1e-9);
      ++checked;
    } else {
      EXPECT_NEAR(plan.resources.Get(disk), replica_.bitrate_kbps, 1e-9);
      EXPECT_DOUBLE_EQ(plan.resources.Get(membw), 0.0);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(CachePlanTest, CachedVariantDeliversSameQosWithFasterStartup) {
  FakeCacheView view(1.0);
  PlanGenerator generator = MakeGenerator();
  generator.set_cache_view(&view);
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(plans.ok());
  // Variants come in (cached, base) pairs sharing all activity choices.
  for (size_t i = 0; i + 1 < plans->size(); ++i) {
    const Plan& a = (*plans)[i];
    const Plan& b = (*plans)[i + 1];
    if (!a.IsCacheServed() || b.IsCacheServed()) continue;
    EXPECT_EQ(a.delivered_qos, b.delivered_qos);
    EXPECT_DOUBLE_EQ(a.wire_rate_kbps, b.wire_rate_kbps);
    EXPECT_LT(a.startup_seconds, b.startup_seconds);
  }
}

TEST_F(CachePlanTest, ColdOrBelowThresholdEmitsNoCachedVariants) {
  FakeCacheView barely_warm(0.01);  // below the 5% default threshold
  PlanGenerator generator = MakeGenerator();
  generator.set_cache_view(&barely_warm);
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_FALSE(plan.IsCacheServed());
  }

  // Detaching the view turns cache-served variants off, however warm.
  FakeCacheView fully_warm(1.0);
  PlanGenerator off = MakeGenerator();
  off.set_cache_view(&fully_warm);
  off.set_cache_view(nullptr);
  plans = off.Generate(SiteId(0), LogicalOid(0), AnyQos());
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_FALSE(plan.IsCacheServed());
  }
}

TEST_F(CachePlanTest, EvaluatorPrefersCachedVariantWhenDiskIsHot) {
  // Two otherwise-identical plans: disk-served and fully cache-served.
  Plan base;
  base.replica_oid = replica_.id;
  base.source_site = replica_.site;
  base.delivery_site = replica_.site;
  FinalizePlan(base, replica_, PlanCostConstants{});
  Plan cached = base;
  cached.cache_fraction = 1.0;
  FinalizePlan(cached, replica_, PlanCostConstants{});

  res::ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kCpu}, 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kNetworkBandwidth}, 8000.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kDiskBandwidth}, 2500.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kMemory}, 1024.0 * 1024.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kMemoryBandwidth}, 200000.0).ok());
  // Load the disk bucket close to capacity: the LRB cost of the
  // disk-served plan spikes, the cache-served one is unaffected.
  ResourceVector load;
  load.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 2200.0);
  ASSERT_TRUE(pool.Acquire(load).ok());

  std::unique_ptr<CostModel> model = MakeCostModel("lrb", 1);
  RuntimeCostEvaluator evaluator(model.get());
  EXPECT_LT(evaluator.EfficiencyCost(cached, pool.Snapshot()),
            evaluator.EfficiencyCost(base, pool.Snapshot()));

  std::vector<Plan> plans;
  plans.push_back(base);
  plans.push_back(cached);
  evaluator.Rank(plans, pool);
  EXPECT_TRUE(plans.front().IsCacheServed());
}

TEST(StorageCacheTest, CachedRangesAreServedFromMemory) {
  media::ReplicaInfo replica = MakeReplica(5, 5, 0, 0);
  storage::StorageManager::Options options;
  storage::StorageManager manager(SiteId(0), options);
  ASSERT_TRUE(manager.store().Put(replica).ok());
  obs::MetricsRegistry metrics;
  cache::SegmentCache cache(cache::SegmentCache::Options{}, metrics, "0");
  manager.AttachCache(&cache);

  // Cold read goes to disk and fills the touched segments.
  Result<SimTime> cold = manager.ReadObjectPages(replica.id, 0, 8, 0);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cache.counters().misses, 0u);
  EXPECT_EQ(cache.counters().hits, 0u);

  // Warm read of the same range is memory-served: orders of magnitude
  // faster than any disk path, and counted as hits.
  Result<SimTime> warm =
      manager.ReadObjectPages(replica.id, 0, 8, kSecond);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cache.counters().hits, 0u);
  EXPECT_LT(*warm, *cold);
  double kb = 8 * manager.disk_model().page_kb();
  EXPECT_EQ(*warm, SecondsToSimTime(kb / options.memory_read_kbps));

  // Detached cache restores the plain disk path.
  manager.AttachCache(nullptr);
  Result<SimTime> detached =
      manager.ReadObjectPages(replica.id, 0, 8, 2 * kSecond);
  ASSERT_TRUE(detached.ok());
}

TEST(SystemCacheTest, RepeatQueriesTurnIntoCacheHits) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.cache.enabled = true;
  MediaDbSystem system(&simulator, options);
  ASSERT_NE(system.cache_manager(), nullptr);

  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  SiteId client(0);
  LogicalOid content(0);

  // First delivery streams from disk and warms the cache.
  MediaDbSystem::DeliveryOutcome first =
      system.SubmitDelivery(client, content, qos);
  ASSERT_TRUE(first.status.ok());
  cache::SegmentCache::Counters counters =
      system.cache_manager()->TotalCounters();
  EXPECT_GT(counters.misses, 0u);
  EXPECT_EQ(counters.hits, 0u);

  // Let the first session finish so both queries are planned under the
  // same (idle) system status; only the cache warmth differs.
  simulator.RunUntil(2000 * kSecond);
  EXPECT_EQ(system.outstanding_sessions(), 0);

  // The repeat query is planned against the warm cache: the admitted
  // plan is cache-served, so the stream's segments come back as hits.
  MediaDbSystem::DeliveryOutcome second =
      system.SubmitDelivery(client, content, qos);
  ASSERT_TRUE(second.status.ok());
  counters = system.cache_manager()->TotalCounters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.HitRatio(), 0.0);
}

TEST(SystemCacheTest, CacheDisabledByDefault) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  MediaDbSystem system(&simulator, options);
  EXPECT_EQ(system.cache_manager(), nullptr);
}

}  // namespace
}  // namespace quasaq::core
