// Every stats()/counters() field that has an exported quasaq_* twin
// reads that series, so after any mix of lifecycle operations the two
// must agree exactly — and the active-session gauge must come back to
// zero once every session has ended.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/system.h"
#include "query/ast.h"

namespace quasaq::core {
namespace {

class MetricsReconciliationTest : public ::testing::Test {
 protected:
  MetricsReconciliationTest() {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    options.seed = 3;
    options.library.max_duration_seconds = 90.0;
    options.cache.enabled = true;
    system_ = std::make_unique<MediaDbSystem>(&simulator_, options);
  }

  double Series(const char* name) {
    return system_->observability().metrics().GetCounter(name, "")->value();
  }

  // Sum of a site-labeled cache series over every site.
  double SiteSum(const char* name) {
    double sum = 0.0;
    for (SiteId site : system_->topology().SiteIds()) {
      sum += system_->observability()
                 .metrics()
                 .GetCounter(name, "", {{"site", std::to_string(site.value())}})
                 ->value();
    }
    return sum;
  }

  // Fills `kind` on every site up to `leave` units short of capacity;
  // returns what was taken so the caller can give it back.
  ResourceVector Fill(ResourceKind kind, double leave) {
    ResourceVector fill;
    for (SiteId site : system_->topology().SiteIds()) {
      const BucketId bucket{site, kind};
      const double free = system_->pool().Capacity(bucket) -
                          system_->pool().Used(bucket) - leave;
      if (free > 0.0) fill.Add(bucket, free);
    }
    EXPECT_TRUE(system_->pool().Acquire(fill).ok());
    return fill;
  }

  static query::QosRequirement Low() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    qos.range.max_resolution = media::kResolutionSif;
    return qos;
  }

  static query::QosRequirement High() {
    query::QosRequirement qos;
    qos.range.min_resolution = media::kResolutionSvcd;
    qos.range.min_color_depth_bits = 24;
    qos.range.min_frame_rate = 20.0;
    return qos;
  }

  sim::Simulator simulator_;
  std::unique_ptr<MediaDbSystem> system_;
};

TEST_F(MetricsReconciliationTest, EveryStatsTwinEqualsItsExportedSeries) {
  const UserProfile profile(UserId(1), "user");

  // Admit three sessions.
  MediaDbSystem::DeliveryOutcome a =
      system_->SubmitDelivery(SiteId(0), LogicalOid(0), Low());
  MediaDbSystem::DeliveryOutcome b =
      system_->SubmitDelivery(SiteId(1), LogicalOid(1), Low());
  MediaDbSystem::DeliveryOutcome c =
      system_->SubmitDelivery(SiteId(2), LogicalOid(2), Low());
  ASSERT_TRUE(a.status.ok() && b.status.ok() && c.status.ok());

  // EXPLAIN reserves nothing but does search.
  ASSERT_TRUE(system_->quality_manager()
                  ->ExplainPlans(SiteId(0), LogicalOid(3), Low(), 10)
                  .ok());

  // Refused: no replica satisfies the window.
  query::QosRequirement impossible;
  impossible.range.min_frame_rate = 60.0;
  EXPECT_FALSE(
      system_->SubmitDelivery(SiteId(0), LogicalOid(4), impossible)
          .status.ok());

  // Refused: plans exist but no CPU is left anywhere.
  ResourceVector cpu = Fill(ResourceKind::kCpu, 0.0);
  EXPECT_EQ(system_->SubmitDelivery(SiteId(0), LogicalOid(4), Low())
                .status.code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(system_->pool().Release(cpu).ok());

  // Relaxed admit: the links carry only a degraded stream.
  ResourceVector net = Fill(ResourceKind::kNetworkBandwidth, 200.0);
  MediaDbSystem::DeliveryOutcome relaxed =
      system_->SubmitDelivery(SiteId(0), LogicalOid(5), High(), &profile);
  ASSERT_TRUE(relaxed.status.ok()) << relaxed.status.ToString();
  EXPECT_TRUE(relaxed.renegotiated);
  ASSERT_TRUE(system_->pool().Release(net).ok());

  // In-place renegotiation, a paused one, pause/resume and a cancel.
  ASSERT_TRUE(system_->ChangeSessionQos(a.session, High()).ok());
  ASSERT_TRUE(system_->PauseSession(b.session).ok());
  ASSERT_TRUE(system_->ChangeSessionQos(b.session, High()).ok());
  ASSERT_TRUE(system_->ResumeSession(b.session).ok());
  ASSERT_TRUE(system_->CancelSession(c.session).ok());

  // Completion of the rest.
  simulator_.RunAll();
  ASSERT_EQ(system_->outstanding_sessions(), 0);

  const QualityManager::Stats plan = system_->quality_manager()->stats();
  EXPECT_EQ(plan.queries, Series("quasaq_plan_queries_total"));
  EXPECT_EQ(plan.admitted, Series("quasaq_plan_admitted_total"));
  EXPECT_EQ(plan.rejected_no_plan,
            Series("quasaq_plan_rejected_no_plan_total"));
  EXPECT_EQ(plan.rejected_no_resources,
            Series("quasaq_plan_rejected_no_resources_total"));
  EXPECT_EQ(plan.plans_generated, Series("quasaq_plan_generated_total"));
  EXPECT_EQ(plan.groups_pruned, Series("quasaq_plan_groups_pruned_total"));
  EXPECT_EQ(plan.queries, 6u);
  EXPECT_EQ(plan.rejected_no_plan, 1u);
  EXPECT_EQ(plan.rejected_no_resources, 1u);
  EXPECT_EQ(plan.renegotiated, 1u);

  const res::CompositeQosApi::Stats api = system_->qos_api().stats();
  EXPECT_EQ(api.admitted, Series("quasaq_resource_reserve_accepted_total"));
  EXPECT_EQ(api.rejected, Series("quasaq_resource_reserve_rejected_total"));
  EXPECT_EQ(api.released, Series("quasaq_resource_released_total"));
  EXPECT_EQ(api.renegotiations,
            Series("quasaq_resource_renegotiate_accepted_total"));
  EXPECT_EQ(api.renegotiation_failures,
            Series("quasaq_resource_renegotiate_rejected_total"));
  EXPECT_EQ(api.admitted, api.released);
  EXPECT_GE(api.renegotiations, 1u);

  EXPECT_EQ(system_->session_manager().completed(),
            Series("quasaq_session_completed_total"));
  EXPECT_EQ(system_->stats().completed, Series("quasaq_session_completed_total"));
  EXPECT_EQ(system_->stats().completed, 3u);

  const cache::SegmentCache::Counters cache =
      system_->cache_manager()->TotalCounters();
  EXPECT_EQ(cache.hits, SiteSum("quasaq_cache_hits_total"));
  EXPECT_EQ(cache.misses, SiteSum("quasaq_cache_misses_total"));
  EXPECT_EQ(cache.inserts, SiteSum("quasaq_cache_inserts_total"));
  EXPECT_EQ(cache.evictions, SiteSum("quasaq_cache_evictions_total"));
  EXPECT_EQ(cache.rejected, SiteSum("quasaq_cache_rejected_total"));
  EXPECT_EQ(cache.hit_kb, SiteSum("quasaq_cache_hit_kb_total"));
  EXPECT_EQ(cache.miss_kb, SiteSum("quasaq_cache_miss_kb_total"));
  EXPECT_EQ(cache.evicted_kb, SiteSum("quasaq_cache_evicted_kb_total"));
  EXPECT_GT(cache.misses, 0u);
}

TEST_F(MetricsReconciliationTest, ActiveGaugeDropsToZeroOnCompletion) {
  ASSERT_TRUE(
      system_->SubmitDelivery(SiteId(0), LogicalOid(0), Low()).status.ok());
  ASSERT_TRUE(
      system_->SubmitDelivery(SiteId(1), LogicalOid(1), Low()).status.ok());
  const obs::Gauge* active = system_->observability().metrics().GetGauge(
      "quasaq_session_active_count", "");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 2.0);

  simulator_.RunAll();
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_EQ(active->value(), 0.0);
  // The drop is in the sampled history too, at the last completion.
  const TimeSeries history = active->history();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.samples().back().value, 0.0);
}

}  // namespace
}  // namespace quasaq::core
