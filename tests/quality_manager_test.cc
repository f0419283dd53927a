#include "core/quality_manager.h"

#include <gtest/gtest.h>

#include "media/library.h"

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

class QualityManagerTest : public ::testing::Test {
 protected:
  QualityManagerTest()
      : sites_({SiteId(0), SiteId(1)}),
        metadata_(sites_, meta::DistributedMetadataEngine::Options()),
        api_(&pool_, observability_.metrics()) {
    for (SiteId site : sites_) {
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kCpu}, 1.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kNetworkBandwidth}, 3200.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kDiskBandwidth}, 20000.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kMemory}, 1 << 20).ok());
    }
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    int64_t oid = 0;
    for (int site = 0; site < 2; ++site) {
      for (int level = 0; level < 3; ++level) {
        EXPECT_TRUE(
            metadata_.InsertReplica(MakeReplica(oid++, 0, site, level)).ok());
      }
    }
  }

  QualityManager MakeManager(QualityManager::Options options = {}) {
    return QualityManager(&metadata_, &api_, &lrb_, sites_, options,
                          observability_);
  }

  query::QosRequirement WideQos() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    return qos;
  }

  std::vector<SiteId> sites_;
  meta::DistributedMetadataEngine metadata_;
  obs::Observability observability_;
  res::ResourcePool pool_;
  res::CompositeQosApi api_;
  LrbCostModel lrb_;
};

TEST_F(QualityManagerTest, AdmitsAndReservesBestPlan) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_NE(admitted->reservation, res::kInvalidReservationId);
  EXPECT_FALSE(admitted->renegotiated);
  EXPECT_GT(pool_.MaxUtilization(), 0.0);
  EXPECT_EQ(manager.stats().queries, 1u);
  EXPECT_EQ(manager.stats().admitted, 1u);
}

TEST_F(QualityManagerTest, LrbPicksTheCheapestSatisfyingStream) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok());
  // With wide-open QoS the minimum-bucket plan streams the lowest-rate
  // replica (the SIF level) — and, since the user accepts any frame
  // rate >= 1, shaves it further by frame dropping. Pure throughput
  // optimization races to the cheapest acceptable delivery.
  EXPECT_LE(admitted->plan.wire_rate_kbps, 40.0);
  EXPECT_FALSE(admitted->plan.transform.transcode_target.has_value());
  EXPECT_LE(admitted->plan.resources.Get(
                {SiteId(0), ResourceKind::kNetworkBandwidth}) +
                admitted->plan.resources.Get(
                    {SiteId(1), ResourceKind::kNetworkBandwidth}),
            40.0);
}

TEST_F(QualityManagerTest, TightQualityFloorPreventsTheRaceToTheBottom) {
  QualityManager manager = MakeManager();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 20.0;  // the user insists on full motion
  qos.range.min_resolution = media::kResolutionVcd;
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->plan.transform.drop, media::FrameDropStrategy::kNone);
  EXPECT_GE(admitted->plan.delivered_qos.frame_rate, 20.0);
}

TEST_F(QualityManagerTest, CompleteDeliveryReleasesResources) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(manager.CompleteDelivery(*admitted).ok());
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

TEST_F(QualityManagerTest, UnsatisfiableQosIsNotFound) {
  QualityManager manager = MakeManager();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 60.0;  // nothing streams at 60 fps
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.stats().rejected_no_plan, 1u);
}

TEST_F(QualityManagerTest, ExhaustedResourcesReject) {
  QualityManager manager = MakeManager();
  // Saturate both CPUs so no plan can be admitted.
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kCpu}, 1.0);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.stats().rejected_no_resources, 1u);
}

TEST_F(QualityManagerTest, WalksRankingPastInadmissiblePlans) {
  QualityManager manager = MakeManager();
  // Fill site 0's network almost completely: local low-rate plans still
  // fit, but high-rate ones do not.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 3190.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());
  query::QosRequirement qos = WideQos();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
}

TEST_F(QualityManagerTest, SingleAttemptSemanticsRejectsMore) {
  // With max_admission_attempts = 1 only the top-ranked plan is tried.
  QualityManager::Options options;
  options.max_admission_attempts = 1;
  options.enable_renegotiation = false;
  QualityManager manager = MakeManager(options);
  // Saturate CPU on both sites so closely that even the leanest plan
  // (a maximally dropped SIF stream needs ~0.1% of a CPU) cannot fit.
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kCpu}, 0.99995);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  EXPECT_FALSE(admitted.ok());
}

TEST_F(QualityManagerTest, RenegotiationGivesSecondChance) {
  QualityManager manager = MakeManager();
  UserProfile profile(UserId(1), "user");
  // QoS window satisfiable only by the DVD master (high everything)...
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;
  // ... but the network can no longer carry a DVD-rate stream anywhere.
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kNetworkBandwidth}, 3000.0);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> without =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  EXPECT_FALSE(without.ok());

  Result<QualityManager::Admitted> with =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos, &profile);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_TRUE(with->renegotiated);
  EXPECT_GE(manager.stats().renegotiated, 1u);
  // The degraded stream fits in the remaining 200 KB/s.
  EXPECT_LT(with->plan.wire_rate_kbps, 200.0);
}

TEST_F(QualityManagerTest, RenegotiationRoundsAreBounded) {
  QualityManager::Options options;
  options.max_renegotiation_rounds = 1;
  QualityManager manager = MakeManager(options);
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_frame_rate = 60.0;  // never satisfiable
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos, &profile);
  EXPECT_FALSE(admitted.ok());
}

TEST_F(QualityManagerTest, StatsCountPlansGenerated) {
  QualityManager manager = MakeManager();
  ASSERT_TRUE(
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos()).ok());
  EXPECT_GT(manager.stats().plans_generated, 0u);
}

}  // namespace
}  // namespace quasaq::core
