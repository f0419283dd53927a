#include "core/plan_generator.h"

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

class PlanGeneratorTest : public ::testing::Test {
 protected:
  PlanGeneratorTest()
      : sites_({SiteId(0), SiteId(1)}),
        metadata_(sites_, meta::DistributedMetadataEngine::Options()) {
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    // DVD master at both sites; VCD copy at site 0 only.
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(0, 0, 0, 0)).ok());
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(1, 0, 1, 0)).ok());
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(2, 0, 0, 1)).ok());
  }

  PlanGenerator MakeGenerator(PlanGenerator::Options options = {}) {
    return PlanGenerator(&metadata_, sites_, options);
  }

  std::vector<SiteId> sites_;
  meta::DistributedMetadataEngine metadata_;
};

TEST_F(PlanGeneratorTest, UnknownContentIsNotFound) {
  PlanGenerator generator = MakeGenerator();
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(9), query::QosRequirement{});
  ASSERT_FALSE(plans.ok());
  EXPECT_EQ(plans.status().code(), StatusCode::kNotFound);
}

TEST_F(PlanGeneratorTest, EveryPlanSatisfiesTheQosBounds) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionVcd;
  qos.range.min_frame_rate = 15.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_TRUE(qos.SatisfiedBy(plan.delivered_qos,
                                plan.transform.encryption))
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, NoEncryptionWhenSecurityNotRequested) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;  // security none
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_EQ(plan.transform.encryption, media::EncryptionAlgorithm::kNone)
        << "encrypting an unprotected stream wastes CPU: "
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, StrongSecurityLimitsAlgorithms) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.min_security = media::SecurityLevel::kStrong;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_EQ(plan.transform.encryption,
              media::EncryptionAlgorithm::kAlgorithm1);
  }
}

TEST_F(PlanGeneratorTest, StandardSecurityAllowsThreeAlgorithms) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.min_security = media::SecurityLevel::kStandard;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  bool saw1 = false;
  bool saw2 = false;
  bool saw3 = false;
  for (const Plan& plan : *plans) {
    EXPECT_NE(plan.transform.encryption, media::EncryptionAlgorithm::kNone);
    saw1 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm1;
    saw2 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm2;
    saw3 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm3;
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
  EXPECT_TRUE(saw3);
}

TEST_F(PlanGeneratorTest, ExpandGroupCountsCandidatesBeforePruning) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.min_security = media::SecurityLevel::kStandard;  // enc1..enc3
  qos.range.min_resolution = media::kResolutionVcd;    // prunes some
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator.EnumerateGroups(SiteId(0), LogicalOid(0));
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 6u);  // 3 replicas x 2 delivery sites
  size_t candidates = 0;
  size_t expected = 0;
  std::vector<Plan> plans;
  for (const PlanGenerator::GroupSeed& seed : *groups) {
    candidates += generator.ExpandGroup(seed, qos, plans);
    size_t targets = 1;  // stay at stored quality
    for (const media::AppQos& level :
         media::QualityLadder::Standard().levels) {
      if (media::TranscodeAllowed(seed.replica.qos, level)) ++targets;
    }
    expected += targets * media::kNumFrameDropStrategies * 3;
  }
  EXPECT_EQ(candidates, expected);
  // Static pruning removed some of them (no cache view, so no twins).
  EXPECT_LT(plans.size(), candidates);
  EXPECT_FALSE(plans.empty());
}

TEST_F(PlanGeneratorTest, NoUpTranscodingEverAppears) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    if (!plan.transform.transcode_target.has_value()) continue;
    // Find the source replica quality from its OID.
    media::AppQos source =
        plan.replica_oid == PhysicalOid(2)
            ? media::QualityLadder::Standard().levels[1]
            : media::QualityLadder::Standard().levels[0];
    EXPECT_TRUE(
        media::TranscodeAllowed(source, *plan.transform.transcode_target))
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, RelayDisabledKeepsDeliveryAtSource) {
  PlanGenerator::Options options;
  options.enable_relay = false;
  PlanGenerator generator = MakeGenerator(options);
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_FALSE(plan.IsRelayed());
  }
}

TEST_F(PlanGeneratorTest, DisablingActivitiesShrinksSpace) {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  PlanGenerator full = MakeGenerator();
  size_t full_count =
      full.Generate(SiteId(0), LogicalOid(0), qos)->size();

  PlanGenerator::Options no_drop;
  no_drop.enable_frame_dropping = false;
  size_t no_drop_count =
      MakeGenerator(no_drop).Generate(SiteId(0), LogicalOid(0), qos)->size();

  PlanGenerator::Options no_transcode;
  no_transcode.enable_transcoding = false;
  size_t no_transcode_count = MakeGenerator(no_transcode)
                                  .Generate(SiteId(0), LogicalOid(0), qos)
                                  ->size();
  EXPECT_LT(no_drop_count, full_count);
  EXPECT_LT(no_transcode_count, full_count);
}

TEST_F(PlanGeneratorTest, RawSpaceIsLargerThanPrunedSpace) {
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionVcd;  // excludes some plans
  PlanGenerator pruned = MakeGenerator();
  PlanGenerator::Options raw_options;
  raw_options.apply_static_pruning = false;
  PlanGenerator raw = MakeGenerator(raw_options);
  size_t pruned_count =
      pruned.Generate(SiteId(0), LogicalOid(0), qos)->size();
  size_t raw_count = raw.Generate(SiteId(0), LogicalOid(0), qos)->size();
  EXPECT_GT(raw_count, pruned_count);
}

TEST_F(PlanGeneratorTest, TightQosCanYieldEmptySpace) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  // No stored or derived stream has > 60 fps.
  qos.range.min_frame_rate = 60.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  EXPECT_TRUE(plans->empty());
}

TEST_F(PlanGeneratorTest, FrameDroppingUnlocksLowFrameRateWindows) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  // A 5-14 fps window at VCD-or-better resolution: no stored replica or
  // ladder transcode target fits, so only frame dropping can reach it.
  qos.range.min_frame_rate = 5.0;
  qos.range.max_frame_rate = 14.0;
  qos.range.min_resolution = media::kResolutionVcd;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_NE(plan.transform.drop, media::FrameDropStrategy::kNone);
  }
}

TEST_F(PlanGeneratorTest, MetadataLatencyIsAccumulated) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  SimTime latency = 0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos, &latency);
  ASSERT_TRUE(plans.ok());
  EXPECT_GT(latency, 0);
}

}  // namespace
}  // namespace quasaq::core
