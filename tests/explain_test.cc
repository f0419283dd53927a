// EXPLAIN path: plan enumeration and ranking exposed without execution.

#include <gtest/gtest.h>

#include "core/system.h"
#include "query/parser.h"

namespace quasaq::core {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    options.seed = 3;
    system_ = std::make_unique<MediaDbSystem>(&simulator_, options);
    keyword_ = system_->library().contents[0].keywords[0];
  }

  std::string Query(bool explain) {
    return std::string(explain ? "EXPLAIN " : "") +
           "SELECT video FROM videos WHERE CONTAINS('" + keyword_ +
           "') WITH QOS (framerate >= 5)";
  }

  sim::Simulator simulator_;
  std::unique_ptr<MediaDbSystem> system_;
  std::string keyword_;
};

TEST_F(ExplainTest, ParserRecognizesExplainPrefix) {
  Result<query::ParsedQuery> parsed = query::ParseQuery(Query(true));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->explain);
  Result<query::ParsedQuery> plain = query::ParseQuery(Query(false));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
}

TEST_F(ExplainTest, RanksPlansWithoutReservingAnything) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true));
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_FALSE(explanation->plans.empty());
  EXPECT_LE(explanation->plans.size(), 10u);
  // Ranked ascending by cost; all admissible on an idle system.
  double previous = -1.0;
  for (const QualityManager::RankedPlan& entry : explanation->plans) {
    EXPECT_GE(entry.cost, previous);
    previous = entry.cost;
    EXPECT_TRUE(entry.admissible);
  }
  // Nothing was executed or reserved.
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(ExplainTest, WorksWithoutThePrefixToo) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(false));
  ASSERT_TRUE(explanation.ok());
  EXPECT_FALSE(explanation->plans.empty());
}

TEST_F(ExplainTest, LimitCapsTheListing) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 3);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->plans.size(), 3u);
}

TEST_F(ExplainTest, AdmissibilityReflectsSystemLoad) {
  // Saturate the network everywhere: high-rate plans turn inadmissible.
  for (const net::ServerSpec& server : system_->topology().servers) {
    ResourceVector used;
    used.Add({server.id, ResourceKind::kNetworkBandwidth},
             server.outbound_kbps - 10.0);
    ASSERT_TRUE(system_->pool().Acquire(used).ok());
  }
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 50);
  ASSERT_TRUE(explanation.ok());
  bool any_inadmissible = false;
  for (const QualityManager::RankedPlan& entry : explanation->plans) {
    if (entry.plan.wire_rate_kbps > 10.0) {
      EXPECT_FALSE(entry.admissible) << entry.plan.ToString();
      any_inadmissible = true;
    }
  }
  EXPECT_TRUE(any_inadmissible);
}

TEST_F(ExplainTest, SubmitRejectsExplainQueries) {
  Result<MediaDbSystem::TextQueryOutcome> outcome =
      system_->SubmitTextQuery(SiteId(0), Query(true));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExplainTest, ToStringListsEveryPlan) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 5);
  ASSERT_TRUE(explanation.ok());
  std::string text = explanation->ToString();
  EXPECT_NE(text.find("EXPLAIN: 5 plans"), std::string::npos);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_NE(text.find("KB/s"), std::string::npos);
}

// The listing shows the key the stream ranked by, so it is ordered
// under every cost model, including Random, whose Cost() draws a fresh
// number on every call.
TEST(ExplainRandomModelTest, ListingIsNonDecreasing) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.cost_model = "random";
  MediaDbSystem system(&simulator, options);
  query::QosRequirement qos;
  qos.range.min_frame_rate = 5.0;
  Result<std::vector<QualityManager::RankedPlan>> plans =
      system.quality_manager()->ExplainPlans(SiteId(0), LogicalOid(0), qos,
                                             10);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  ASSERT_EQ(plans->size(), 10u);
  for (size_t i = 1; i < plans->size(); ++i) {
    EXPECT_LE((*plans)[i - 1].cost, (*plans)[i].cost) << "rank " << i + 1;
  }
}

TEST(ExplainOnVdbmsTest, RequiresQuasaq) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbms;
  MediaDbSystem system(&simulator, options);
  Result<MediaDbSystem::Explanation> explanation =
      system.ExplainTextQuery(SiteId(0), "SELECT v FROM videos");
  ASSERT_FALSE(explanation.ok());
  EXPECT_EQ(explanation.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace quasaq::core
