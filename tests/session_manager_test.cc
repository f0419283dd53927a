#include "core/session_manager.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"

// Session lifecycle layer: the invariant under test throughout is that
// a session's resources are released exactly once — at completion,
// cancellation, or pause — no matter how pause / resume / renegotiate /
// cancel interleave.

namespace quasaq::core {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest()
      : api_(&pool_, observability_.metrics()),
        manager_(&simulator_, &api_, observability_,
                 [this](SessionId id, SimTime) {
                   completed_ids_.push_back(id);
                 }) {
    EXPECT_TRUE(pool_.DeclareBucket({SiteId(0), ResourceKind::kNetworkBandwidth}, 1000.0).ok());
    EXPECT_TRUE(pool_.DeclareBucket({SiteId(1), ResourceKind::kNetworkBandwidth}, 1000.0).ok());
  }

  ResourceVector Kbps(int site, double kbps) {
    ResourceVector v;
    v.Add({SiteId(site), ResourceKind::kNetworkBandwidth}, kbps);
    return v;
  }

  res::ReservationId Reserve(double kbps) {
    Result<res::ReservationId> r = api_.Reserve(Kbps(0, kbps));
    EXPECT_TRUE(r.ok());
    return *r;
  }

  SessionManager::Record ReservedRecord(res::ReservationId id) {
    SessionManager::Record record;
    record.content = LogicalOid(0);
    record.site = SiteId(0);
    record.reservation = id;
    return record;
  }

  sim::Simulator simulator_;
  obs::Observability observability_;
  res::ResourcePool pool_;
  res::CompositeQosApi api_;
  // Every session the manager's completion callback reported, in order.
  std::vector<SessionId> completed_ids_;
  SessionManager manager_;
};

TEST_F(SessionManagerTest, StartCapturesVectorAndCompletesOnce) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  EXPECT_EQ(manager_.outstanding(), 1);
  std::optional<SessionManager::Record> record = manager_.Snapshot(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->reserved_vector.empty());

  simulator_.RunAll();
  EXPECT_EQ(manager_.outstanding(), 0);
  EXPECT_EQ(manager_.completed(), 1u);
  EXPECT_EQ(completed_ids_, std::vector<SessionId>{id});
  EXPECT_EQ(api_.stats().released, 1u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

TEST_F(SessionManagerTest, CancelWhilePausedDoesNotDoubleRelease) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  EXPECT_EQ(api_.stats().released, 1u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);

  ASSERT_TRUE(manager_.Cancel(id).ok());
  EXPECT_EQ(api_.stats().released, 1u);  // pause already gave it back
  EXPECT_EQ(manager_.outstanding(), 0);
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), 0u);  // no stale completion event fires
}

TEST_F(SessionManagerTest, ResumeFailureLeavesSessionPaused) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(800.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  // The released 800 KB/s slot gets taken while the user is paused.
  Result<res::ReservationId> blocker = api_.Reserve(Kbps(0, 900.0));
  ASSERT_TRUE(blocker.ok());

  Status resumed = manager_.Resume(id);
  EXPECT_EQ(resumed.code(), StatusCode::kResourceExhausted);
  std::optional<SessionManager::Record> record = manager_.Snapshot(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->paused);
  // Nothing was acquired by the failed resume.
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.9);

  ASSERT_TRUE(api_.Release(*blocker).ok());
  ASSERT_TRUE(manager_.Resume(id).ok());
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), 1u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
  // pause + blocker + completion: each slot released exactly once.
  EXPECT_EQ(api_.stats().released, 3u);
}

TEST_F(SessionManagerTest, VdbmsPinningIsKeyedBySite) {
  SessionManager::Record a;
  a.content = LogicalOid(0);
  a.site = SiteId(0);
  a.vdbms_kbps = 500.0;
  SessionManager::Record b;
  b.content = LogicalOid(1);
  b.site = SiteId(1);
  b.vdbms_kbps = 300.0;
  SessionId id_a = manager_.Start(std::move(a), 60.0);
  manager_.Start(std::move(b), 60.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 500.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 300.0);

  ASSERT_TRUE(manager_.Pause(id_a).ok());
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 0.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 300.0);
  ASSERT_TRUE(manager_.Resume(id_a).ok());
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 500.0);

  simulator_.RunAll();
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 0.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 0.0);
}

TEST_F(SessionManagerTest, AdoptedPlanIsWhatResumeReadmits) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  ASSERT_TRUE(
      manager_.AdoptRenegotiatedPlan(id, SiteId(1), Kbps(1, 100.0)).ok());
  ASSERT_TRUE(manager_.Resume(id).ok());
  // The re-admitted reservation is the adopted 100 KB/s on site 1, not
  // the original 400 KB/s on site 0.
  EXPECT_DOUBLE_EQ(pool_.Used({SiteId(1), ResourceKind::kNetworkBandwidth}),
                   100.0);
  EXPECT_DOUBLE_EQ(pool_.Used({SiteId(0), ResourceKind::kNetworkBandwidth}),
                   0.0);
  simulator_.RunAll();
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

// Sessions on many sites share the one table: lookup, lifecycle calls
// and the outstanding()/completed() totals cover every site.
TEST_F(SessionManagerTest, CrossSiteLookupFindsEverySession) {
  constexpr int kSites = 8;
  for (int site = 2; site < kSites; ++site) {
    ASSERT_TRUE(pool_
                    .DeclareBucket(
                        {SiteId(site), ResourceKind::kNetworkBandwidth},
                        1000.0)
                    .ok());
  }
  std::vector<SessionId> ids;
  for (int site = 0; site < kSites; ++site) {
    Result<res::ReservationId> r = api_.Reserve(Kbps(site, 100.0));
    ASSERT_TRUE(r.ok());
    SessionManager::Record record;
    record.content = LogicalOid(site);
    record.site = SiteId(site);
    record.reservation = *r;
    ids.push_back(manager_.Start(std::move(record), 60.0));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  EXPECT_EQ(manager_.outstanding(), kSites);
  for (int site = 0; site < kSites; ++site) {
    std::optional<SessionManager::Record> record =
        manager_.Snapshot(ids[site]);
    ASSERT_TRUE(record.has_value()) << "site " << site;
    EXPECT_EQ(record->site, SiteId(site));
    EXPECT_EQ(record->content, LogicalOid(site));
  }
  ASSERT_TRUE(manager_.Pause(ids[3]).ok());
  ASSERT_TRUE(manager_.Resume(ids[3]).ok());
  ASSERT_TRUE(manager_.Cancel(ids[5]).ok());
  EXPECT_FALSE(manager_.Snapshot(ids[5]).has_value());
  EXPECT_EQ(manager_.outstanding(), kSites - 1);
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), static_cast<uint64_t>(kSites - 1));
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

TEST_F(SessionManagerTest, SessionIdsAreDenseFromOne) {
  // Harnesses key logs on the dense 1, 2, 3... sequence.
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(1));
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(2));
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(3));
}

// VDBMS pins are exact: pinning and unpinning any multiset of bitrates,
// in any order and through any mix of cancel, pause and completion,
// leaves every site at exactly zero.
TEST_F(SessionManagerTest, VdbmsPinsUnwindToExactlyZeroInAnyOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<SessionId> ids;
    for (int i = 0; i < 40; ++i) {
      SessionManager::Record record;
      record.content = LogicalOid(i);
      record.site = SiteId(static_cast<int>(rng.UniformInt(0, 1)));
      record.vdbms_kbps = rng.Uniform(0.1, 2000.0);
      ids.push_back(manager_.Start(record, rng.Uniform(1.0, 100.0)));
    }
    for (size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<size_t>(
                            rng.UniformInt(0, static_cast<int64_t>(i)))]);
    }
    for (size_t i = 0; i < ids.size() / 2; ++i) {
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(manager_.Cancel(ids[i]).ok());
      } else {
        ASSERT_TRUE(manager_.Pause(ids[i]).ok());
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(manager_.Resume(ids[i]).ok());
        }
        ASSERT_TRUE(manager_.Cancel(ids[i]).ok());
      }
    }
    simulator_.RunAll();  // the rest complete in expected-end order
    EXPECT_EQ(manager_.outstanding(), 0);
    EXPECT_EQ(manager_.vdbms_active_kbps(SiteId(0)), 0.0) << "seed " << seed;
    EXPECT_EQ(manager_.vdbms_active_kbps(SiteId(1)), 0.0) << "seed " << seed;
  }
}

// Interleavings through the facade: ChangeSessionQos against paused
// sessions, double-release hunting across the full QuaSAQ stack.
class SessionInterleavingTest : public ::testing::Test {
 protected:
  SessionInterleavingTest() {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    options.seed = 3;
    options.library.min_duration_seconds = 60.0;
    options.library.max_duration_seconds = 90.0;
    system_ = std::make_unique<MediaDbSystem>(&simulator_, options);
  }

  // A DVD-rate session: only satisfiable by the master replica.
  MediaDbSystem::DeliveryOutcome StartHighRate() {
    return system_->SubmitDelivery(SiteId(0), LogicalOid(0), HighRateQos());
  }

  query::QosRequirement HighRateQos() {
    query::QosRequirement qos;
    qos.range.min_resolution = media::kResolutionSvcd;
    qos.range.min_color_depth_bits = 24;
    qos.range.min_frame_rate = 20.0;
    return qos;
  }

  query::QosRequirement WideQos() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    return qos;
  }

  sim::Simulator simulator_;
  std::unique_ptr<MediaDbSystem> system_;
};

TEST_F(SessionInterleavingTest, MidPauseQosChangeAppliesOnResume) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);

  // Renegotiate downward while paused: the new plan is adopted but
  // nothing is acquired until the user hits play again.
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, WideQos());
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed->renegotiated);
  EXPECT_LT(changed->wire_rate_kbps, outcome.wire_rate_kbps);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
  EXPECT_EQ(system_->outstanding_sessions(), 1);

  ASSERT_TRUE(system_->ResumeSession(outcome.session).ok());
  EXPECT_GT(system_->pool().MaxUtilization(), 0.0);
  simulator_.RunAll();
  EXPECT_EQ(system_->stats().completed, 1u);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, CancelWhilePausedReleasesExactlyOnce) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  uint64_t released_after_pause = system_->qos_api().stats().released;
  ASSERT_TRUE(system_->CancelSession(outcome.session).ok());
  EXPECT_EQ(system_->qos_api().stats().released, released_after_pause);
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, ResumeFailureAfterQosChangeStaysPaused) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, HighRateQos());
  ASSERT_TRUE(changed.ok());

  // Occupy every link while the user is paused.
  for (int i = 0; i < 400; ++i) {
    system_->SubmitDelivery(SiteId(i % 3), LogicalOid(i % 15), HighRateQos());
  }
  uint64_t released_before = system_->qos_api().stats().released;
  EXPECT_EQ(system_->ResumeSession(outcome.session).code(),
            StatusCode::kResourceExhausted);
  // The failed resume neither acquired nor released anything.
  EXPECT_EQ(system_->qos_api().stats().released, released_before);

  simulator_.RunAll();  // the load drains; the session is still paused
  EXPECT_EQ(system_->outstanding_sessions(), 1);
  ASSERT_TRUE(system_->ResumeSession(outcome.session).ok());
  simulator_.RunAll();
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, QosChangeOnRunningSessionSwapsInPlace) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  double before = system_->pool().MaxUtilization();
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, WideQos());
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_LT(changed->wire_rate_kbps, outcome.wire_rate_kbps);
  EXPECT_LT(system_->pool().MaxUtilization(), before);
  simulator_.RunAll();
  EXPECT_EQ(system_->stats().completed, 1u);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

}  // namespace
}  // namespace quasaq::core
