#include "core/plan_executor.h"

#include <gtest/gtest.h>

#include "media/library.h"
#include "net/playback.h"

namespace quasaq::core {
namespace {

media::ReplicaInfo MakeReplica(int level, int site,
                               double duration_seconds = 20.0) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(level * 10 + site);
  replica.content = LogicalOid(0);
  replica.site = SiteId(site);
  replica.qos =
      media::QualityLadder::Standard().levels[static_cast<size_t>(level)];
  replica.duration_seconds = duration_seconds;
  replica.frame_seed = 5;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

QualityManager::Admitted AdmittedFor(const media::ReplicaInfo& replica,
                                     net::StreamTransform transform = {}) {
  QualityManager::Admitted admitted;
  admitted.plan.replica_oid = replica.id;
  admitted.plan.source_site = replica.site;
  admitted.plan.delivery_site = replica.site;
  admitted.plan.transform = transform;
  FinalizePlan(admitted.plan, replica, PlanCostConstants{});
  admitted.reservation = 1;
  return admitted;
}

TEST(PlanExecutorTest, ExecutesPlainPlanToCompletion) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  media::ReplicaInfo replica = MakeReplica(1, 0);
  bool finished = false;
  Result<std::unique_ptr<RunningDelivery>> delivery = executor.Execute(
      AdmittedFor(replica), replica, [&finished] { finished = true; });
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  simulator.RunAll();
  EXPECT_TRUE(finished);
  EXPECT_TRUE((*delivery)->session().finished());
  // ~20 s at 23.97 fps.
  EXPECT_NEAR((*delivery)->session().delivered_frames(), 479, 2);
}

TEST(PlanExecutorTest, MismatchedReplicaRejected) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  media::ReplicaInfo replica = MakeReplica(1, 0);
  media::ReplicaInfo other = MakeReplica(2, 0);
  Result<std::unique_ptr<RunningDelivery>> delivery =
      executor.Execute(AdmittedFor(replica), other);
  ASSERT_FALSE(delivery.ok());
  EXPECT_EQ(delivery.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanExecutorTest, TransformShapesTheDeliveredStream) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  media::ReplicaInfo replica = MakeReplica(0, 0, 10.0);  // DVD master
  net::StreamTransform transform;
  transform.drop = media::FrameDropStrategy::kAllBFrames;
  Result<std::unique_ptr<RunningDelivery>> delivery =
      executor.Execute(AdmittedFor(replica, transform), replica);
  ASSERT_TRUE(delivery.ok());
  simulator.RunAll();
  // Only I and P frames delivered: 1/3 of the source frames.
  int source = (*delivery)->session().source_frames();
  EXPECT_NEAR((*delivery)->session().delivered_frames(), source / 3, 2);
}

TEST(PlanExecutorTest, CpuAdmissionLimitsConcurrentDeliveries) {
  sim::Simulator simulator;
  PlanExecutor::Options options;
  options.cpu_reservation_factor = 10.0;  // make streams CPU-hungry
  PlanExecutor executor(&simulator, options);
  media::ReplicaInfo replica = MakeReplica(0, 0, 60.0);
  std::vector<std::unique_ptr<RunningDelivery>> running;
  int rejected = 0;
  for (int i = 0; i < 20; ++i) {
    Result<std::unique_ptr<RunningDelivery>> delivery =
        executor.Execute(AdmittedFor(replica), replica);
    if (delivery.ok()) {
      running.push_back(std::move(*delivery));
    } else {
      EXPECT_EQ(delivery.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(running.size(), 0u);
  EXPECT_GT(rejected, 0);
}

TEST(PlanExecutorTest, RelayedPlanForwardsThroughTheSourceSite) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  media::ReplicaInfo replica = MakeReplica(1, 1, 20.0);  // stored at site 1
  QualityManager::Admitted admitted;
  admitted.plan.replica_oid = replica.id;
  admitted.plan.source_site = replica.site;
  admitted.plan.delivery_site = SiteId(0);  // relayed
  FinalizePlan(admitted.plan, replica, PlanCostConstants{});
  admitted.reservation = 1;

  bool finished = false;
  Result<std::unique_ptr<RunningDelivery>> delivery = executor.Execute(
      admitted, replica, [&finished] { finished = true; });
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  // The source CPU now carries the forwarding reservation.
  EXPECT_GT(executor.SchedulerFor(SiteId(1)).reserved_fraction(), 0.0);
  EXPECT_GT(executor.SchedulerFor(SiteId(0)).reserved_fraction(), 0.0);
  simulator.RunAll();
  EXPECT_TRUE(finished);
  EXPECT_NEAR((*delivery)->session().delivered_frames(), 479, 2);
}

// Pool admission and the DSRT schedulers must agree on what a relayed
// plan costs each CPU: the delivery site carries the stream's work plus
// the forwarding share, the source site the forwarding share alone —
// both exactly as the plan's vector charges them (× the headroom).
TEST(PlanExecutorTest, RelayedPlanReservesTheVectorsCpuAtBothEnds) {
  sim::Simulator simulator;
  PlanExecutor::Options options;
  PlanExecutor executor(&simulator, options);
  media::ReplicaInfo replica = MakeReplica(1, 1, 20.0);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = SiteId(0);
  FinalizePlan(plan, replica, PlanCostConstants{});
  ASSERT_TRUE(plan.IsRelayed());

  Result<std::unique_ptr<RunningDelivery>> delivery =
      executor.Execute(plan, replica);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  auto reserved = [&](SiteId site) {
    return FromLedgerUnits(ToLedgerUnits(
        plan.resources.Get({site, ResourceKind::kCpu}) *
        options.cpu_reservation_factor));
  };
  EXPECT_EQ(executor.SchedulerFor(SiteId(0)).reserved_fraction(),
            reserved(SiteId(0)));
  EXPECT_EQ(executor.SchedulerFor(SiteId(1)).reserved_fraction(),
            reserved(SiteId(1)));
  // The delivery site's share exceeds the stream's own work by the
  // forwarding share.
  EXPECT_GT(plan.resources.Get({SiteId(0), ResourceKind::kCpu}),
            (*delivery)->session().CpuDemandFraction());
  simulator.RunAll();
}

TEST(PlanExecutorTest, RelayAddsPipelineLatencyNotJitter) {
  sim::Simulator simulator;
  PlanExecutor::Options options;
  options.relay_hop_latency = 50 * kMillisecond;
  PlanExecutor executor(&simulator, options);
  media::ReplicaInfo replica = MakeReplica(1, 1, 15.0);

  QualityManager::Admitted local;
  local.plan.replica_oid = replica.id;
  local.plan.source_site = replica.site;
  local.plan.delivery_site = replica.site;
  FinalizePlan(local.plan, replica, PlanCostConstants{});
  QualityManager::Admitted relayed = local;
  relayed.plan.delivery_site = SiteId(0);
  FinalizePlan(relayed.plan, replica, PlanCostConstants{});

  Result<std::unique_ptr<RunningDelivery>> local_run =
      executor.Execute(local, replica);
  Result<std::unique_ptr<RunningDelivery>> relayed_run =
      executor.Execute(relayed, replica);
  ASSERT_TRUE(local_run.ok());
  ASSERT_TRUE(relayed_run.ok());
  simulator.RunAll();

  const auto& local_times = (*local_run)->session().frame_completion_times();
  const auto& relayed_times =
      (*relayed_run)->session().frame_completion_times();
  ASSERT_EQ(local_times.size(), relayed_times.size());
  // Every relayed frame lands later (hop + forwarding), but the
  // inter-frame cadence is preserved.
  EXPECT_GT(relayed_times.front(), local_times.front() + 40 * kMillisecond);
  RunningStats local_if;
  RunningStats relayed_if;
  for (size_t i = 1; i < local_times.size(); ++i) {
    local_if.Add(SimTimeToMillis(local_times[i] - local_times[i - 1]));
    relayed_if.Add(SimTimeToMillis(relayed_times[i] - relayed_times[i - 1]));
  }
  EXPECT_NEAR(relayed_if.mean(), local_if.mean(), 0.5);
}

TEST(PlanExecutorTest, SeparateSitesHaveSeparateCpus) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  EXPECT_NE(&executor.SchedulerFor(SiteId(0)),
            &executor.SchedulerFor(SiteId(1)));
  EXPECT_EQ(&executor.SchedulerFor(SiteId(0)),
            &executor.SchedulerFor(SiteId(0)));
}

TEST(PlanExecutorTest, DeliveredStreamPlaysBackCleanly) {
  sim::Simulator simulator;
  PlanExecutor executor(&simulator, PlanExecutor::Options{});
  media::ReplicaInfo replica = MakeReplica(1, 0, 30.0);
  Result<std::unique_ptr<RunningDelivery>> delivery =
      executor.Execute(AdmittedFor(replica), replica);
  ASSERT_TRUE(delivery.ok());
  simulator.RunAll();
  net::PlaybackOptions playback;
  playback.frame_rate = replica.qos.frame_rate;
  net::PlaybackReport report = net::SimulateClientPlayback(
      (*delivery)->session().frame_completion_times(), playback);
  EXPECT_EQ(report.underruns, 0);
  EXPECT_DOUBLE_EQ(report.OnTimeFraction(), 1.0);
}

}  // namespace
}  // namespace quasaq::core
