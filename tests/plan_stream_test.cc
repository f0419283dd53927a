#include "core/plan_stream.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/quality_manager.h"
#include "media/library.h"

// The contract of the lazy best-first plan stream: it must yield plans
// in bit-identical order to the eager materialize-and-sort oracle
// (PlanGenerator::Generate + RuntimeCostEvaluator::Rank: same cost key,
// same tie-breaks), so planning through the stream can never change
// which plan a query is served — only how much of the search space gets
// expanded.

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

query::QosRequirement WideQos() {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  return qos;
}

// Two-site search space mirroring the QualityManager tests: one logical
// object, three ladder levels replicated on both sites.
class PlanStreamTest : public ::testing::Test {
 protected:
  PlanStreamTest()
      : sites_({SiteId(0), SiteId(1)}),
        metadata_(sites_, meta::DistributedMetadataEngine::Options()) {
    DeclareBuckets(pool_);
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    int64_t oid = 0;
    for (int site = 0; site < 2; ++site) {
      for (int level = 0; level < 3; ++level) {
        EXPECT_TRUE(
            metadata_.InsertReplica(MakeReplica(oid++, 0, site, level)).ok());
      }
    }
  }

  void DeclareBuckets(res::ResourcePool& pool) {
    for (SiteId site : sites_) {
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kCpu}, 1.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kNetworkBandwidth}, 3200.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kDiskBandwidth}, 20000.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kMemory}, 1 << 20).ok());
    }
  }

  // The eager reference ranking and its per-plan keys.
  std::vector<Plan> EagerRanking(PlanGenerator& generator,
                                 const RuntimeCostEvaluator& evaluator,
                                 const query::QosRequirement& qos,
                                 const res::ResourcePool& pool) {
    Result<std::vector<Plan>> plans =
        generator.Generate(SiteId(0), LogicalOid(0), qos);
    EXPECT_TRUE(plans.ok()) << plans.status().ToString();
    evaluator.Rank(*plans, pool);
    return std::move(*plans);
  }

  std::vector<SiteId> sites_;
  meta::DistributedMetadataEngine metadata_;
  res::ResourcePool pool_;
  LrbCostModel lrb_;
};

TEST_F(PlanStreamTest, YieldsEveryPlanInEagerRankingOrder) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  ASSERT_FALSE(eager.empty());

  PlanStream stream(&generator, evaluator, pool_, SiteId(0), LogicalOid(0),
                    qos);
  ASSERT_TRUE(stream.status().ok());
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    EXPECT_DOUBLE_EQ(ranked->cost,
                     evaluator.EfficiencyCost(eager[i], pool_.Snapshot()));
    ++i;
  }
  EXPECT_EQ(i, eager.size());
  EXPECT_EQ(stream.stats().plans_yielded, eager.size());
  // Draining the stream expands everything — no pruning without an
  // early-stopping consumer.
  EXPECT_EQ(stream.groups_pruned(), 0u);
}

TEST_F(PlanStreamTest, OrderHoldsUnderLoadedPool) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  // Skew the pool so the ranking differs from the cold-pool one: site 0
  // network is nearly full, site 0 disk half full.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2900.0);
  used.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 10000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());

  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  PlanStream stream(&generator, evaluator, pool_, SiteId(0), LogicalOid(0),
                    qos);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());
}

TEST_F(PlanStreamTest, StatefulRandomModelStillMatchesEagerOrder) {
  // The Random model advances its RNG on every Cost() call, so the
  // stream must fall back to expanding in exact eager call order (no
  // sound lower bound exists). Two independently seeded model instances
  // replay the same draw sequence.
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RandomCostModel eager_model(7);
  RandomCostModel stream_model(7);
  RuntimeCostEvaluator eager_eval(&eager_model);
  RuntimeCostEvaluator stream_eval(&stream_model);
  EXPECT_FALSE(stream_eval.SupportsCostLowerBound());

  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, eager_eval, qos, pool_);
  PlanStream stream(&generator, stream_eval, pool_, SiteId(0),
                    LogicalOid(0), qos);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());
}

TEST_F(PlanStreamTest, GainFunctionDisablesTheBoundButNotTheOrder) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  query::QosRequirement qos = WideQos();
  qos.range.min_frame_rate = 10.0;
  RuntimeCostEvaluator evaluator(
      &lrb_, MakeSatisfactionGain(qos.range, UtilityWeights()));
  EXPECT_FALSE(evaluator.SupportsCostLowerBound());

  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  PlanStream stream(&generator, evaluator, pool_, SiteId(0), LogicalOid(0),
                    qos);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());
}

// A stream costs every plan against the pool snapshot it took when it
// was built: usage acquired afterwards leaves the yielded keys as they
// were, and only Reset picks the new usage up.
TEST_F(PlanStreamTest, CostsAgainstTheSnapshotTakenAtBuildAndReset) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  query::QosRequirement qos = WideQos();
  const res::PoolSnapshot idle = pool_.Snapshot();
  PlanStream stream(&generator, evaluator, pool_, SiteId(0), LogicalOid(0),
                    qos);
  ASSERT_TRUE(stream.status().ok());

  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2900.0);
  used.Add({SiteId(1), ResourceKind::kDiskBandwidth}, 10000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());
  const res::PoolSnapshot loaded = pool_.Snapshot();

  size_t yielded = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    EXPECT_EQ(ranked->cost, evaluator.EfficiencyCost(ranked->plan, idle));
    EXPECT_EQ(ranked->demand,
              RuntimeCostEvaluator::NormalizedDemand(ranked->plan, idle));
    ++yielded;
  }
  ASSERT_GT(yielded, 0u);

  stream.Reset(qos, evaluator, pool_);
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  size_t i = 0;
  bool moved = false;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    EXPECT_EQ(ranked->cost, evaluator.EfficiencyCost(ranked->plan, loaded));
    moved = moved || ranked->cost !=
                         evaluator.EfficiencyCost(ranked->plan, idle);
    ++i;
  }
  EXPECT_EQ(i, eager.size());
  EXPECT_TRUE(moved);
}

TEST_F(PlanStreamTest, UnknownContentFailsConstruction) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  PlanStream stream(&generator, evaluator, pool_, SiteId(0),
                    LogicalOid(99), WideQos());
  EXPECT_EQ(stream.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(stream.Next().has_value());
}

// QualityManager, which plans only through the stream, against the
// eager oracle: Generate + Rank, then the first plan admission control
// takes, walked over a twin pool that receives the same reservations.
// Every scenario must produce the same admitted plan (or the same
// rejection), and the pools must drift in lockstep.
class StreamedVsEagerTest : public PlanStreamTest {
 protected:
  StreamedVsEagerTest()
      : oracle_api_(&oracle_pool_, oracle_metrics_),
        streamed_api_(&streamed_pool_, streamed_obs_.metrics()) {
    DeclareBuckets(oracle_pool_);
    DeclareBuckets(streamed_pool_);
    UseOptions(QualityManager::Options());
  }

  void UseOptions(const QualityManager::Options& options) {
    options_ = options;
    oracle_generator_ =
        std::make_unique<PlanGenerator>(&metadata_, sites_, options.generator);
    streamed_ = std::make_unique<QualityManager>(
        &metadata_, &streamed_api_, &lrb_, sites_, options, streamed_obs_);
  }

  // The oracle's full ranking of the space under `qos`, costed against
  // the oracle pool with the gain the optimization goal assigns.
  std::vector<Plan> OracleRanking(const query::QosRequirement& qos) {
    Result<std::vector<Plan>> plans =
        oracle_generator_->Generate(SiteId(0), LogicalOid(0), qos);
    if (!plans.ok()) return {};
    oracle_generated_ += plans->size();
    RuntimeCostEvaluator evaluator(
        &lrb_,
        options_.goal == QualityManager::OptimizationGoal::kUserSatisfaction
            ? MakeSatisfactionGain(qos.range, options_.utility_weights)
            : nullptr);
    evaluator.Rank(*plans, oracle_pool_);
    return std::move(*plans);
  }

  // Walks the oracle ranking under `qos`, then each relaxed window the
  // profile allows, and returns the first plan `adopt` accepts among the
  // first max_admission_attempts plans of each round (all when 0).
  template <typename Adopt>
  Result<QualityManager::Admitted> OracleWalk(
      const query::QosRequirement& qos, const UserProfile* profile,
      Adopt adopt) {
    query::QosRequirement bounds = qos;
    bool any_plans = false;
    for (int round = 0; round <= options_.max_renegotiation_rounds;
         ++round) {
      if (round > 0 && (!options_.enable_renegotiation || profile == nullptr ||
                        !profile->RelaxForRenegotiation(bounds.range))) {
        break;
      }
      ++oracle_rounds_;
      std::vector<Plan> ranking = OracleRanking(bounds);
      any_plans = any_plans || !ranking.empty();
      if (options_.max_admission_attempts > 0 &&
          ranking.size() >
              static_cast<size_t>(options_.max_admission_attempts)) {
        ranking.resize(static_cast<size_t>(options_.max_admission_attempts));
      }
      for (Plan& plan : ranking) {
        Result<res::ReservationId> adopted = adopt(plan);
        if (!adopted.ok()) continue;
        QualityManager::Admitted admitted;
        admitted.plan = std::move(plan);
        admitted.reservation = *adopted;
        admitted.renegotiated = round > 0;
        return admitted;
      }
    }
    if (any_plans) return Status::ResourceExhausted("no admittable plan");
    return Status::NotFound("no plan satisfies the QoS bounds");
  }

  Result<QualityManager::Admitted> OracleAdmit(
      const query::QosRequirement& qos, const UserProfile* profile) {
    return OracleWalk(qos, profile,
                      [this](const Plan& plan) -> Result<res::ReservationId> {
                        if (!oracle_api_.Admissible(plan.resources)) {
                          return Status::ResourceExhausted("inadmissible");
                        }
                        return oracle_api_.Reserve(plan.resources);
                      });
  }

  // The oracle's in-place swap of reservation `id` to `plan`.
  auto OracleRenegotiate(res::ReservationId id) {
    return [this, id](const Plan& plan) -> Result<res::ReservationId> {
      Status status = oracle_api_.Renegotiate(id, plan.resources);
      if (!status.ok()) return status;
      return id;
    };
  }

  void ExpectSame(const Result<QualityManager::Admitted>& oracle,
                  const Result<QualityManager::Admitted>& streamed) {
    ASSERT_EQ(oracle.ok(), streamed.ok())
        << "oracle: " << oracle.status().ToString()
        << " streamed: " << streamed.status().ToString();
    if (oracle.ok()) {
      EXPECT_EQ(oracle->plan.ToString(), streamed->plan.ToString());
      EXPECT_DOUBLE_EQ(oracle->plan.wire_rate_kbps,
                       streamed->plan.wire_rate_kbps);
      EXPECT_EQ(oracle->renegotiated, streamed->renegotiated);
      EXPECT_DOUBLE_EQ(oracle_pool_.MaxUtilization(),
                       streamed_pool_.MaxUtilization());
    } else {
      EXPECT_EQ(oracle.status().code(), streamed.status().code());
    }
  }

  // Admits on both sides; returns the pair of reservations (invalid
  // when rejected).
  std::pair<res::ReservationId, res::ReservationId> ExpectSameOutcome(
      const query::QosRequirement& qos,
      const UserProfile* profile = nullptr) {
    Result<QualityManager::Admitted> oracle = OracleAdmit(qos, profile);
    Result<QualityManager::Admitted> streamed =
        streamed_->AdmitQuery(SiteId(0), LogicalOid(0), qos, profile);
    ExpectSame(oracle, streamed);
    if (!oracle.ok() || !streamed.ok()) {
      return {res::kInvalidReservationId, res::kInvalidReservationId};
    }
    return {oracle->reservation, streamed->reservation};
  }

  // The scenarios every goal must agree on: wide-open QoS repeated until
  // the pools carry real load, a tight quality floor, security (which
  // brings encrypted activity sets into the space), and an unsatisfiable
  // window.
  void RunScenarios() {
    for (int i = 0; i < 4; ++i) ExpectSameOutcome(WideQos());
    query::QosRequirement tight;
    tight.range.min_frame_rate = 20.0;
    tight.range.min_resolution = media::kResolutionVcd;
    ExpectSameOutcome(tight);
    query::QosRequirement secure = WideQos();
    secure.min_security = media::SecurityLevel::kStandard;
    ExpectSameOutcome(secure);
    query::QosRequirement impossible;
    impossible.range.min_frame_rate = 60.0;
    ExpectSameOutcome(impossible);
  }

  // Fills both pools' network links to 3000 of 3200 KB/s.
  void LoadNetwork() {
    ResourceVector used;
    for (SiteId site : sites_) {
      used.Add({site, ResourceKind::kNetworkBandwidth}, 3000.0);
    }
    ASSERT_TRUE(oracle_pool_.Acquire(used).ok());
    ASSERT_TRUE(streamed_pool_.Acquire(used).ok());
  }

  QualityManager::Options options_;
  obs::MetricsRegistry oracle_metrics_;
  obs::Observability streamed_obs_;
  res::ResourcePool oracle_pool_;
  res::ResourcePool streamed_pool_;
  res::CompositeQosApi oracle_api_;
  res::CompositeQosApi streamed_api_;
  std::unique_ptr<PlanGenerator> oracle_generator_;
  std::unique_ptr<QualityManager> streamed_;
  size_t oracle_generated_ = 0;
  int oracle_rounds_ = 0;  // rankings OracleWalk walked, relaxed or not
};

TEST_F(StreamedVsEagerTest, AdmitsIdenticalPlansAcrossScenarios) {
  RunScenarios();
}

TEST_F(StreamedVsEagerTest, UserSatisfactionGoalMatchesOracle) {
  QualityManager::Options options;
  options.goal = QualityManager::OptimizationGoal::kUserSatisfaction;
  UseOptions(options);
  RunScenarios();
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;
  LoadNetwork();
  ExpectSameOutcome(qos, &profile);
}

TEST_F(StreamedVsEagerTest, RenegotiationMatchesEager) {
  // Relaxation: the requested window is unservable on the loaded links,
  // so both sides must relax along the profile's least-valued axis and
  // land on the same plan.
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;
  LoadNetwork();
  ExpectSameOutcome(qos, &profile);
  EXPECT_EQ(streamed_->stats().renegotiated, 1u);
}

TEST_F(StreamedVsEagerTest, RenegotiateDeliveryMatchesOracle) {
  auto [oracle_id, streamed_id] = ExpectSameOutcome(WideQos());
  ASSERT_NE(streamed_id, res::kInvalidReservationId);
  // Load the pools, then move the running delivery to a stricter window:
  // both sides swap the reservation in place to the first plan of the
  // new ranking that fits.
  ExpectSameOutcome(WideQos());
  query::QosRequirement stricter;
  stricter.range.min_frame_rate = 20.0;
  stricter.range.min_resolution = media::kResolutionVcd;
  Result<QualityManager::Admitted> oracle =
      OracleWalk(stricter, nullptr, OracleRenegotiate(oracle_id));
  if (oracle.ok()) oracle->renegotiated = true;
  Result<QualityManager::Admitted> streamed = streamed_->RenegotiateDelivery(
      streamed_id, SiteId(0), LogicalOid(0), stricter);
  ExpectSame(oracle, streamed);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->reservation, streamed_id);
}

// A paused session holds no reservation: its renegotiation adopts the
// first plan admission control's fit test accepts and holds nothing —
// neither the pool's usage nor the reservation counters move.
TEST_F(StreamedVsEagerTest, PausedRenegotiationMatchesOracleAndHoldsNothing) {
  ExpectSameOutcome(WideQos());
  LoadNetwork();
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;

  const auto usage_before = streamed_pool_.Snapshot().buckets();
  const res::CompositeQosApi::Stats api_before = streamed_api_.stats();
  Result<QualityManager::Admitted> oracle = OracleWalk(
      qos, &profile, [this](const Plan& plan) -> Result<res::ReservationId> {
        if (!oracle_api_.Admissible(plan.resources)) {
          return Status::ResourceExhausted("inadmissible");
        }
        return res::kInvalidReservationId;
      });
  if (oracle.ok()) oracle->renegotiated = true;
  Result<QualityManager::Admitted> streamed =
      streamed_->PlanPausedRenegotiation(SiteId(0), LogicalOid(0), qos,
                                         &profile);
  ExpectSame(oracle, streamed);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->reservation, res::kInvalidReservationId);
  // The requested window is unservable on the loaded links: the walk
  // adopted a relaxed plan.
  EXPECT_GT(oracle_rounds_, 1);

  EXPECT_EQ(streamed_pool_.Snapshot().buckets(), usage_before);
  const res::CompositeQosApi::Stats api_after = streamed_api_.stats();
  EXPECT_EQ(api_after.admitted, api_before.admitted);
  EXPECT_EQ(api_after.rejected, api_before.rejected);
  EXPECT_EQ(api_after.released, api_before.released);
  EXPECT_EQ(api_after.renegotiations, api_before.renegotiations);
  EXPECT_EQ(api_after.renegotiation_failures,
            api_before.renegotiation_failures);
}

// max_admission_attempts caps every walk, in-place renegotiation too:
// only the top plan of each round's ranking may be tried.
TEST_F(StreamedVsEagerTest, AttemptsCapAppliesToRenegotiateDelivery) {
  QualityManager::Options options;
  options.goal = QualityManager::OptimizationGoal::kUserSatisfaction;
  options.max_admission_attempts = 1;
  UseOptions(options);
  auto [oracle_id, streamed_id] = ExpectSameOutcome(WideQos());
  ASSERT_NE(streamed_id, res::kInvalidReservationId);
  LoadNetwork();
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;

  Result<QualityManager::Admitted> oracle =
      OracleWalk(qos, &profile, OracleRenegotiate(oracle_id));
  if (oracle.ok()) oracle->renegotiated = true;
  Result<QualityManager::Admitted> streamed = streamed_->RenegotiateDelivery(
      streamed_id, SiteId(0), LogicalOid(0), qos, &profile);
  ExpectSame(oracle, streamed);
  // Uncapped, the third window's ninth plan fits; capped, each of the
  // three windows tries only its top plan and the swap is refused.
  EXPECT_EQ(streamed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(oracle_api_.stats().renegotiation_failures, 3u);
  EXPECT_EQ(streamed_api_.stats().renegotiation_failures, 3u);
}

// A pool that refuses every plan: with a profile that relaxes twice,
// admission and in-place renegotiation both walk all three windows
// before giving up with kResourceExhausted, exactly like the oracle.
TEST_F(StreamedVsEagerTest, RefusalRunsEveryRelaxedRound) {
  // A held reservation that frees no CPU when swapped out, then every
  // CPU filled: no plan fits, whatever the window.
  ResourceVector held;
  held.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 1.0);
  Result<res::ReservationId> oracle_id = oracle_api_.Reserve(held);
  Result<res::ReservationId> streamed_id = streamed_api_.Reserve(held);
  ASSERT_TRUE(oracle_id.ok());
  ASSERT_TRUE(streamed_id.ok());
  ResourceVector cpu;
  for (SiteId site : sites_) cpu.Add({site, ResourceKind::kCpu}, 1.0);
  ASSERT_TRUE(oracle_pool_.Acquire(cpu).ok());
  ASSERT_TRUE(streamed_pool_.Acquire(cpu).ok());

  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;

  Result<QualityManager::Admitted> oracle = OracleAdmit(qos, &profile);
  Result<QualityManager::Admitted> streamed =
      streamed_->AdmitQuery(SiteId(0), LogicalOid(0), qos, &profile);
  ExpectSame(oracle, streamed);
  EXPECT_EQ(streamed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(oracle_rounds_, 3);
  EXPECT_EQ(streamed_->stats().rejected_no_resources, 1u);

  oracle = OracleWalk(qos, &profile, OracleRenegotiate(*oracle_id));
  streamed = streamed_->RenegotiateDelivery(*streamed_id, SiteId(0),
                                            LogicalOid(0), qos, &profile);
  ExpectSame(oracle, streamed);
  EXPECT_EQ(streamed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(oracle_rounds_, 6);
  EXPECT_EQ(streamed_api_.Find(*streamed_id)->ToString(), held.ToString());

  obs::MetricsRegistry& metrics = streamed_obs_.metrics();
  EXPECT_EQ(metrics.GetCounter("quasaq_plan_relaxations_total", "")->value(),
            4.0);
  EXPECT_EQ(
      metrics.GetCounter("quasaq_plan_renegotiations_total", "")->value(),
      1.0);
}

TEST_F(StreamedVsEagerTest, ExplainListingsAreIdentical) {
  ExpectSameOutcome(WideQos());  // explain against a loaded pool
  for (size_t limit : {size_t{1}, size_t{3}, size_t{8}, size_t{10000}}) {
    std::vector<QualityManager::RankedPlan> oracle;
    for (Plan& plan : OracleRanking(WideQos())) {
      if (oracle.size() >= limit) break;
      QualityManager::RankedPlan entry;
      entry.cost = lrb_.Cost(plan.resources, oracle_pool_.Snapshot());
      entry.admissible = oracle_api_.Admissible(plan.resources);
      entry.plan = std::move(plan);
      oracle.push_back(std::move(entry));
    }
    Result<std::vector<QualityManager::RankedPlan>> streamed =
        streamed_->ExplainPlans(SiteId(0), LogicalOid(0), WideQos(), limit);
    ASSERT_TRUE(streamed.ok());
    EXPECT_EQ(streamed->size(), oracle.size()) << "limit " << limit;
    EXPECT_EQ(QualityManager::FormatPlanListing(LogicalOid(0), oracle),
              QualityManager::FormatPlanListing(LogicalOid(0), *streamed))
        << "limit " << limit;
    // Under LRB with the throughput goal the listed key is the plan's
    // LRB cost, bit for bit.
    for (size_t i = 0; i < oracle.size() && i < streamed->size(); ++i) {
      EXPECT_EQ(oracle[i].cost, (*streamed)[i].cost) << "rank " << i + 1;
    }
  }
}

TEST_F(StreamedVsEagerTest, StreamedMaterializesStrictlyFewerPlans) {
  ExpectSameOutcome(WideQos());
  // The oracle pays for the whole space on every query; the stream
  // stops at the first admitted plan.
  EXPECT_GT(oracle_generated_, 0u);
  EXPECT_LT(streamed_->stats().plans_generated, oracle_generated_);
  EXPECT_GT(streamed_->stats().groups_pruned, 0u);
}

// Satellite regression: ExplainPlans used to enumerate and rank the full
// space before applying `limit`. With one plan per (replica, site) group
// and a disk-dominated pool the group bound is exact, so the stream must
// generate exactly `limit` plans — not the whole space.
TEST(ExplainLimitTest, GenerationStopsAtTheLimit) {
  std::vector<SiteId> sites = {SiteId(0)};
  meta::DistributedMetadataEngine metadata(
      sites, meta::DistributedMetadataEngine::Options());
  ASSERT_TRUE(metadata.InsertContent(MakeContent(0)).ok());
  // Four ladder levels at one site: four groups of exactly one plan
  // each once dropping/transcoding/relay are off and no security is
  // requested.
  for (int level = 0; level < 4; ++level) {
    ASSERT_TRUE(
        metadata.InsertReplica(MakeReplica(level, 0, 0, level)).ok());
  }
  res::ResourcePool pool;
  // Disk is the scarce bucket; everything else is effectively infinite,
  // so the LRB cost of a plan equals its group's retrieval bound.
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kCpu}, 1e9).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kNetworkBandwidth}, 1e9).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kDiskBandwidth}, 2000.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kMemory}, 1e12).ok());
  obs::Observability observability;
  res::CompositeQosApi api(&pool, observability.metrics());
  LrbCostModel lrb;
  QualityManager::Options options;
  options.generator.enable_frame_dropping = false;
  options.generator.enable_transcoding = false;
  options.generator.enable_relay = false;
  QualityManager manager(&metadata, &api, &lrb, sites, options,
                         observability);

  const size_t limit = 2;
  Result<std::vector<QualityManager::RankedPlan>> plans =
      manager.ExplainPlans(SiteId(0), LogicalOid(0), WideQos(), limit);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  EXPECT_EQ(plans->size(), limit);
  EXPECT_LE(manager.stats().plans_generated, limit);
  EXPECT_EQ(manager.stats().groups_pruned, 4u - limit);
}

}  // namespace
}  // namespace quasaq::core
