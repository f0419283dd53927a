#include "core/quality_manager.h"

#include <cassert>
#include <cstdio>
#include <optional>

namespace quasaq::core {

QualityManager::QualityManager(meta::DistributedMetadataEngine* metadata,
                               res::CompositeQosApi* qos_api,
                               CostModel* cost_model,
                               std::vector<SiteId> sites,
                               const Options& options,
                               obs::Observability& observability)
    : qos_api_(qos_api),
      generator_(metadata, std::move(sites), options.generator),
      cost_model_(cost_model),
      options_(options),
      metrics_(ResolveMetrics(observability.metrics())),
      tracer_(observability.tracer()) {
  assert(qos_api_ != nullptr);
  assert(cost_model_ != nullptr);
}

QualityManager::Metrics QualityManager::ResolveMetrics(
    obs::MetricsRegistry& reg) {
  return Metrics{
      reg.GetCounter("quasaq_plan_queries_total", "Delivery queries planned"),
      reg.GetCounter("quasaq_plan_admitted_total",
                     "Queries that passed admission control"),
      reg.GetCounter("quasaq_plan_rejected_no_plan_total",
                     "Queries whose QoS no stored replica satisfies"),
      reg.GetCounter("quasaq_plan_rejected_no_resources_total",
                     "Queries whose every plan failed admission"),
      reg.GetCounter("quasaq_plan_relaxations_total",
                     "Second-chance QoS relaxation rounds attempted"),
      reg.GetCounter("quasaq_plan_renegotiations_total",
                     "Mid-playback renegotiations planned (counted once "
                     "per renegotiation, however many relaxation rounds "
                     "it retried)"),
      reg.GetCounter("quasaq_plan_generated_total",
                     "Plans materialized and costed"),
      reg.GetCounter(
          "quasaq_plan_candidates_total",
          "(target, drop, encryption) candidates of expanded groups, before "
          "static pruning"),
      reg.GetCounter("quasaq_plan_groups_pruned_total",
                     "Search branches the LRB lower bound cut off"),
      reg.GetHistogram(
          "quasaq_plan_generated_per_query_count",
          "Plans materialized per query (prefix the admission walk expanded)",
          obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                                /*bucket_count=*/12}),
      reg.GetHistogram(
          "quasaq_plan_cutoff_margin_ratio",
          "Frontier lower bound over admitted cost when enumeration stopped",
          obs::HistogramOptions{/*first_bound=*/0.25, /*growth=*/1.5,
                                /*bucket_count=*/12}),
  };
}

QualityManager::Stats QualityManager::stats() const {
  Stats snapshot;
  snapshot.queries = metrics_.queries->count();
  snapshot.admitted = metrics_.admitted->count();
  snapshot.rejected_no_plan = metrics_.rejected_no_plan->count();
  snapshot.rejected_no_resources = metrics_.rejected_no_resources->count();
  snapshot.renegotiated = renegotiated_.load(std::memory_order_relaxed);
  snapshot.plans_generated = metrics_.generated->count();
  snapshot.groups_pruned = metrics_.groups_pruned->count();
  return snapshot;
}

void QualityManager::AccountSearch(const PlanStream& stream) {
  metrics_.generated->Increment(
      static_cast<double>(stream.stats().plans_generated));
  metrics_.candidates->Increment(
      static_cast<double>(stream.stats().candidates));
  metrics_.groups_pruned->Increment(
      static_cast<double>(stream.groups_pruned()));
}

void QualityManager::TraceBegin(const AdmissionContext& context,
                                const char* name, obs::Tracer::Args args) {
  if (context.trace_track == 0) return;
  tracer_.Begin(context.trace_track, name, context.now, std::move(args));
}

void QualityManager::TraceEnd(const AdmissionContext& context,
                              obs::Tracer::Args args) {
  if (context.trace_track == 0) return;
  tracer_.End(context.trace_track, context.now, std::move(args));
}

void QualityManager::TraceInstant(const AdmissionContext& context,
                                  const char* name) {
  if (context.trace_track == 0) return;
  tracer_.Instant(context.trace_track, name, context.now);
}

void QualityManager::PopulateDefaultTranscodeTargets(
    PlanGenerator::Options& options) {
  if (!options.transcode_targets.empty()) return;
  for (const media::AppQos& level :
       media::QualityLadder::Standard().levels) {
    options.transcode_targets.push_back(level);
    media::AppQos variant = level;
    if (level.color_depth_bits > 12) {
      variant.color_depth_bits = 12;
      options.transcode_targets.push_back(variant);
    }
    if (level.audio > media::AudioQuality::kFm) {
      variant = level;
      variant.audio = media::AudioQuality::kFm;
      options.transcode_targets.push_back(variant);
      if (level.color_depth_bits > 12) {
        variant.color_depth_bits = 12;
        options.transcode_targets.push_back(variant);
      }
    }
  }
}

RuntimeCostEvaluator QualityManager::EvaluatorFor(
    const query::QosRequirement& qos) const {
  if (options_.goal != OptimizationGoal::kUserSatisfaction) {
    return RuntimeCostEvaluator(cost_model_);
  }
  return RuntimeCostEvaluator(
      cost_model_, MakeSatisfactionGain(qos.range, options_.utility_weights));
}

template <typename Adopt>
QualityManager::WalkResult QualityManager::RelaxationWalk(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, const AdmissionContext& context, bool screen,
    const Adopt& adopt) {
  WalkResult walk;
  // One PlanStream serves every round: relaxation rounds Reset() it over
  // the already-enumerated groups instead of re-fetching metadata and
  // re-seeding per round. Each round costs its plans against one pool
  // snapshot; a failed adoption leaves the pool exactly as it was, so
  // nothing moves under the round. Concurrent admissions may move it,
  // which is why `adopt` (Reserve) stays the authoritative fit test.
  PlanStream stream(&generator_, EvaluatorFor(qos), qos_api_->pool(),
                    query_site, content, qos);
  if (!stream.status().ok()) {
    walk.admitted = stream.status();
    return walk;
  }
  query::QosRequirement relaxed = qos;
  for (int round = 0;; ++round) {
    if (round > 0) {
      // Second chance: relax the QoS bounds along the axis this user
      // values least and retry (paper §3.2's renegotiation).
      if (!options_.enable_renegotiation || profile == nullptr ||
          round > options_.max_renegotiation_rounds ||
          !profile->RelaxForRenegotiation(relaxed.range)) {
        break;
      }
      metrics_.relaxations->Increment();
      TraceInstant(context, "plan.relax");
      stream.Reset(relaxed, EvaluatorFor(relaxed), qos_api_->pool());
      walk.rounds = round;
    }

    // Enumeration and adoption interleave, so one plan.enumerate span
    // covers the round; each adoption attempt gets its own nested
    // plan.reserve span.
    const size_t generated_before = stream.stats().plans_generated;
    TraceBegin(context, "plan.enumerate");
    std::optional<double> adopted_cost;
    int attempts = 0;
    while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
      walk.any_plans = true;
      if (options_.max_admission_attempts > 0 &&
          attempts >= options_.max_admission_attempts) {
        break;
      }
      ++attempts;
      if (screen && !qos_api_->Admissible(ranked->plan.resources)) continue;
      TraceBegin(context, "plan.reserve");
      Result<res::ReservationId> reservation = adopt(ranked->plan.resources);
      if (!reservation.ok()) {
        TraceEnd(context, {{"outcome", "rejected"}});
        continue;
      }
      Admitted admitted;
      admitted.plan = std::move(ranked->plan);
      admitted.reservation = *reservation;
      adopted_cost = ranked->cost;
      TraceEnd(context,
               {{"attempts", std::to_string(attempts)},
                {"site", std::to_string(admitted.plan.delivery_site.value())}});
      walk.admitted = std::move(admitted);
      break;
    }
    // How decisively the lower bound cut the rest of the space off: the
    // frontier's best remaining bound relative to the adopted cost.
    std::optional<double> bound = stream.FrontierBound();
    if (adopted_cost.has_value() && bound.has_value() &&
        *adopted_cost > 0.0) {
      metrics_.cutoff_margin->Observe(*bound / *adopted_cost);
    }
    TraceEnd(context,
             {{"plans", std::to_string(stream.stats().plans_generated -
                                       generated_before)},
              {"pruned", std::to_string(stream.groups_pruned())}});
    if (walk.admitted.ok()) break;
  }
  // The stream's stats are cumulative across rounds.
  walk.plans = stream.stats().plans_generated;
  AccountSearch(stream);
  if (!walk.any_plans) {
    walk.admitted = Status::NotFound("no plan satisfies the QoS bounds");
  }
  return walk;
}

Result<QualityManager::Admitted> QualityManager::AdmitQuery(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, AdmissionContext context) {
  metrics_.queries->Increment();
  TraceBegin(context, "delivery.admit");
  WalkResult walk = RelaxationWalk(
      query_site, content, qos, profile, context, /*screen=*/true,
      [this](const ResourceVector& resources) {
        return qos_api_->Reserve(resources);
      });
  metrics_.per_query->Observe(static_cast<double>(walk.plans));
  if (walk.admitted.ok()) {
    metrics_.admitted->Increment();
    if (walk.rounds == 0) {
      TraceEnd(context, {{"outcome", "admitted"}});
    } else {
      renegotiated_.fetch_add(1, std::memory_order_relaxed);
      walk.admitted->renegotiated = true;
      TraceEnd(context, {{"outcome", "admitted_relaxed"},
                         {"rounds", std::to_string(walk.rounds)}});
    }
    return std::move(walk.admitted);
  }
  if (walk.any_plans) {
    metrics_.rejected_no_resources->Increment();
    TraceEnd(context, {{"outcome", "rejected_no_resources"}});
    return Status::ResourceExhausted("no admittable plan after " +
                                     std::string(profile != nullptr
                                                     ? "renegotiation"
                                                     : "admission control"));
  }
  metrics_.rejected_no_plan->Increment();
  TraceEnd(context, {{"outcome", "rejected_no_plan"}});
  return Status::NotFound("no plan satisfies the QoS bounds");
}

Status QualityManager::CompleteDelivery(const Admitted& admitted) {
  return qos_api_->Release(admitted.reservation);
}

Result<std::vector<QualityManager::RankedPlan>> QualityManager::ExplainPlans(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    size_t limit) {
  PlanStream stream(&generator_, EvaluatorFor(qos), qos_api_->pool(),
                    query_site, content, qos);
  if (!stream.status().ok()) return stream.status();
  std::vector<RankedPlan> ranked;
  while (ranked.size() < limit) {
    std::optional<PlanStream::Ranked> next = stream.Next();
    if (!next.has_value()) break;
    RankedPlan entry;
    entry.cost = next->cost;
    entry.admissible = qos_api_->Admissible(next->plan.resources);
    entry.plan = std::move(next->plan);
    ranked.push_back(std::move(entry));
  }
  AccountSearch(stream);
  return ranked;
}

std::string QualityManager::FormatPlanListing(
    LogicalOid content, const std::vector<RankedPlan>& plans) {
  std::string out = "EXPLAIN: " + std::to_string(plans.size()) +
                    " plans for logical OID " +
                    std::to_string(content.value()) + "\n";
  char buf[160];
  int rank = 1;
  for (const RankedPlan& entry : plans) {
    std::snprintf(buf, sizeof(buf),
                  "  %2d. cost=%.4f %-9s %6.1f KB/s  startup=%.1fs  %s\n",
                  rank++, entry.cost,
                  entry.admissible ? "admit" : "reject",
                  entry.plan.wire_rate_kbps, entry.plan.startup_seconds,
                  entry.plan.ToString().c_str());
    out += buf;
  }
  return out;
}

Result<QualityManager::Admitted> QualityManager::FinishRenegotiation(
    WalkResult walk) {
  // One renegotiation — however many relaxation rounds its walk retried
  // — counts once. Counting per round double-counted retried
  // renegotiations in the exposition.
  metrics_.renegotiations->Increment();
  if (walk.admitted.ok()) walk.admitted->renegotiated = true;
  return std::move(walk.admitted);
}

Result<QualityManager::Admitted> QualityManager::RenegotiateDelivery(
    res::ReservationId id, SiteId query_site, LogicalOid content,
    const query::QosRequirement& qos, const UserProfile* profile,
    AdmissionContext context) {
  if (qos_api_->Find(id) == nullptr) {
    return Status::NotFound("unknown reservation");
  }
  // Swap in place: the running reservation's own demand is released
  // inside Renegotiate before the new plan is tried, so no Admissible
  // screen — it would reject plans that fit only in the freed capacity.
  return FinishRenegotiation(RelaxationWalk(
      query_site, content, qos, profile, context, /*screen=*/false,
      [this, id](const ResourceVector& resources)
          -> Result<res::ReservationId> {
        Status status = qos_api_->Renegotiate(id, resources);
        if (!status.ok()) return status;
        return id;
      }));
}

Result<QualityManager::Admitted> QualityManager::PlanPausedRenegotiation(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, AdmissionContext context) {
  // The paused session must be able to carry the plan *now*, but nothing
  // may stay held — Resume re-admits the adopted vector when playback
  // restarts. Admissible is the exact fit test Reserve applies, without
  // touching the ledger or the reservation counters.
  return FinishRenegotiation(RelaxationWalk(
      query_site, content, qos, profile, context, /*screen=*/false,
      [this](const ResourceVector& resources)
          -> Result<res::ReservationId> {
        if (!qos_api_->Admissible(resources)) {
          return Status::ResourceExhausted("plan does not fit");
        }
        return res::kInvalidReservationId;
      }));
}

}  // namespace quasaq::core
