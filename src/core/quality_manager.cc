#include "core/quality_manager.h"

#include <cassert>
#include <cstdio>
#include <optional>

namespace quasaq::core {

QualityManager::QualityManager(meta::DistributedMetadataEngine* metadata,
                               res::CompositeQosApi* qos_api,
                               CostModel* cost_model,
                               std::vector<SiteId> sites,
                               const Options& options)
    : qos_api_(qos_api),
      generator_(metadata, std::move(sites), options.generator),
      cost_model_(cost_model),
      options_(options) {
  assert(qos_api_ != nullptr);
  assert(cost_model_ != nullptr);
}

QualityManager::Stats QualityManager::stats() const {
  Stats snapshot;
  snapshot.queries = stats_.queries.load(std::memory_order_relaxed);
  snapshot.admitted = stats_.admitted.load(std::memory_order_relaxed);
  snapshot.rejected_no_plan =
      stats_.rejected_no_plan.load(std::memory_order_relaxed);
  snapshot.rejected_no_resources =
      stats_.rejected_no_resources.load(std::memory_order_relaxed);
  snapshot.renegotiated = stats_.renegotiated.load(std::memory_order_relaxed);
  snapshot.plans_generated =
      stats_.plans_generated.load(std::memory_order_relaxed);
  snapshot.groups_pruned =
      stats_.groups_pruned.load(std::memory_order_relaxed);
  return snapshot;
}

void QualityManager::set_observability(obs::Observability* observability) {
  if (observability == nullptr) {
    metrics_ = Metrics{};
    tracer_ = nullptr;
    return;
  }
  obs::MetricsRegistry& reg = observability->metrics();
  metrics_.queries = reg.GetCounter("quasaq_plan_queries_total",
                                    "Delivery queries planned");
  metrics_.admitted = reg.GetCounter("quasaq_plan_admitted_total",
                                     "Queries that passed admission control");
  metrics_.rejected_no_plan =
      reg.GetCounter("quasaq_plan_rejected_no_plan_total",
                     "Queries whose QoS no stored replica satisfies");
  metrics_.rejected_no_resources =
      reg.GetCounter("quasaq_plan_rejected_no_resources_total",
                     "Queries whose every plan failed admission");
  metrics_.relaxations =
      reg.GetCounter("quasaq_plan_relaxations_total",
                     "Second-chance QoS relaxation rounds attempted");
  metrics_.renegotiations =
      reg.GetCounter("quasaq_plan_renegotiations_total",
                     "Mid-playback renegotiations planned (counted once "
                     "per renegotiation, however many relaxation rounds "
                     "it retried)");
  metrics_.generated = reg.GetCounter("quasaq_plan_generated_total",
                                      "Plans materialized and costed");
  metrics_.candidates = reg.GetCounter(
      "quasaq_plan_candidates_total",
      "(target, drop, encryption) candidates of expanded groups, before "
      "static pruning");
  metrics_.groups_pruned =
      reg.GetCounter("quasaq_plan_groups_pruned_total",
                     "Search branches the LRB lower bound cut off");
  metrics_.per_query = reg.GetHistogram(
      "quasaq_plan_generated_per_query_count",
      "Plans materialized per query (prefix the admission walk expanded)",
      obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                            /*bucket_count=*/12});
  metrics_.cutoff_margin = reg.GetHistogram(
      "quasaq_plan_cutoff_margin_ratio",
      "Frontier lower bound over admitted cost when enumeration stopped",
      obs::HistogramOptions{/*first_bound=*/0.25, /*growth=*/1.5,
                            /*bucket_count=*/12});
  tracer_ = &observability->tracer();
}

void QualityManager::TraceBegin(const AdmissionContext& context,
                                const char* name, obs::Tracer::Args args) {
  if (tracer_ == nullptr || context.trace_track == 0) return;
  tracer_->Begin(context.trace_track, name, context.now, std::move(args));
}

void QualityManager::TraceEnd(const AdmissionContext& context,
                              obs::Tracer::Args args) {
  if (tracer_ == nullptr || context.trace_track == 0) return;
  tracer_->End(context.trace_track, context.now, std::move(args));
}

void QualityManager::TraceInstant(const AdmissionContext& context,
                                  const char* name) {
  if (tracer_ == nullptr || context.trace_track == 0) return;
  tracer_->Instant(context.trace_track, name, context.now);
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
    const query::QosRequirement& qos, AdmissionContext& context) const {
  context.gain =
      options_.goal == OptimizationGoal::kUserSatisfaction
          ? MakeSatisfactionGain(qos.range, options_.utility_weights)
          : nullptr;
  RuntimeCostEvaluator evaluator(cost_model_);
  evaluator.set_gain_function(context.gain);
  return evaluator;
}

template <typename Adopt>
QualityManager::WalkResult QualityManager::RelaxationWalk(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, AdmissionContext& context, bool screen,
    const Adopt& adopt) {
  WalkResult walk;
  // One PlanStream serves every round: relaxation rounds Reset() it over
  // the already-enumerated groups instead of re-fetching metadata and
  // re-seeding per round.
  PlanStream stream(&generator_, EvaluatorFor(qos, context),
                    &qos_api_->pool(), query_site, content, qos);
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
      if (metrics_.relaxations != nullptr) metrics_.relaxations->Increment();
      TraceInstant(context, "plan.relax");
      stream.Reset(relaxed, EvaluatorFor(relaxed, context));
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
    const size_t generated =
        stream.stats().plans_generated - generated_before;
    walk.plans += generated;
    stats_.plans_generated += generated;
    if (metrics_.generated != nullptr) {
      metrics_.generated->Increment(static_cast<double>(generated));
      // How decisively the lower bound cut the rest of the space off: the
      // frontier's best remaining bound relative to the adopted cost.
      std::optional<double> bound = stream.FrontierBound();
      if (adopted_cost.has_value() && bound.has_value() &&
          *adopted_cost > 0.0) {
        metrics_.cutoff_margin->Observe(*bound / *adopted_cost);
      }
    }
    TraceEnd(context, {{"plans", std::to_string(generated)},
                       {"pruned", std::to_string(stream.groups_pruned())}});
    if (walk.admitted.ok()) break;
  }
  // Pruned groups and candidates are cumulative stream state, accounted
  // once per walk.
  stats_.groups_pruned += stream.groups_pruned();
  if (metrics_.groups_pruned != nullptr) {
    metrics_.groups_pruned->Increment(
        static_cast<double>(stream.groups_pruned()));
    metrics_.candidates->Increment(
        static_cast<double>(stream.stats().candidates));
  }
  if (!walk.any_plans) {
    walk.admitted = Status::NotFound("no plan satisfies the QoS bounds");
  }
  return walk;
}

Result<QualityManager::Admitted> QualityManager::AdmitQuery(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, AdmissionContext context) {
  ++stats_.queries;
  if (metrics_.queries != nullptr) metrics_.queries->Increment();
  TraceBegin(context, "delivery.admit");
  WalkResult walk = RelaxationWalk(
      query_site, content, qos, profile, context, /*screen=*/true,
      [this](const ResourceVector& resources) {
        return qos_api_->Reserve(resources);
      });
  if (metrics_.per_query != nullptr) {
    metrics_.per_query->Observe(static_cast<double>(walk.plans));
  }
  if (walk.admitted.ok()) {
    ++stats_.admitted;
    if (metrics_.admitted != nullptr) metrics_.admitted->Increment();
    if (walk.rounds == 0) {
      TraceEnd(context, {{"outcome", "admitted"}});
    } else {
      ++stats_.renegotiated;
      walk.admitted->renegotiated = true;
      TraceEnd(context, {{"outcome", "admitted_relaxed"},
                         {"rounds", std::to_string(walk.rounds)}});
    }
    return std::move(walk.admitted);
  }
  if (walk.any_plans) {
    ++stats_.rejected_no_resources;
    if (metrics_.rejected_no_resources != nullptr) {
      metrics_.rejected_no_resources->Increment();
    }
    TraceEnd(context, {{"outcome", "rejected_no_resources"}});
    return Status::ResourceExhausted("no admittable plan after " +
                                     std::string(profile != nullptr
                                                     ? "renegotiation"
                                                     : "admission control"));
  }
  ++stats_.rejected_no_plan;
  if (metrics_.rejected_no_plan != nullptr) {
    metrics_.rejected_no_plan->Increment();
  }
  TraceEnd(context, {{"outcome", "rejected_no_plan"}});
  return Status::NotFound("no plan satisfies the QoS bounds");
}

Status QualityManager::CompleteDelivery(const Admitted& admitted) {
  return qos_api_->Release(admitted.reservation);
}

Result<std::vector<QualityManager::RankedPlan>> QualityManager::ExplainPlans(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    size_t limit, AdmissionContext context) {
  PlanStream stream(&generator_, EvaluatorFor(qos, context),
                    &qos_api_->pool(), query_site, content, qos);
  if (!stream.status().ok()) return stream.status();
  std::vector<RankedPlan> ranked;
  while (ranked.size() < limit) {
    std::optional<PlanStream::Ranked> next = stream.Next();
    if (!next.has_value()) break;
    RankedPlan entry;
    entry.cost = cost_model_->Cost(next->plan.resources, qos_api_->pool());
    entry.admissible = qos_api_->Admissible(next->plan.resources);
    entry.plan = std::move(next->plan);
    ranked.push_back(std::move(entry));
  }
  stats_.plans_generated += stream.stats().plans_generated;
  stats_.groups_pruned += stream.groups_pruned();
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
  if (metrics_.renegotiations != nullptr) {
    metrics_.renegotiations->Increment();
  }
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
