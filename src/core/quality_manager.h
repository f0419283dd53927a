#ifndef QUASAQ_CORE_QUALITY_MANAGER_H_
#define QUASAQ_CORE_QUALITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "core/cost_evaluator.h"
#include "core/plan_generator.h"
#include "core/plan_stream.h"
#include "core/qop.h"
#include "core/utility.h"
#include "metadata/distributed_engine.h"
#include "obs/observability.h"
#include "query/ast.h"
#include "resource/composite_api.h"

// Quality Manager (paper §3.4): the focal point of QuaSAQ. For a query
// that phase 1 resolved to a logical OID, it generates delivery plans,
// ranks them with the Runtime Cost Evaluator, and walks the ranking
// through admission control — the first admittable plan is reserved and
// executed. When nothing is admittable and the user profile allows it,
// the QoS bounds are relaxed along the user's least-valued axis and the
// query gets a "second chance" (renegotiation).
//
// The ranking is walked through a lazy best-first PlanStream
// (core/plan_stream.h): plans are materialized only as far as admission
// control actually looks, and branches whose LRB lower bound exceeds
// the first admitted cost are never generated. Relaxation rounds reuse
// the query's still-open stream (PlanStream::Reset) instead of
// re-seeding enumeration — and so do mid-playback renegotiations.
// PlanGenerator::Generate + RuntimeCostEvaluator::Rank compute the same
// ranking eagerly; they are kept as the oracle tests and benches compare
// the stream against.
//
// Thread-safety: Admit/Renegotiate/Explain may run concurrently from
// many threads under every optimization goal, traced or not. Per-query
// state (the gain for the QoS window, the trace track, the sim time)
// travels in the AdmissionContext each call receives by value, and each
// call and relaxation round ranks with its own RuntimeCostEvaluator.
// Statistics are atomic; the generator and the metadata read path are
// immutable or internally synchronized. set_observability is
// configuration: call it before threads fan out.

namespace quasaq::core {

// Per-call admission state, passed by value into every QualityManager
// planning call so concurrent calls share nothing mutable. Callers set
// the trace fields; the manager fills `gain` for each QoS window it
// ranks under (relaxation rounds change the window, and with it the
// gain).
struct AdmissionContext {
  // Tracer::NewTrack track the call's spans render on; 0 = untraced.
  int64_t trace_track = 0;
  // Sim time stamped on every span (the sim clock does not advance
  // during admission).
  SimTime now = 0;
  // Gain G of E = G / C(r) for the current QoS window; empty = 1.
  RuntimeCostEvaluator::GainFunction gain;
};

class QualityManager {
 public:
  // Optimization goal of the configurable cost model (paper §3.4,
  // E = G / C(r)): maximize system throughput (G = 1, the paper's
  // evaluated model) or maximize user satisfaction (G = presentation
  // utility of the delivered quality).
  enum class OptimizationGoal {
    kThroughput = 0,
    kUserSatisfaction,
  };

  struct Options {
    PlanGenerator::Options generator;
    bool enable_renegotiation = true;
    int max_renegotiation_rounds = 2;
    // How many plans of each round's ranking admission control (and
    // either renegotiation) may try before relaxing or giving up. 0 =
    // walk the entire ranking (engineering improvement); 1 = the paper's
    // semantics, where only the first plan in ascending cost order is
    // submitted for admission.
    int max_admission_attempts = 0;
    OptimizationGoal goal = OptimizationGoal::kThroughput;
    // Axis weights when goal == kUserSatisfaction.
    UtilityWeights utility_weights;
  };

  struct Stats {
    uint64_t queries = 0;
    uint64_t admitted = 0;
    uint64_t rejected_no_plan = 0;      // QoS unsatisfiable from storage
    uint64_t rejected_no_resources = 0; // all plans failed admission
    uint64_t renegotiated = 0;          // admitted at relaxed QoS
    // Plans materialized and costed: the prefix of the ranking the
    // admission walk expanded, not the whole search space.
    uint64_t plans_generated = 0;
    uint64_t groups_pruned = 0;  // branches the stream never expanded
  };

  // A successfully admitted query.
  struct Admitted {
    Plan plan;
    res::ReservationId reservation = res::kInvalidReservationId;
    bool renegotiated = false;
  };

  /// All pointers must outlive the manager.
  QualityManager(meta::DistributedMetadataEngine* metadata,
                 res::CompositeQosApi* qos_api, CostModel* cost_model,
                 std::vector<SiteId> sites, const Options& options);

  /// Populates `options.transcode_targets` (when empty) with the
  /// standard ladder plus reduced-color and reduced-audio variants so
  /// color-only or audio-only degradations are plannable — the default
  /// activity set of the full-stack system configuration.
  static void PopulateDefaultTranscodeTargets(PlanGenerator::Options& options);

  /// Plans, ranks and reserves the delivery of `content` under `qos`.
  /// `profile` enables renegotiation (nullptr = none). Fails with
  /// kNotFound when no plan satisfies the QoS from storage and
  /// kResourceExhausted when no satisfying plan passes admission.
  Result<Admitted> AdmitQuery(SiteId query_site, LogicalOid content,
                              const query::QosRequirement& qos,
                              const UserProfile* profile = nullptr,
                              AdmissionContext context = {});

  /// Releases the resources of a finished (or aborted) delivery.
  Status CompleteDelivery(const Admitted& admitted);

  /// Mid-playback renegotiation (paper §3.2's first scenario: "QoS
  /// requirements are allowed to be modified during media playback"):
  /// re-plans `content` under `qos` and atomically swaps the running
  /// reservation `id` to the best admittable new plan. On failure the
  /// old reservation stands untouched. When `profile` is non-null and
  /// renegotiation is enabled, an unservable `qos` is relaxed along the
  /// profile's least-valued axis for up to max_renegotiation_rounds
  /// retries — each round reusing the same still-open plan stream.
  Result<Admitted> RenegotiateDelivery(res::ReservationId id,
                                       SiteId query_site, LogicalOid content,
                                       const query::QosRequirement& qos,
                                       const UserProfile* profile = nullptr,
                                       AdmissionContext context = {});

  /// Renegotiation flavor for *paused* sessions, which hold no
  /// reservation to swap: plans `qos`, adopts the best plan that passes
  /// admission control's fit test (Admissible — nothing is reserved or
  /// released; Resume re-admits the adopted vector when playback
  /// restarts) and returns it with an invalid reservation id. Counts as
  /// a renegotiation, not as a fresh query: the plan.queries/admitted
  /// counters and the delivery.admit span stay untouched.
  Result<Admitted> PlanPausedRenegotiation(
      SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
      const UserProfile* profile = nullptr, AdmissionContext context = {});

  // One entry of an EXPLAIN listing: a ranked plan, its cost under the
  // current system status, and whether admission control would take it.
  struct RankedPlan {
    Plan plan;
    double cost = 0.0;
    bool admissible = false;
  };

  /// Enumerates and ranks the plans for `content` under `qos` without
  /// reserving anything — the EXPLAIN path. At most `limit` entries;
  /// enumeration stops as soon as `limit` plans have been yielded
  /// instead of ranking the whole space first.
  Result<std::vector<RankedPlan>> ExplainPlans(
      SiteId query_site, LogicalOid content,
      const query::QosRequirement& qos, size_t limit = 10,
      AdmissionContext context = {});

  /// Renders an EXPLAIN listing for `content`, one plan per line with
  /// its cost, wire rate, startup latency and admissibility.
  static std::string FormatPlanListing(LogicalOid content,
                                       const std::vector<RankedPlan>& plans);

  /// Consistent snapshot of the counters (fields are accumulated
  /// atomically, so concurrent admissions never tear it).
  Stats stats() const;
  res::CompositeQosApi& qos_api() { return *qos_api_; }
  PlanGenerator& generator() { return generator_; }

  /// Attaches plan-search counters/histograms and span emission
  /// (nullptr detaches). The pointer must outlive the manager.
  void set_observability(obs::Observability* observability);

 private:
  // Registry handles resolved once in set_observability; all nullptr
  // when unobserved.
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected_no_plan = nullptr;
    obs::Counter* rejected_no_resources = nullptr;
    obs::Counter* relaxations = nullptr;
    obs::Counter* renegotiations = nullptr;
    obs::Counter* generated = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Counter* groups_pruned = nullptr;
    obs::Histogram* per_query = nullptr;
    obs::Histogram* cutoff_margin = nullptr;
  };

  // The Stats fields, accumulated with relaxed atomics so concurrent
  // admissions from many threads never race; stats() snapshots them
  // into the plain public struct.
  struct AtomicStats {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected_no_plan{0};
    std::atomic<uint64_t> rejected_no_resources{0};
    std::atomic<uint64_t> renegotiated{0};
    std::atomic<uint64_t> plans_generated{0};
    std::atomic<uint64_t> groups_pruned{0};
  };

  void TraceBegin(const AdmissionContext& context, const char* name,
                  obs::Tracer::Args args = {});
  void TraceEnd(const AdmissionContext& context, obs::Tracer::Args args = {});
  void TraceInstant(const AdmissionContext& context, const char* name);
  // Sets `context.gain` to the gain the optimization goal assigns to
  // `qos`'s window and returns an evaluator ranking with it.
  RuntimeCostEvaluator EvaluatorFor(const query::QosRequirement& qos,
                                    AdmissionContext& context) const;
  // What one relaxation walk found: the adopted plan (or why there is
  // none: the stream's failure, kResourceExhausted when plans were seen
  // but none adopted, kNotFound when no window yielded any), how many
  // relaxed rounds ran after round 0, and the plans it materialized.
  struct WalkResult {
    Result<Admitted> admitted = Status::ResourceExhausted("no admittable plan");
    bool any_plans = false;
    int rounds = 0;
    size_t plans = 0;
  };

  // Paper §3.2's one renegotiation mechanism, shared by admission and
  // both renegotiation flavors. Opens one PlanStream for `qos` and hands
  // its plans, in ranking order and at most max_admission_attempts per
  // round, to `adopt` (ResourceVector -> Result<res::ReservationId>)
  // until one is adopted. When none is and renegotiation is on, each
  // further round relaxes the window along `profile`'s least-valued
  // axis and re-arms the same stream (PlanStream::Reset), for up to
  // max_renegotiation_rounds rounds. With `screen`, plans Admissible
  // rejects are skipped without calling `adopt` or opening a
  // plan.reserve span. Accounts generated plans, candidates, pruned
  // groups, relaxations and the cutoff margin; callers keep only their
  // own counters and messages.
  template <typename Adopt>
  WalkResult RelaxationWalk(SiteId query_site, LogicalOid content,
                            const query::QosRequirement& qos,
                            const UserProfile* profile,
                            AdmissionContext& context, bool screen,
                            const Adopt& adopt);
  // Counts one renegotiation, however many relaxation rounds its walk
  // retried, and marks the adopted plan renegotiated.
  Result<Admitted> FinishRenegotiation(WalkResult walk);

  res::CompositeQosApi* qos_api_;
  PlanGenerator generator_;
  CostModel* cost_model_;
  Options options_;
  AtomicStats stats_;
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_QUALITY_MANAGER_H_
