#ifndef QUASAQ_CORE_SYSTEM_H_
#define QUASAQ_CORE_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_manager.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/qop.h"
#include "core/quality_manager.h"
#include "core/session_manager.h"
#include "media/library.h"
#include "metadata/distributed_engine.h"
#include "net/topology.h"
#include "obs/observability.h"
#include "query/content_search.h"
#include "query/parser.h"
#include "replication/manager.h"
#include "resource/composite_api.h"
#include "resource/pool.h"
#include "resource/telemetry.h"
#include "simcore/simulator.h"
#include "storage/storage_manager.h"

// End-to-end system facades for the three configurations the paper
// evaluates (Figures 6 and 7):
//
//  * kVdbms        — the original system: no QoS control at all. Every
//                    query is admitted and served the master-quality
//                    object from the receiving site; oversubscribed
//                    links stretch job completion ("it took much longer
//                    time to finish each job").
//  * kVdbmsQosApi  — VDBMS + the low-level QoS APIs only: admission
//                    control and reservation on the master-quality
//                    stream, but no replication awareness, no plan
//                    choice, no cost model.
//  * kVdbmsQuasaq  — the full QuaSAQ stack: QoS-specific replicas,
//                    plan generation, runtime cost evaluation, and
//                    reservation through the Composite QoS API.
//
// MediaDbSystem is a thin facade: it translates each query into a
// delivery decision for its configuration kind and delegates everything
// else to the two layers below it — the planning stream inside
// QualityManager (core/plan_stream.h) and the session lifecycle in
// SessionManager (core/session_manager.h). See docs/ARCHITECTURE.md.
//
// Sessions are modeled at the session level here (admission +
// timed completion); the frame-level QoS path of Figure 5 uses
// net::RtpStreamingSession with the CPU schedulers directly.

namespace quasaq::core {

enum class SystemKind {
  kVdbms = 0,
  kVdbmsQosApi,
  kVdbmsQuasaq,
};

/// Returns "VDBMS", "VDBMS+QoSAPI" or "VDBMS+QuaSAQ".
std::string_view SystemKindName(SystemKind kind);

class MediaDbSystem {
 public:
  struct Options {
    SystemKind kind = SystemKind::kVdbmsQuasaq;
    net::Topology topology = net::Topology::PaperTestbed();
    media::LibraryOptions library;
    // Cost model name for the QuaSAQ configuration (cost_model.h).
    std::string cost_model = "lrb";
    uint64_t seed = 1;
    QualityManager::Options quality;
    // CPU capacity of one server, as a fraction (1.0 = one CPU).
    double cpu_capacity = 1.0;
    // Oversubscribed VDBMS links stretch session time up to this factor.
    double vdbms_max_stretch = 2.5;
    meta::QosSampler::Options sampler;

    // Dynamic online replication (QuaSAQ only). When enabled the system
    // instantiates per-site storage managers, tracks per-(content,
    // quality) demand and lets a ReplicationManager materialize/evict
    // replicas at runtime.
    struct DynamicReplication {
      bool enabled = false;
      repl::ReplicationManager::Options manager;
      // Per-site storage budget; 0 = unlimited.
      double storage_capacity_kb = 0.0;
    };
    DynamicReplication replication;

    // Per-site segment caching (QuaSAQ only). When enabled each site
    // gets a SegmentCache; admitted sessions stream their replica
    // through the source site's cache, and the Plan Generator emits
    // cache-served plan variants that swap the cached share of disk
    // bandwidth for memory bandwidth.
    struct Cache {
      bool enabled = false;
      cache::CacheManager::Options manager;
    };
    Cache cache;

    // End-to-end observability (src/obs/). The metrics registry is
    // always on — counters are lock-free and gauges/histograms cost one
    // leaf lock, so instrumentation overhead is negligible next to
    // planning. Per-session trace recording is opt-in.
    struct Observability {
      // Record per-delivery spans (admit → plan → stream →
      // renegotiate → complete) for Chrome trace-event export.
      bool tracing = false;
      // Cap on buffered trace events; Begin/Instant past the cap are
      // dropped (counted), End is always kept so spans stay closed.
      size_t trace_max_events = 1 << 20;
    };
    Observability observability;
  };

  struct DeliveryOutcome {
    Status status;  // OK = admitted; the session is now streaming
    SessionId session;
    bool renegotiated = false;
    media::AppQos delivered_qos;   // valid when admitted
    double wire_rate_kbps = 0.0;   // valid when admitted
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
  };

  using SessionCompleteCallback = SessionManager::CompleteCallback;

  MediaDbSystem(sim::Simulator* simulator, const Options& options);

  /// Phase 1: resolves the content component of a parsed query to
  /// logical OIDs via the content index.
  std::vector<LogicalOid> ResolveContent(
      const query::ParsedQuery& parsed) const;

  /// Phase 2: admits and starts the delivery of `content` under `qos`
  /// for a client attached to `client_site`. Depending on the system
  /// kind this performs no control (VDBMS), plain admission
  /// (VDBMS+QoSAPI) or full QuaSAQ planning.
  DeliveryOutcome SubmitDelivery(SiteId client_site, LogicalOid content,
                                 const query::QosRequirement& qos,
                                 const UserProfile* profile = nullptr);

  struct TextQueryOutcome {
    LogicalOid content;
    DeliveryOutcome delivery;
  };

  /// Full path: parse `text`, resolve content, deliver the first match.
  /// Queries prefixed with EXPLAIN are rejected with
  /// kFailedPrecondition — route them to ExplainTextQuery.
  Result<TextQueryOutcome> SubmitTextQuery(SiteId client_site,
                                           std::string_view text,
                                           const UserProfile* profile =
                                               nullptr);

  struct Explanation {
    LogicalOid content;
    std::vector<QualityManager::RankedPlan> plans;

    /// Renders the EXPLAIN listing, one plan per line with its cost,
    /// wire rate and admissibility.
    std::string ToString() const;
  };

  /// EXPLAIN path (QuaSAQ only): parse, resolve content, enumerate and
  /// rank the delivery plans without executing anything. Accepts the
  /// query with or without the EXPLAIN prefix. Enumeration stops once
  /// `max_plans` entries have been yielded from the plan stream.
  Result<Explanation> ExplainTextQuery(SiteId client_site,
                                       std::string_view text,
                                       size_t max_plans = 10);

  /// Aborts a running session early, releasing its resources.
  Status CancelSession(SessionId session) {
    return session_manager_.Cancel(session);
  }

  /// Mid-playback QoS change (QuaSAQ only): re-plans the session's
  /// content under `new_qos` and renegotiates its reservation. The
  /// playback schedule is unchanged; only the delivered quality and the
  /// reserved resources move. A paused session can be re-planned too:
  /// nothing is acquired until resume, which then re-admits the new
  /// plan's resources. Fails with kFailedPrecondition on non-QuaSAQ
  /// systems, kNotFound for unknown sessions; planner and admission
  /// errors propagate, leaving the old reservation intact.
  Result<DeliveryOutcome> ChangeSessionQos(
      SessionId session, const query::QosRequirement& new_qos,
      const UserProfile* profile = nullptr);

  /// User action: pauses a running session. Its reserved resources are
  /// released while paused (a paused stream sends nothing); playback
  /// time stops accruing.
  Status PauseSession(SessionId session) {
    return session_manager_.Pause(session);
  }

  /// User action: resumes a paused session — effectively a
  /// renegotiation, since the released resources must be re-admitted.
  /// Fails with kResourceExhausted when the system can no longer carry
  /// the stream; the session then stays paused.
  Status ResumeSession(SessionId session) {
    return session_manager_.Resume(session);
  }

  void set_on_session_complete(SessionCompleteCallback callback) {
    on_session_complete_ = std::move(callback);
  }

  int outstanding_sessions() const { return session_manager_.outstanding(); }
  /// Consistent snapshot of the query counters (accumulated with
  /// relaxed atomics, so concurrent submissions never tear it).
  Stats stats() const;
  SystemKind kind() const { return options_.kind; }

  const media::VideoLibrary& library() const { return library_; }
  const net::Topology& topology() const { return options_.topology; }
  res::ResourcePool& pool() { return pool_; }
  const res::CompositeQosApi& qos_api() const { return qos_api_; }

  /// Multi-line operator report: query counters, bucket fill, bottleneck
  /// resource, and (when enabled) replication activity.
  std::string ReportString() const;
  meta::DistributedMetadataEngine& metadata() { return *metadata_; }
  QualityManager* quality_manager() { return quality_manager_.get(); }
  /// The session lifecycle layer (session table, pause/resume state).
  const SessionManager& session_manager() const { return session_manager_; }
  /// Non-null only when dynamic replication is enabled.
  repl::ReplicationManager* replication_manager() {
    return replication_manager_.get();
  }
  /// The storage manager of `site`; non-null only with replication on.
  storage::StorageManager* storage_at(SiteId site) {
    for (auto& store : storage_) {
      if (store->site() == site) return store.get();
    }
    return nullptr;
  }
  /// Non-null only when segment caching is enabled (QuaSAQ only).
  cache::CacheManager* cache_manager() { return cache_manager_.get(); }

  /// The live observability context all layers report into.
  obs::Observability& observability() { return observability_; }
  const obs::Observability& observability() const { return observability_; }

  // Serialized exposition of the observability state: the Prometheus
  // text dump and the JSON snapshot of every metric, plus the Chrome
  // trace-event JSON (empty when tracing is off).
  struct ObservabilitySnapshot {
    std::string prometheus;
    std::string metrics_json;
    std::string trace_json;
  };
  ObservabilitySnapshot TakeObservabilitySnapshot() const;

  /// Records one utilization sample per resource bucket at the current
  /// sim time. The facade calls this whenever utilization moves (session
  /// start and completion); harnesses wanting a fixed cadence can drive
  /// it from a periodic simulator task.
  void SampleResourceTelemetry();

 private:
  /// Parses `text` and resolves its content predicate to the first
  /// matching logical OID (stored into `content`).
  Result<query::ParsedQuery> ParseAndResolve(std::string_view text,
                                             LogicalOid* content) const;
  // `trace_track` is the delivery's span track (0 = untraced) and `now`
  // the submission's sim time; they are parameters, not members, so
  // concurrent submissions never share mutable facade state.
  DeliveryOutcome DeliverVdbms(SiteId site, LogicalOid content,
                               int64_t trace_track);
  DeliveryOutcome DeliverQosApi(SiteId site, LogicalOid content,
                                int64_t trace_track);
  DeliveryOutcome DeliverQuasaq(SiteId site, LogicalOid content,
                                const query::QosRequirement& qos,
                                const UserProfile* profile,
                                int64_t trace_track, SimTime now);

  sim::Simulator* simulator_;
  Options options_;
  obs::Observability observability_;
  media::VideoLibrary library_;
  std::unique_ptr<meta::DistributedMetadataEngine> metadata_;
  query::ContentIndex content_index_;
  res::ResourcePool pool_;
  res::CompositeQosApi qos_api_;
  SessionManager session_manager_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<QualityManager> quality_manager_;
  std::vector<std::unique_ptr<storage::StorageManager>> storage_;
  std::unique_ptr<repl::ReplicationManager> replication_manager_;
  std::unique_ptr<cache::CacheManager> cache_manager_;
  std::unique_ptr<res::PoolTelemetry> pool_telemetry_;

  // The Stats query fields, accumulated with relaxed atomics (stats()
  // snapshots them) so concurrent submissions never race; `completed`
  // is read from SessionManager.
  struct AtomicStats {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected{0};
  };
  AtomicStats stats_;
  SessionCompleteCallback on_session_complete_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_SYSTEM_H_
