#include "core/system.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace quasaq::core {

std::string_view SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kVdbms:
      return "VDBMS";
    case SystemKind::kVdbmsQosApi:
      return "VDBMS+QoSAPI";
    case SystemKind::kVdbmsQuasaq:
      return "VDBMS+QuaSAQ";
  }
  return "unknown";
}

MediaDbSystem::MediaDbSystem(sim::Simulator* simulator,
                             const Options& options)
    : simulator_(simulator),
      options_(options),
      observability_(obs::Tracer::Options{
          options.observability.tracing,
          options.observability.trace_max_events}),
      library_(media::BuildExperimentLibrary(options.library,
                                             options.topology.SiteIds())),
      qos_api_(&pool_, observability_.metrics()),
      session_manager_(simulator, &qos_api_, observability_,
                       [this](SessionId id, SimTime now) {
                         SampleResourceTelemetry();
                         if (on_session_complete_) {
                           on_session_complete_(id, now);
                         }
                       }) {
  assert(simulator_ != nullptr);
  std::vector<SiteId> sites = options_.topology.SiteIds();

  // Resource buckets: one CPU / net / disk / memory bucket per server.
  // Topology validation guarantees positive capacities; a violation here
  // is a construction bug, not a runtime condition.
  auto declare = [this](const BucketId& bucket, double capacity) {
    Status declared = pool_.DeclareBucket(bucket, capacity);
    assert(declared.ok());
    (void)declared;
  };
  for (const net::ServerSpec& server : options_.topology.servers) {
    declare({server.id, ResourceKind::kCpu}, options_.cpu_capacity);
    declare({server.id, ResourceKind::kNetworkBandwidth},
            server.outbound_kbps);
    declare({server.id, ResourceKind::kDiskBandwidth}, server.disk_kbps);
    declare({server.id, ResourceKind::kMemory}, server.memory_kb);
    declare({server.id, ResourceKind::kMemoryBandwidth},
            server.memory_bandwidth_kbps);
  }
  pool_telemetry_ = std::make_unique<res::PoolTelemetry>(
      &pool_, &observability_.metrics());

  // Metadata: contents, replicas and sampled QoS profiles.
  metadata_ = std::make_unique<meta::DistributedMetadataEngine>(
      sites, meta::DistributedMetadataEngine::Options());
  meta::QosSampler sampler(options_.sampler, options_.seed);
  for (const media::VideoContent& content : library_.contents) {
    Status status = metadata_->InsertContent(content);
    assert(status.ok());
    (void)status;
    content_index_.Add(content);
  }
  for (const media::ReplicaInfo& replica : library_.replicas) {
    Status status = metadata_->InsertReplica(replica);
    assert(status.ok());
    status = metadata_->SetQosProfile(replica.id,
                                      sampler.SampleStreaming(replica));
    assert(status.ok());
    (void)status;
  }

  if (options_.kind == SystemKind::kVdbmsQuasaq) {
    cost_model_ = MakeCostModel(options_.cost_model, options_.seed);
    assert(cost_model_ != nullptr && "unknown cost model name");
    QualityManager::Options quality = options_.quality;
    QualityManager::PopulateDefaultTranscodeTargets(quality.generator);
    quality_manager_ = std::make_unique<QualityManager>(
        metadata_.get(), &qos_api_, cost_model_.get(), sites, quality,
        observability_);
    if (options_.cache.enabled) {
      cache_manager_ = std::make_unique<cache::CacheManager>(
          sites, options_.cache.manager, observability_.metrics());
      quality_manager_->generator().set_cache_view(cache_manager_.get());
    }

    if (options_.replication.enabled) {
      int64_t max_oid = 0;
      std::vector<storage::StorageManager*> raw_stores;
      for (const net::ServerSpec& server : options_.topology.servers) {
        storage::StorageManager::Options store_options;
        store_options.disk_bandwidth_kbps = server.disk_kbps;
        store_options.capacity_kb = options_.replication.storage_capacity_kb;
        if (cache_manager_ != nullptr) {
          store_options.segment_layout = options_.cache.manager.layout;
        }
        storage_.push_back(std::make_unique<storage::StorageManager>(
            server.id, store_options));
        if (cache_manager_ != nullptr) {
          storage_.back()->AttachCache(cache_manager_->at(server.id));
        }
        raw_stores.push_back(storage_.back().get());
      }
      for (const media::ReplicaInfo& replica : library_.replicas) {
        Status status = storage_at(replica.site)->store().Put(replica);
        assert(status.ok());
        (void)status;
        max_oid = std::max(max_oid, replica.id.value());
      }
      replication_manager_ = std::make_unique<repl::ReplicationManager>(
          simulator_, metadata_.get(), std::move(raw_stores),
          media::QualityLadder::Standard(), max_oid + 1,
          options_.replication.manager);
      if (cache_manager_ != nullptr) {
        replication_manager_->set_cache(cache_manager_.get());
      }
      replication_manager_->Start();
    }
  }
}

std::vector<LogicalOid> MediaDbSystem::ResolveContent(
    const query::ParsedQuery& parsed) const {
  return content_index_.Search(parsed.content);
}

MediaDbSystem::DeliveryOutcome MediaDbSystem::SubmitDelivery(
    SiteId client_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile) {
  ++stats_.submitted;
  obs::Tracer& tracer = observability_.tracer();
  const SimTime now = simulator_->Now();
  // A trace track is only allocated when tracing is on; the track
  // travels with this submission into the planner's AdmissionContext.
  int64_t trace_track = 0;
  if (options_.observability.tracing) {
    trace_track = tracer.NewTrack(
        "delivery content=" + std::to_string(content.value()) + " site=" +
        std::to_string(client_site.value()));
    tracer.Begin(trace_track, "delivery", now,
                 {{"content", std::to_string(content.value())},
                  {"client_site", std::to_string(client_site.value())},
                  {"kind", std::string(SystemKindName(options_.kind))}});
  }
  DeliveryOutcome outcome;
  switch (options_.kind) {
    case SystemKind::kVdbms:
      outcome = DeliverVdbms(client_site, content, trace_track);
      break;
    case SystemKind::kVdbmsQosApi:
      outcome = DeliverQosApi(client_site, content, trace_track);
      break;
    case SystemKind::kVdbmsQuasaq:
      outcome = DeliverQuasaq(client_site, content, qos, profile,
                              trace_track, now);
      break;
  }
  if (outcome.status.ok()) {
    ++stats_.admitted;
    // The new reservation moved utilization; record the step.
    SampleResourceTelemetry();
  } else {
    ++stats_.rejected;
    if (trace_track != 0) {
      // A rejected delivery never reaches the session layer; close the
      // root span here so the track is complete.
      tracer.Instant(trace_track, "delivery.rejected", now);
      tracer.EndAll(trace_track, now);
    }
  }
  return outcome;
}

MediaDbSystem::DeliveryOutcome MediaDbSystem::DeliverVdbms(
    SiteId site, LogicalOid content, int64_t trace_track) {
  DeliveryOutcome outcome;
  const media::ReplicaInfo* replica = library_.MasterReplicaAt(content, site);
  if (replica == nullptr) {
    outcome.status = Status::NotFound("no replica at receiving site");
    return outcome;
  }
  // No QoS control: the job always starts. When the outbound link is
  // oversubscribed the effective delivery slows down; we model that as a
  // bounded stretch of the session time by the link's demand ratio at
  // admission (retransmissions/late frames — the Fig 5c pathology).
  const net::ServerSpec* spec = options_.topology.Find(site);
  assert(spec != nullptr);
  double active_kbps = session_manager_.vdbms_active_kbps(site);
  double demand_ratio =
      (active_kbps + replica->bitrate_kbps) / spec->outbound_kbps;
  double stretch =
      std::clamp(demand_ratio, 1.0, options_.vdbms_max_stretch);

  if (trace_track != 0) {
    // VDBMS has no admission control: a zero-width span records that
    // the query passed straight through.
    const SimTime now = simulator_->Now();
    observability_.tracer().Begin(trace_track, "delivery.admit", now,
                                  {{"control", "none"}});
    observability_.tracer().End(trace_track, now);
  }
  SessionManager::Record record;
  record.content = content;
  record.site = site;
  record.vdbms_kbps = replica->bitrate_kbps;
  record.trace_track = trace_track;

  outcome.status = Status::Ok();
  outcome.delivered_qos = replica->qos;
  outcome.wire_rate_kbps = replica->bitrate_kbps;
  outcome.session = session_manager_.Start(std::move(record),
                                           replica->duration_seconds * stretch);
  return outcome;
}

MediaDbSystem::DeliveryOutcome MediaDbSystem::DeliverQosApi(
    SiteId site, LogicalOid content, int64_t trace_track) {
  DeliveryOutcome outcome;
  const media::ReplicaInfo* replica = library_.MasterReplicaAt(content, site);
  if (replica == nullptr) {
    outcome.status = Status::NotFound("no replica at receiving site");
    return outcome;
  }
  // Admission + reservation on the master-quality stream from the
  // receiving site; no plan alternatives exist in this configuration.
  Plan plan;
  plan.replica_oid = replica->id;
  plan.source_site = replica->site;
  plan.delivery_site = site;
  FinalizePlan(plan, *replica, options_.quality.generator.constants);
  if (trace_track != 0) {
    observability_.tracer().Begin(trace_track, "delivery.admit",
                                  simulator_->Now());
  }
  Result<res::ReservationId> reservation = qos_api_.Reserve(plan.resources);
  if (trace_track != 0) {
    observability_.tracer().End(
        trace_track, simulator_->Now(),
        {{"outcome", reservation.ok() ? "admitted" : "rejected"}});
  }
  if (!reservation.ok()) {
    outcome.status = reservation.status();
    return outcome;
  }
  SessionManager::Record record;
  record.content = content;
  record.site = site;
  record.reservation = *reservation;
  record.trace_track = trace_track;
  outcome.status = Status::Ok();
  outcome.delivered_qos = replica->qos;
  outcome.wire_rate_kbps = plan.wire_rate_kbps;
  outcome.session =
      session_manager_.Start(std::move(record), replica->duration_seconds);
  return outcome;
}

MediaDbSystem::DeliveryOutcome MediaDbSystem::DeliverQuasaq(
    SiteId site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, int64_t trace_track, SimTime now) {
  DeliveryOutcome outcome;
  if (replication_manager_ != nullptr) {
    int level =
        media::QualityLadder::Standard().CheapestSatisfyingLevel(qos.range);
    if (level >= 0) replication_manager_->RecordDemand(content, level);
  }
  AdmissionContext context;
  context.trace_track = trace_track;
  context.now = now;
  Result<QualityManager::Admitted> admitted =
      quality_manager_->AdmitQuery(site, content, qos, profile, context);
  if (!admitted.ok()) {
    outcome.status = admitted.status();
    return outcome;
  }
  // Every replica of an object shares the content's duration; look it
  // up through metadata so dynamically created replicas work too.
  auto content_info = metadata_->FindContent(site, content);
  assert(content_info.has_value());
  if (cache_manager_ != nullptr) {
    // Stream the replica through its source site's cache: hits are
    // served from memory, misses warm the cache for later sessions.
    for (const media::ReplicaInfo& replica :
         metadata_->ReplicasOf(site, content)) {
      if (replica.id == admitted->plan.replica_oid) {
        cache_manager_->OnStream(admitted->plan.source_site, replica,
                                 simulator_->Now());
        break;
      }
    }
  }
  SessionManager::Record record;
  record.content = content;
  record.site = admitted->plan.delivery_site;
  record.reservation = admitted->reservation;
  record.trace_track = trace_track;
  outcome.status = Status::Ok();
  outcome.renegotiated = admitted->renegotiated;
  outcome.delivered_qos = admitted->plan.delivered_qos;
  outcome.wire_rate_kbps = admitted->plan.wire_rate_kbps;
  outcome.session = session_manager_.Start(std::move(record),
                                           content_info->duration_seconds);
  return outcome;
}

Result<MediaDbSystem::DeliveryOutcome> MediaDbSystem::ChangeSessionQos(
    SessionId session, const query::QosRequirement& new_qos,
    const UserProfile* profile) {
  if (options_.kind != SystemKind::kVdbmsQuasaq) {
    return Status::FailedPrecondition(
        "mid-playback renegotiation requires QuaSAQ");
  }
  std::optional<SessionManager::Record> record =
      session_manager_.Snapshot(session);
  if (!record.has_value()) return Status::NotFound("no such session");
  obs::Tracer& tracer = observability_.tracer();
  const int64_t track = record->trace_track;
  const SimTime now = simulator_->Now();
  if (track != 0) {
    tracer.Begin(track, "session.renegotiate", now,
                 {{"session", std::to_string(session.value())}});
  }
  AdmissionContext context;
  context.trace_track = track;
  context.now = now;
  // A paused session holds no reservation to renegotiate in place: the
  // quality manager adopts the best plan that passes admission control's
  // fit test (nothing is reserved) — Resume re-admits the adopted vector
  // when playback actually restarts.
  Result<QualityManager::Admitted> admitted =
      record->paused
          ? quality_manager_->PlanPausedRenegotiation(
                record->site, record->content, new_qos, profile, context)
          : quality_manager_->RenegotiateDelivery(
                record->reservation, record->site, record->content, new_qos,
                profile, context);
  if (track != 0) {
    tracer.End(track, now,
               {{"outcome", admitted.ok() ? "adopted" : "rejected"}});
  }
  if (!admitted.ok()) return admitted.status();
  SampleResourceTelemetry();
  Status adopted = session_manager_.AdoptRenegotiatedPlan(
      session, admitted->plan.delivery_site, admitted->plan.resources);
  // The session can only disappear between the snapshot above and the
  // adoption if the caller raced its own cancel/complete; surface that
  // instead of silently keeping the renegotiated reservation unadopted.
  if (!adopted.ok()) return adopted;
  DeliveryOutcome outcome;
  outcome.status = Status::Ok();
  outcome.session = session;
  outcome.renegotiated = true;
  outcome.delivered_qos = admitted->plan.delivered_qos;
  outcome.wire_rate_kbps = admitted->plan.wire_rate_kbps;
  return outcome;
}

MediaDbSystem::ObservabilitySnapshot
MediaDbSystem::TakeObservabilitySnapshot() const {
  ObservabilitySnapshot snapshot;
  snapshot.prometheus = observability_.metrics().PrometheusText();
  snapshot.metrics_json = observability_.metrics().JsonSnapshot();
  if (options_.observability.tracing) {
    snapshot.trace_json = observability_.tracer().ChromeTraceJson();
  }
  return snapshot;
}

MediaDbSystem::Stats MediaDbSystem::stats() const {
  Stats snapshot;
  snapshot.submitted = stats_.submitted.load(std::memory_order_relaxed);
  snapshot.admitted = stats_.admitted.load(std::memory_order_relaxed);
  snapshot.rejected = stats_.rejected.load(std::memory_order_relaxed);
  snapshot.completed = session_manager_.completed();
  return snapshot;
}

void MediaDbSystem::SampleResourceTelemetry() {
  pool_telemetry_->Sample(simulator_->Now());
}

std::string MediaDbSystem::ReportString() const {
  const Stats totals = stats();
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "%s: submitted=%llu admitted=%llu rejected=%llu completed=%llu "
      "outstanding=%d",
      std::string(SystemKindName(options_.kind)).c_str(),
      static_cast<unsigned long long>(totals.submitted),
      static_cast<unsigned long long>(totals.admitted),
      static_cast<unsigned long long>(totals.rejected),
      static_cast<unsigned long long>(totals.completed),
      session_manager_.outstanding());
  std::string out(buf);
  out += "\nbuckets: " + pool_.DebugString();
  std::string bottleneck = qos_api_.BottleneckReport();
  if (!bottleneck.empty()) out += "\n" + bottleneck;
  if (replication_manager_ != nullptr) {
    const repl::ReplicationManager::Stats& repl =
        replication_manager_->stats();
    std::snprintf(buf, sizeof(buf),
                  "\nreplication: cycles=%llu created=%llu dropped=%llu",
                  static_cast<unsigned long long>(repl.cycles),
                  static_cast<unsigned long long>(repl.created),
                  static_cast<unsigned long long>(repl.dropped));
    out += buf;
  }
  if (cache_manager_ != nullptr) {
    out += "\n" + cache_manager_->ReportString();
  }
  return out;
}

std::string MediaDbSystem::Explanation::ToString() const {
  return QualityManager::FormatPlanListing(content, plans);
}

Result<query::ParsedQuery> MediaDbSystem::ParseAndResolve(
    std::string_view text, LogicalOid* content) const {
  Result<query::ParsedQuery> parsed = query::ParseQuery(text);
  if (!parsed.ok()) return parsed;
  std::vector<LogicalOid> matches = ResolveContent(*parsed);
  if (matches.empty()) {
    return Status::NotFound("no video matches the content predicate");
  }
  *content = matches.front();
  return parsed;
}

Result<MediaDbSystem::Explanation> MediaDbSystem::ExplainTextQuery(
    SiteId client_site, std::string_view text, size_t max_plans) {
  if (quality_manager_ == nullptr) {
    return Status::FailedPrecondition("EXPLAIN requires QuaSAQ");
  }
  Explanation explanation;
  Result<query::ParsedQuery> parsed =
      ParseAndResolve(text, &explanation.content);
  if (!parsed.ok()) return parsed.status();
  Result<std::vector<QualityManager::RankedPlan>> plans =
      quality_manager_->ExplainPlans(client_site, explanation.content,
                                     parsed->qos, max_plans);
  if (!plans.ok()) return plans.status();
  explanation.plans = std::move(*plans);
  return explanation;
}

Result<MediaDbSystem::TextQueryOutcome> MediaDbSystem::SubmitTextQuery(
    SiteId client_site, std::string_view text, const UserProfile* profile) {
  TextQueryOutcome outcome;
  Result<query::ParsedQuery> parsed = ParseAndResolve(text, &outcome.content);
  if (!parsed.ok()) return parsed.status();
  if (parsed->explain) {
    return Status::FailedPrecondition(
        "EXPLAIN queries must go through ExplainTextQuery");
  }
  outcome.delivery =
      SubmitDelivery(client_site, outcome.content, parsed->qos, profile);
  return outcome;
}

}  // namespace quasaq::core
