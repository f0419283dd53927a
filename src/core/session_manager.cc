#include "core/session_manager.h"

#include <cassert>
#include <string>
#include <utility>

namespace quasaq::core {

SessionManager::SessionManager(sim::Simulator* simulator,
                               res::CompositeQosApi* qos_api,
                               obs::Observability& observability,
                               CompleteCallback on_complete)
    : simulator_(simulator),
      qos_api_(qos_api),
      metrics_(ResolveMetrics(observability.metrics())),
      tracer_(observability.tracer()),
      on_complete_(std::move(on_complete)) {
  assert(simulator_ != nullptr);
  assert(qos_api_ != nullptr);
}

SessionManager::Metrics SessionManager::ResolveMetrics(
    obs::MetricsRegistry& reg) {
  return Metrics{
      reg.GetCounter("quasaq_session_started_total",
                     "Deliveries admitted and started"),
      reg.GetCounter("quasaq_session_completed_total",
                     "Sessions that played to the end"),
      reg.GetCounter("quasaq_session_cancelled_total",
                     "Sessions aborted before completion"),
      reg.GetCounter("quasaq_session_paused_total", "Pause operations"),
      reg.GetCounter("quasaq_session_resumed_total",
                     "Successful resume operations"),
      reg.GetCounter("quasaq_session_resume_failed_total",
                     "Resumes rejected by re-admission"),
      reg.GetHistogram(
          "quasaq_session_duration_seconds",
          "Wall-clock (simulated) session length from start to completion",
          obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                                /*bucket_count=*/16}),
      reg.GetGauge("quasaq_session_active_count",
                   "Sessions currently streaming or paused"),
      reg.GetGauge("quasaq_session_peak_count",
                   "High-water mark of concurrent sessions"),
  };
}

void SessionManager::SampleActive(SimTime now) {
  metrics_.active->Sample(now, outstanding_);
  metrics_.peak->SampleMax(now, outstanding_);
}

sim::EventId SessionManager::ScheduleCompletion(SimTime at, SessionId id) {
  return simulator_->ScheduleAt(at, [this, id] { Complete(id); });
}

void SessionManager::PinVdbms(const Record& record, int sign) {
  if (record.vdbms_pin == 0) return;
  vdbms_site_pins_[record.site] += sign * record.vdbms_pin;
}

SessionId SessionManager::Start(Record record, double duration_seconds) {
  if (record.reservation != res::kInvalidReservationId) {
    const ResourceVector* vector = qos_api_->Find(record.reservation);
    assert(vector != nullptr);
    record.reserved_vector = *vector;
  }
  record.vdbms_pin = ToLedgerUnits(record.vdbms_kbps);
  MutexLock lock(&mu_);
  const SimTime now = simulator_->Now();
  record.start = now;
  record.expected_end = now + SecondsToSimTime(duration_seconds);
  const SessionId id(next_id_++);
  PinVdbms(record, +1);
  record.completion_event = ScheduleCompletion(record.expected_end, id);
  if (record.trace_track != 0) {
    tracer_.Begin(record.trace_track, "session.stream", now,
                  {{"session", std::to_string(id.value())},
                   {"site", std::to_string(record.site.value())}});
  }
  sessions_.emplace(id, std::move(record));
  ++outstanding_;
  metrics_.started->Increment();
  SampleActive(now);
  return id;
}

std::optional<SessionManager::Record> SessionManager::Snapshot(
    SessionId session) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

double SessionManager::vdbms_active_kbps(SiteId site) const {
  MutexLock lock(&mu_);
  auto it = vdbms_site_pins_.find(site);
  return it == vdbms_site_pins_.end() ? 0.0 : FromLedgerUnits(it->second);
}

int SessionManager::outstanding() const {
  MutexLock lock(&mu_);
  return outstanding_;
}

uint64_t SessionManager::completed() const {
  return metrics_.completed->count();
}

Status SessionManager::Pause(SessionId session) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (record.paused) {
    return Status::FailedPrecondition("session already paused");
  }
  // A paused stream sends nothing: give its resources back.
  if (record.reservation != res::kInvalidReservationId) {
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
    record.reservation = res::kInvalidReservationId;
  }
  PinVdbms(record, -1);
  simulator_->Cancel(record.completion_event);
  record.completion_event = sim::kInvalidEventId;
  record.remaining_at_pause = record.expected_end - simulator_->Now();
  record.paused = true;
  metrics_.paused->Increment();
  if (record.trace_track != 0) {
    tracer_.Begin(record.trace_track, "session.paused", simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Resume(SessionId session) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (!record.paused) {
    return Status::FailedPrecondition("session is not paused");
  }
  // Re-admission: the released resources must still be available.
  if (!record.reserved_vector.empty()) {
    Result<res::ReservationId> reservation =
        qos_api_->Reserve(record.reserved_vector);
    if (!reservation.ok()) {
      metrics_.resume_failed->Increment();
      if (record.trace_track != 0) {
        tracer_.Instant(record.trace_track, "session.resume_failed",
                        simulator_->Now());
      }
      return reservation.status();
    }
    record.reservation = *reservation;
  }
  PinVdbms(record, +1);
  record.paused = false;
  record.expected_end = simulator_->Now() + record.remaining_at_pause;
  record.completion_event = ScheduleCompletion(record.expected_end, session);
  metrics_.resumed->Increment();
  if (record.trace_track != 0) {
    // Closes the session.paused span opened by Pause.
    tracer_.End(record.trace_track, simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Cancel(SessionId session) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  const Record& record = it->second;
  if (record.reservation != res::kInvalidReservationId) {
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
  }
  // Paused sessions already returned their resources.
  if (!record.paused) PinVdbms(record, -1);
  const SimTime now = simulator_->Now();
  if (record.trace_track != 0) {
    tracer_.Instant(record.trace_track, "session.cancelled", now);
    tracer_.EndAll(record.trace_track, now);
  }
  sessions_.erase(it);
  --outstanding_;
  metrics_.cancelled->Increment();
  SampleActive(now);
  return Status::Ok();
}

Status SessionManager::AdoptRenegotiatedPlan(SessionId session,
                                             res::ReservationId replanned,
                                             SiteId delivery_site,
                                             const ResourceVector& resources) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (record.reservation != replanned) {
    return Status::Aborted("session paused or resumed during the replan");
  }
  record.site = delivery_site;
  record.reserved_vector = resources;
  return Status::Ok();
}

void SessionManager::Complete(SessionId id) {
  SimTime completed_at = 0;
  {
    MutexLock lock(&mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;  // cancelled earlier
    const Record& record = it->second;
    if (record.reservation != res::kInvalidReservationId) {
      Status status = qos_api_->Release(record.reservation);
      assert(status.ok());
      (void)status;
    }
    if (!record.paused) PinVdbms(record, -1);
    completed_at = simulator_->Now();
    metrics_.completed->Increment();
    metrics_.duration_seconds->Observe(
        SimTimeToSeconds(completed_at - record.start));
    if (record.trace_track != 0) {
      // Closes session.stream (and a dangling session.paused, if the
      // caller completed a paused session) plus the delivery root span.
      tracer_.EndAll(record.trace_track, completed_at);
    }
    sessions_.erase(it);
    --outstanding_;
    SampleActive(completed_at);
  }
  // Invoke outside every lock: the facade's completion hook (and user
  // callbacks behind it) may re-enter this manager, e.g. to cancel or
  // start a follow-up session.
  on_complete_(id, completed_at);
}

}  // namespace quasaq::core
