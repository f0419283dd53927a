#ifndef QUASAQ_CORE_SESSION_MANAGER_H_
#define QUASAQ_CORE_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/ids.h"
#include "common/resource_vector.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/observability.h"
#include "resource/composite_api.h"
#include "simcore/simulator.h"

// Session lifecycle layer, extracted from the MediaDbSystem facade: owns
// the session table and every piece of per-session bookkeeping —
// timed completion events, expected-end times, reservation handles and
// their resource vectors (for re-admission on resume), pause/resume
// state, and the per-site bitrate pinning the plain-VDBMS configuration
// uses in place of reservations (counted in the same integer ledger
// units as the resource pool, so pins unwind to exactly zero). The
// facade decides *what* to deliver (per system kind) and hands the
// resulting record to this manager, which alone decides *when*
// resources are released: exactly once, at completion, cancellation,
// or pause.
//
// Thread-safe: one annotated Mutex (mu_) guards the whole table, so
// concurrent lifecycle calls serialize and the release-exactly-once
// invariant holds under any interleaving. Session IDs are dense: 1, 2,
// 3, ... in Start order. The simulator's event queue is mutated only
// under mu_ (completion scheduling and cancellation happen inside the
// lifecycle calls that hold it) — but *driving* the simulator
// (Step/RunAll) must not overlap with session calls from other threads;
// the clock itself stays single-threaded. Lock order:
// SessionManager::mu_ → CompositeQosApi::mu_ → ResourcePool::mu_
// (docs/ARCHITECTURE.md "Threading model"). The observability handles
// and the completion callback are fixed at construction.

namespace quasaq::core {

class SessionManager {
 public:
  struct Record {
    LogicalOid content;
    SimTime start = 0;
    res::ReservationId reservation = res::kInvalidReservationId;
    double vdbms_kbps = 0.0;  // bitrate pinned on `site` (VDBMS only)
    // `vdbms_kbps` in ledger units (common/resource_vector.h), fixed by
    // Start: unpinning subtracts exactly what pinning added, in any
    // order.
    int64_t vdbms_pin = 0;
    SiteId site;
    // Pause/resume bookkeeping.
    sim::EventId completion_event = sim::kInvalidEventId;
    SimTime expected_end = 0;
    bool paused = false;
    SimTime remaining_at_pause = 0;
    ResourceVector reserved_vector;  // for re-admission on resume
    // Trace track (Tracer::NewTrack) this delivery's spans render on;
    // 0 when tracing is off.
    int64_t trace_track = 0;
  };

  using CompleteCallback = std::function<void(SessionId, SimTime)>;

  /// Counts lifecycle events, samples the active/peak gauges and the
  /// duration histogram into `observability`, and emits spans on each
  /// record's trace track. `on_complete` runs after every completion,
  /// outside the manager's lock. The pointers and `observability` must
  /// outlive the manager.
  SessionManager(sim::Simulator* simulator, res::CompositeQosApi* qos_api,
                 obs::Observability& observability,
                 CompleteCallback on_complete);

  /// Registers a delivery and schedules its completion. Captures the
  /// reservation's resource vector (when one is held) so resume can
  /// re-admit it, and pins `record.vdbms_kbps` on the record's site.
  SessionId Start(Record record, double duration_seconds);

  /// Pauses a running session. Its reserved resources are released
  /// while paused (a paused stream sends nothing); playback time stops
  /// accruing.
  Status Pause(SessionId session);

  /// Resumes a paused session — effectively a renegotiation, since the
  /// released resources must be re-admitted. Fails with
  /// kResourceExhausted when the system can no longer carry the stream;
  /// the session then stays paused, its resources still released.
  Status Resume(SessionId session);

  /// Aborts a session early, releasing whatever it still holds.
  Status Cancel(SessionId session);

  /// Re-points a session at a renegotiated delivery: the new delivery
  /// site and the resource vector resume must re-admit. The reservation
  /// handle itself is unchanged (renegotiation swaps it in place); for
  /// paused sessions nothing is acquired until Resume.
  Status AdoptRenegotiatedPlan(SessionId session, SiteId delivery_site,
                               const ResourceVector& resources);

  /// Copy of the session's record, or nullopt.
  std::optional<Record> Snapshot(SessionId session) const;

  /// Active VDBMS-pinned bitrate currently streaming from `site`.
  double vdbms_active_kbps(SiteId site) const;

  /// Sessions currently streaming or paused.
  int outstanding() const;
  /// Sessions that ran to completion (quasaq_session_completed_total).
  uint64_t completed() const;

 private:
  // Registry handles, resolved once at construction.
  struct Metrics {
    obs::Counter* started;
    obs::Counter* completed;
    obs::Counter* cancelled;
    obs::Counter* paused;
    obs::Counter* resumed;
    obs::Counter* resume_failed;
    obs::Histogram* duration_seconds;
    obs::Gauge* active;
    obs::Gauge* peak;
  };
  static Metrics ResolveMetrics(obs::MetricsRegistry& registry);

  // Samples the active-session gauge (and bumps the peak) after Start,
  // Cancel and Complete change the count.
  void SampleActive(SimTime now) QUASAQ_REQUIRES(mu_);
  void Complete(SessionId id);
  // Adds (`sign` = +1) or returns (-1) the session's pinned VDBMS
  // bitrate on its site; no-op for reservation-backed sessions.
  void PinVdbms(const Record& record, int sign) QUASAQ_REQUIRES(mu_);
  sim::EventId ScheduleCompletion(SimTime at, SessionId id)
      QUASAQ_REQUIRES(mu_);

  // Guards the table and the simulator: every call into the simulator
  // (clock reads, scheduling, cancellation) runs under it. Counters and
  // spans are emitted while mu_ is held; the obs mutexes are strict
  // leaves in the lock order, below ResourcePool::mu_.
  mutable Mutex mu_;
  // Set at construction and never reassigned.
  sim::Simulator* simulator_ QUASAQ_PT_GUARDED_BY(mu_);
  res::CompositeQosApi* qos_api_;
  const Metrics metrics_;
  obs::Tracer& tracer_;
  const CompleteCallback on_complete_;

  int64_t next_id_ QUASAQ_GUARDED_BY(mu_) = 1;
  int outstanding_ QUASAQ_GUARDED_BY(mu_) = 0;
  std::unordered_map<SessionId, Record> sessions_ QUASAQ_GUARDED_BY(mu_);
  std::unordered_map<SiteId, int64_t> vdbms_site_pins_ QUASAQ_GUARDED_BY(mu_);
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_SESSION_MANAGER_H_
