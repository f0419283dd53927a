#ifndef QUASAQ_RESOURCE_COMPOSITE_API_H_
#define QUASAQ_RESOURCE_COMPOSITE_API_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/resource_vector.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "resource/pool.h"

// Composite QoS API (paper §3.5): the single entry point that hides the
// per-resource managers (CPU / network / disk, GARA-style) behind one
// interface offering the three operations QoS control needs —
// admission control, resource reservation, and renegotiation.
// Reservations are all-or-nothing across every bucket a plan touches.
//
// Thread-safe: one mutex guards the reservation table and the per-kind
// admission/denial statistics. The pool's own leaf lock is acquired
// while this one is held (lock order: CompositeQosApi::mu_ →
// ResourcePool::mu_, see docs/ARCHITECTURE.md), which keeps
// release-then-acquire renegotiation atomic with respect to other
// reservations.

namespace quasaq::res {

using ReservationId = int64_t;
inline constexpr ReservationId kInvalidReservationId = 0;

class CompositeQosApi {
 public:
  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t released = 0;
    uint64_t renegotiations = 0;
    uint64_t renegotiation_failures = 0;
  };

  // Per-resource-kind accounting, mirroring GARA's per-resource managers
  // (CPU / network / disk / memory each with its own manager): how often
  // each kind was requested and how often it was the one that vetoed an
  // admission — i.e. which resource is the system's bottleneck.
  struct KindStats {
    uint64_t requests = 0;
    uint64_t denials = 0;
  };

  /// Counts reservation accept/reject/release/renegotiate into
  /// `metrics`; stats() reads those counters back. `pool` and `metrics`
  /// must outlive the API object.
  CompositeQosApi(ResourcePool* pool, obs::MetricsRegistry& metrics);

  /// Admission control: true when `demand` fits the current system
  /// status without reserving anything.
  bool Admissible(const ResourceVector& demand) const;

  /// Reserves `demand` for the lifetime of a delivery job. On success
  /// the buckets are charged and a reservation handle is returned.
  Result<ReservationId> Reserve(const ResourceVector& demand)
      QUASAQ_EXCLUDES(mu_);

  /// Releases a reservation completely.
  Status Release(ReservationId id) QUASAQ_EXCLUDES(mu_);

  /// Renegotiation: atomically replaces the reservation's demand with
  /// `new_demand` (used when the user changes QoS mid-playback or a
  /// degraded plan is adopted). On failure the old reservation stands.
  Status Renegotiate(ReservationId id, const ResourceVector& new_demand)
      QUASAQ_EXCLUDES(mu_);

  /// Returns the reserved vector for `id`, or nullptr. The pointee is
  /// stable until the reservation is released or renegotiated; callers
  /// that cannot rule out a concurrent release must copy immediately.
  const ResourceVector* Find(ReservationId id) const QUASAQ_EXCLUDES(mu_);

  size_t active_reservations() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return reservations_.size();
  }
  /// The exported reservation counters, read under mu_ so the fields
  /// agree with each other.
  Stats stats() const QUASAQ_EXCLUDES(mu_);
  KindStats kind_stats(ResourceKind kind) const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return kind_stats_[static_cast<size_t>(kind)];
  }
  const ResourcePool& pool() const { return *pool_; }

  /// The resource kind that vetoed the most reservations so far, or
  /// empty when nothing has been denied — the operator's first answer
  /// to "what do we buy more of?".
  std::string BottleneckReport() const QUASAQ_EXCLUDES(mu_);

 private:
  // Registry handles, resolved once at construction. Bumped under mu_ —
  // the registry's locks are leaves.
  struct Metrics {
    obs::Counter* reserve_accepted;
    obs::Counter* reserve_rejected;
    obs::Counter* released;
    obs::Counter* renegotiate_accepted;
    obs::Counter* renegotiate_rejected;
  };
  static Metrics ResolveMetrics(obs::MetricsRegistry& registry);

  // Charges per-kind request/denial accounting for one attempt;
  // `overflowing` is what the pool's Acquire reported as not fitting.
  void AccountAttempt(const ResourceVector& demand,
                      const std::vector<BucketId>& overflowing)
      QUASAQ_REQUIRES(mu_);

  ResourcePool* pool_;     // set at construction, never reassigned
  const Metrics metrics_;  // set at construction, never reassigned
  mutable Mutex mu_;
  ReservationId next_id_ QUASAQ_GUARDED_BY(mu_) = 1;
  std::unordered_map<ReservationId, ResourceVector> reservations_
      QUASAQ_GUARDED_BY(mu_);
  KindStats kind_stats_[kNumResourceKinds] QUASAQ_GUARDED_BY(mu_) = {};
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_COMPOSITE_API_H_
