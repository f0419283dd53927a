#ifndef QUASAQ_CACHE_SEGMENT_CACHE_H_
#define QUASAQ_CACHE_SEGMENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/sync.h"
#include "cache/eviction.h"
#include "cache/segment.h"
#include "obs/metrics.h"

// One site's in-memory segment cache. Streamed segments pass through the
// cache read-through style: a resident segment is served from memory (a
// hit), a missing one is read from disk and filled in, evicting the
// policy's lowest-scored segments until it fits. All timing comes from
// the caller-supplied simulated clock, so cache contents — and therefore
// hit/miss sequences — are a deterministic function of the access
// sequence.
//
// Thread-safe: this is the per-site lock of the cache subsystem. One
// mutex guards the segment table and the per-replica byte accounting,
// and every counter is bumped under it, so concurrent readers, fills,
// and evictions on one site serialize here while different sites
// proceed in parallel (CacheManager holds no lock of its own).
// SegmentCache::mu_ is a leaf lock: nothing else is acquired while it is
// held.

namespace quasaq::cache {

class SegmentCache {
 public:
  struct Options {
    // Memory budget for cached segments, KB.
    double capacity_kb = 256.0 * 1024.0;
    // Eviction policy name (see MakeEvictionPolicy): "lru" or "utility".
    std::string policy = "utility";
    // Idle time that halves a segment's stored access mass.
    SimTime popularity_half_life = 120 * kSecond;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    // A segment larger than the whole cache is never admitted.
    uint64_t rejected = 0;
    double hit_kb = 0.0;
    double miss_kb = 0.0;
    double inserted_kb = 0.0;
    double evicted_kb = 0.0;

    double HitRatio() const {
      uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  /// Counts into `metrics` as a series labeled site=`site_label`
  /// (normally the site id); counters() reads those series back, so no
  /// other cache may share the label in `metrics`. The registry must
  /// outlive the cache.
  SegmentCache(const Options& options, obs::MetricsRegistry& metrics,
               std::string_view site_label);
  /// Test seam: takes an explicit policy instance.
  SegmentCache(const Options& options,
               std::unique_ptr<EvictionPolicy> policy,
               obs::MetricsRegistry& metrics, std::string_view site_label);

  /// The streaming read path: returns true (a hit) when `key` is
  /// resident, touching its recency/popularity; on a miss the segment is
  /// filled in (unless larger than the cache), evicting as needed. All
  /// counters are charged.
  bool Access(const SegmentKey& key, double size_kb, SimTime now)
      QUASAQ_EXCLUDES(mu_);

  /// Inserts without hit/miss accounting (warm-up / prefetch). Returns
  /// false when the segment cannot be admitted. Re-inserting a resident
  /// segment only touches it.
  bool Insert(const SegmentKey& key, double size_kb, SimTime now)
      QUASAQ_EXCLUDES(mu_);

  /// Residency check with no side effects (the planner's admission-time
  /// peek must not distort recency or the hit ratio).
  bool Contains(const SegmentKey& key) const QUASAQ_EXCLUDES(mu_);

  /// Drops one segment if resident.
  void Erase(const SegmentKey& key) QUASAQ_EXCLUDES(mu_);

  /// Invalidates every segment of `replica` (e.g. after the replica is
  /// evicted from storage). Returns the number of segments dropped.
  /// Not charged as evictions — nothing was displaced by pressure.
  size_t EraseReplica(PhysicalOid replica) QUASAQ_EXCLUDES(mu_);

  /// Total resident KB of `replica`'s segments.
  double CachedKbOf(PhysicalOid replica) const QUASAQ_EXCLUDES(mu_);

  /// Number of resident segments of `replica`.
  int CachedSegmentsOf(PhysicalOid replica) const QUASAQ_EXCLUDES(mu_);

  double used_kb() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return used_kb_;
  }
  double capacity_kb() const { return options_.capacity_kb; }
  size_t segment_count() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return segments_.size();
  }
  /// Snapshot of the counters, read under mu_ so the fields agree.
  Counters counters() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return CountersLocked();
  }
  std::string_view policy_name() const { return policy_->name(); }

  /// One-line operator report: policy, fill, hit ratio.
  std::string ReportString() const QUASAQ_EXCLUDES(mu_);

 private:
  // Registry handles, resolved once at construction. Bumped under mu_ —
  // the registry's locks are leaves, consistent with mu_ being
  // otherwise leaf-level.
  struct Metrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* inserts;
    obs::Counter* evictions;
    obs::Counter* rejected;
    obs::Counter* hit_kb;
    obs::Counter* miss_kb;
    obs::Counter* evicted_kb;
    obs::Gauge* used_kb;
  };
  static Metrics ResolveMetrics(obs::MetricsRegistry& registry,
                                std::string_view site_label);

  Counters CountersLocked() const QUASAQ_REQUIRES(mu_);

  void Touch(SegmentMeta& meta, SimTime now) QUASAQ_REQUIRES(mu_);
  // Evicts lowest-scored segments until `needed_kb` fits. Returns false
  // when the cache cannot make enough room (needed_kb > capacity).
  bool EvictFor(double needed_kb, SimTime now) QUASAQ_REQUIRES(mu_);
  // Lock-assuming body of Insert, shared with the Access miss path.
  bool InsertLocked(const SegmentKey& key, double size_kb, SimTime now)
      QUASAQ_REQUIRES(mu_);

  Options options_;                         // immutable after construction
  std::unique_ptr<EvictionPolicy> policy_;  // immutable after construction
  const Metrics metrics_;                   // immutable after construction
  mutable Mutex mu_;
  std::unordered_map<SegmentKey, SegmentMeta> segments_
      QUASAQ_GUARDED_BY(mu_);
  // Resident KB per replica, for O(1) warmth lookups by the planner.
  std::unordered_map<PhysicalOid, double> replica_kb_ QUASAQ_GUARDED_BY(mu_);
  std::unordered_map<PhysicalOid, int> replica_segments_
      QUASAQ_GUARDED_BY(mu_);
  double used_kb_ QUASAQ_GUARDED_BY(mu_) = 0.0;
  // The one Counters field with no exported series.
  double inserted_kb_ QUASAQ_GUARDED_BY(mu_) = 0.0;
};

}  // namespace quasaq::cache

#endif  // QUASAQ_CACHE_SEGMENT_CACHE_H_
