#ifndef QUASAQ_METADATA_DISTRIBUTED_ENGINE_H_
#define QUASAQ_METADATA_DISTRIBUTED_ENGINE_H_

#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/sync.h"
#include "media/library.h"
#include "metadata/metadata_store.h"
#include "metadata/qos_profile.h"

// Distributed Metadata Engine (paper §3.3): metadata is partitioned
// across sites by logical OID ("distributed in various locations
// enabling ease of use and migration") and non-local accesses are
// accelerated by a per-site LRU cache of metadata bundles. Accesses
// report a simulated latency so callers can charge metadata I/O to the
// plan-generation path.
//
// Population: Load brings the offline catalog in (§3.3: contents,
// replicas and their sampled QoS profiles) in one pass, with every
// table sized up front. It skips cache invalidation, so it is only
// valid while no reader exists and every site's cache is empty (it
// asserts the latter). The per-row Insert*/Erase*/SetQosProfile are the
// runtime path (dynamic replication, catalog snapshots): they append
// through the same row code as Load and then invalidate the cached
// bundle of the object at every site.
//
// Thread-safety: the read path (FindContent/ReplicasOf/FindQosProfile)
// mutates the accessing site's LRU cache and counters, so each site's
// cache + stats sit behind their own leaf Mutex — concurrent admissions
// from different sites never contend, same-site accesses serialize.
// Population and erasure (Load/Insert*/Erase*/SetQosProfile) write the
// unguarded stores and physical directory; they are construction-time /
// simulator-driven operations and must not overlap with concurrent
// reads (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::meta {

// All metadata of one logical object, copied as a unit between sites.
struct MetadataBundle {
  media::VideoContent content;
  std::vector<media::ReplicaInfo> replicas;
  std::vector<std::pair<PhysicalOid, QosProfile>> profiles;
};

class DistributedMetadataEngine {
 public:
  struct Options {
    // Cached remote bundles per site; 0 disables caching.
    size_t cache_capacity = 256;
    SimTime local_access_latency = 50 * kMicrosecond;
    SimTime remote_access_latency = 2 * kMillisecond;
  };

  struct AccessStats {
    uint64_t local_accesses = 0;
    uint64_t cache_hits = 0;
    uint64_t remote_accesses = 0;
  };

  DistributedMetadataEngine(std::vector<SiteId> sites,
                            const Options& options);

  // --- Population (routed to the owning site's store) ----------------

  /// Loads `catalog` in one pass: every content, then every replica
  /// with the profile `sampler` draws for it, in catalog order. Only
  /// valid before the first read (see the class comment). Stops at the
  /// first row the per-row Insert* would reject, with its status.
  Status Load(const media::VideoLibrary& catalog, QosSampler& sampler);

  Status InsertContent(const media::VideoContent& content);
  Status InsertReplica(const media::ReplicaInfo& replica);
  Status SetQosProfile(PhysicalOid id, const QosProfile& profile);

  /// Unregisters a replica (e.g. after eviction/migration); cached
  /// copies at every site are invalidated.
  Status EraseReplica(PhysicalOid id);

  /// Unregisters a logical object, cascading to its replicas and
  /// profiles; cached copies at every site are invalidated.
  Status EraseContent(LogicalOid id);

  // --- Access from a site ---------------------------------------------
  // Each accessor simulates the lookup as seen from `from`: a local read
  // when the metadata is owned there, a cache hit, or a remote fetch
  // that populates the cache. When `latency` is non-null the simulated
  // access latency is added to it.

  std::optional<media::VideoContent> FindContent(SiteId from, LogicalOid id,
                                                 SimTime* latency = nullptr);
  std::vector<media::ReplicaInfo> ReplicasOf(SiteId from, LogicalOid id,
                                             SimTime* latency = nullptr);
  std::optional<QosProfile> FindQosProfile(SiteId from, PhysicalOid id,
                                           SimTime* latency = nullptr);

  /// Returns every registered logical OID (union over sites).
  std::vector<LogicalOid> AllContentIds() const;

  /// Returns the site owning the metadata of `id`.
  SiteId OwnerOf(LogicalOid id) const;

  /// Snapshot of the site's access counters (copied under its lock).
  AccessStats stats_for(SiteId site) const;

 private:
  struct SiteCache {
    // LRU over logical OIDs; front = most recent.
    std::list<LogicalOid> order;
    std::unordered_map<LogicalOid,
                       std::pair<std::list<LogicalOid>::iterator,
                                 MetadataBundle>>
        entries;
  };

  // One site's mutable read-path state. Heap-allocated so the Mutex
  // address stays stable in the vector.
  struct SiteState {
    mutable Mutex mu;
    SiteCache cache QUASAQ_GUARDED_BY(mu);
    AccessStats stats QUASAQ_GUARDED_BY(mu);
  };

  size_t SiteIndex(SiteId site) const;
  // Index (into sites_ and stores_) of the site owning `id`.
  size_t OwnerIndex(LogicalOid id) const;
  MetadataStore& OwnerStore(LogicalOid id);
  // Directory position of physical OID `id`, or directory_.size().
  size_t DirectoryPos(PhysicalOid id) const;
  // The row code Load and InsertReplica share: registers `replica` (and
  // its profile) at its owner and in the directory, without touching
  // any cache.
  Status AppendReplica(const media::ReplicaInfo& replica,
                       const std::optional<QosProfile>& profile);
  bool CachesEmpty() const;
  // Fetches the bundle as seen from `from` (whose state is `state`),
  // tracking stats and latency. The returned pointer aims into the
  // site's cache and is only valid while the lock is held.
  const MetadataBundle* FetchBundle(SiteState& state, SiteId from,
                                    LogicalOid id, SimTime* latency)
      QUASAQ_REQUIRES(state.mu);
  MetadataBundle BuildBundle(const MetadataStore& store, LogicalOid id) const;
  void InvalidateCaches(LogicalOid id);

  std::vector<SiteId> sites_;
  Options options_;
  std::vector<MetadataStore> stores_;  // one per site
  std::vector<std::unique_ptr<SiteState>> site_states_;  // one per site
  // Physical OID -> logical OID of every registered replica, sorted by
  // physical OID: finds the owner of a replica-level request.
  std::vector<std::pair<PhysicalOid, LogicalOid>> directory_;
};

}  // namespace quasaq::meta

#endif  // QUASAQ_METADATA_DISTRIBUTED_ENGINE_H_
