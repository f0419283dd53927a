#include "cache/cache_manager.h"

#include <cstdio>

namespace quasaq::cache {

CacheManager::CacheManager(const std::vector<SiteId>& sites,
                           const Options& options,
                           obs::MetricsRegistry& metrics)
    : sites_(sites), options_(options) {
  caches_.reserve(sites_.size());
  for (SiteId site : sites_) {
    caches_.push_back(std::make_unique<SegmentCache>(
        options_.cache, metrics, std::to_string(site.value())));
  }
}

SegmentCache* CacheManager::at(SiteId site) {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == site) return caches_[i].get();
  }
  return nullptr;
}

const SegmentCache* CacheManager::at(SiteId site) const {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == site) return caches_[i].get();
  }
  return nullptr;
}

double CacheManager::CachedFraction(
    SiteId site, const media::ReplicaInfo& replica) const {
  const SegmentCache* cache = at(site);
  if (cache == nullptr) return 0.0;
  double cached_kb = cache->CachedKbOf(replica.id);
  if (cached_kb <= 0.0) return 0.0;
  SegmentLayout layout = SegmentLayout::For(replica, options_.layout);
  if (layout.total_kb() <= 0.0) return 0.0;
  double fraction = cached_kb / layout.total_kb();
  return fraction > 1.0 ? 1.0 : fraction;
}

void CacheManager::OnStream(SiteId site, const media::ReplicaInfo& replica,
                            SimTime now) {
  SegmentCache* cache = at(site);
  if (cache == nullptr) return;
  SegmentLayout layout = SegmentLayout::For(replica, options_.layout);
  for (int i = 0; i < layout.num_segments(); ++i) {
    cache->Access(SegmentKey{replica.id, i}, layout.SegmentKb(i), now);
  }
}

void CacheManager::EraseReplica(PhysicalOid replica) {
  for (auto& cache : caches_) cache->EraseReplica(replica);
}

SegmentCache::Counters CacheManager::TotalCounters() const {
  SegmentCache::Counters total;
  for (const auto& cache : caches_) {
    const SegmentCache::Counters c = cache->counters();
    total.hits += c.hits;
    total.misses += c.misses;
    total.inserts += c.inserts;
    total.evictions += c.evictions;
    total.rejected += c.rejected;
    total.hit_kb += c.hit_kb;
    total.miss_kb += c.miss_kb;
    total.inserted_kb += c.inserted_kb;
    total.evicted_kb += c.evicted_kb;
  }
  return total;
}

std::string CacheManager::ReportString() const {
  std::string out;
  for (size_t i = 0; i < sites_.size(); ++i) {
    out += "site" + std::to_string(sites_[i].value()) + " " +
           caches_[i]->ReportString() + "\n";
  }
  SegmentCache::Counters total = TotalCounters();
  char buf[120];
  std::snprintf(buf, sizeof(buf),
                "cache total: hit ratio %.2f, %.0f KB served from memory",
                total.HitRatio(), total.hit_kb);
  out += buf;
  return out;
}

}  // namespace quasaq::cache
