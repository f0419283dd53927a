#include "cache/segment_cache.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace quasaq::cache {

SegmentCache::SegmentCache(const Options& options,
                           obs::MetricsRegistry& metrics,
                           std::string_view site_label)
    : SegmentCache(options, MakeEvictionPolicy(options.policy), metrics,
                   site_label) {}

SegmentCache::SegmentCache(const Options& options,
                           std::unique_ptr<EvictionPolicy> policy,
                           obs::MetricsRegistry& metrics,
                           std::string_view site_label)
    : options_(options),
      policy_(std::move(policy)),
      metrics_(ResolveMetrics(metrics, site_label)) {
  assert(policy_ != nullptr && "unknown eviction policy name");
  assert(options_.capacity_kb > 0.0);
}

SegmentCache::Metrics SegmentCache::ResolveMetrics(
    obs::MetricsRegistry& registry, std::string_view site_label) {
  const obs::Labels labels = {{"site", std::string(site_label)}};
  return Metrics{
      registry.GetCounter("quasaq_cache_hits_total",
                          "Segment reads served from memory", labels),
      registry.GetCounter("quasaq_cache_misses_total",
                          "Segment reads that went to disk", labels),
      registry.GetCounter("quasaq_cache_inserts_total",
                          "Segments filled into the cache", labels),
      registry.GetCounter("quasaq_cache_evictions_total",
                          "Segments displaced by pressure", labels),
      registry.GetCounter("quasaq_cache_rejected_total",
                          "Segments never admitted (larger than the cache)",
                          labels),
      registry.GetCounter("quasaq_cache_hit_kb_total",
                          "KB served from memory", labels),
      registry.GetCounter("quasaq_cache_miss_kb_total", "KB read from disk",
                          labels),
      registry.GetCounter("quasaq_cache_evicted_kb_total",
                          "KB displaced by pressure", labels),
      registry.GetGauge("quasaq_cache_used_kb",
                        "Resident KB of cached segments", labels),
  };
}

SegmentCache::Counters SegmentCache::CountersLocked() const {
  Counters counters;
  counters.hits = metrics_.hits->count();
  counters.misses = metrics_.misses->count();
  counters.inserts = metrics_.inserts->count();
  counters.evictions = metrics_.evictions->count();
  counters.rejected = metrics_.rejected->count();
  counters.hit_kb = metrics_.hit_kb->value();
  counters.miss_kb = metrics_.miss_kb->value();
  counters.inserted_kb = inserted_kb_;
  counters.evicted_kb = metrics_.evicted_kb->value();
  return counters;
}

void SegmentCache::Touch(SegmentMeta& meta, SimTime now) {
  if (options_.popularity_half_life > 0 && now > meta.last_access) {
    double idle_half_lives =
        static_cast<double>(now - meta.last_access) /
        static_cast<double>(options_.popularity_half_life);
    meta.popularity *= std::exp2(-idle_half_lives);
  }
  meta.popularity += 1.0;
  meta.last_access = now;
  ++meta.access_count;
}

bool SegmentCache::EvictFor(double needed_kb, SimTime now) {
  if (needed_kb > options_.capacity_kb) return false;
  while (used_kb_ + needed_kb > options_.capacity_kb) {
    // Lowest retention score goes first; ties break on the key so the
    // victim never depends on hash-map iteration order.
    const SegmentMeta* victim = nullptr;
    double victim_score = 0.0;
    for (const auto& [key, meta] : segments_) {
      double score = policy_->Score(meta, now);
      if (victim == nullptr || score < victim_score ||
          (score == victim_score && key < victim->key)) {
        victim = &meta;
        victim_score = score;
      }
    }
    if (victim == nullptr) return false;  // empty yet still no room
    const SegmentKey victim_key = victim->key;
    const double victim_kb = victim->size_kb;
    metrics_.evictions->Increment();
    metrics_.evicted_kb->Increment(victim_kb);
    used_kb_ -= victim_kb;
    double& replica_kb = replica_kb_[victim_key.replica];
    replica_kb = std::max(0.0, replica_kb - victim_kb);
    --replica_segments_[victim_key.replica];
    segments_.erase(victim_key);
  }
  return true;
}

bool SegmentCache::Insert(const SegmentKey& key, double size_kb,
                          SimTime now) {
  MutexLock lock(&mu_);
  return InsertLocked(key, size_kb, now);
}

bool SegmentCache::InsertLocked(const SegmentKey& key, double size_kb,
                                SimTime now) {
  assert(size_kb >= 0.0);
  auto it = segments_.find(key);
  if (it != segments_.end()) {
    Touch(it->second, now);
    return true;
  }
  if (size_kb > options_.capacity_kb || !EvictFor(size_kb, now)) {
    metrics_.rejected->Increment();
    return false;
  }
  SegmentMeta meta;
  meta.key = key;
  meta.size_kb = size_kb;
  meta.inserted = now;
  meta.last_access = now;
  meta.access_count = 1;
  meta.popularity = 1.0;
  segments_.emplace(key, meta);
  used_kb_ += size_kb;
  replica_kb_[key.replica] += size_kb;
  ++replica_segments_[key.replica];
  inserted_kb_ += size_kb;
  metrics_.inserts->Increment();
  metrics_.used_kb->Sample(now, used_kb_);
  return true;
}

bool SegmentCache::Access(const SegmentKey& key, double size_kb,
                          SimTime now) {
  MutexLock lock(&mu_);
  auto it = segments_.find(key);
  if (it != segments_.end()) {
    metrics_.hits->Increment();
    metrics_.hit_kb->Increment(it->second.size_kb);
    Touch(it->second, now);
    return true;
  }
  metrics_.misses->Increment();
  metrics_.miss_kb->Increment(size_kb);
  InsertLocked(key, size_kb, now);
  return false;
}

bool SegmentCache::Contains(const SegmentKey& key) const {
  MutexLock lock(&mu_);
  return segments_.find(key) != segments_.end();
}

void SegmentCache::Erase(const SegmentKey& key) {
  MutexLock lock(&mu_);
  auto it = segments_.find(key);
  if (it == segments_.end()) return;
  used_kb_ -= it->second.size_kb;
  double& replica_kb = replica_kb_[key.replica];
  replica_kb = std::max(0.0, replica_kb - it->second.size_kb);
  --replica_segments_[key.replica];
  segments_.erase(it);
}

size_t SegmentCache::EraseReplica(PhysicalOid replica) {
  MutexLock lock(&mu_);
  size_t dropped = 0;
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->first.replica == replica) {
      used_kb_ -= it->second.size_kb;
      it = segments_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  replica_kb_.erase(replica);
  replica_segments_.erase(replica);
  if (used_kb_ < 0.0) used_kb_ = 0.0;
  return dropped;
}

double SegmentCache::CachedKbOf(PhysicalOid replica) const {
  MutexLock lock(&mu_);
  auto it = replica_kb_.find(replica);
  return it != replica_kb_.end() ? it->second : 0.0;
}

int SegmentCache::CachedSegmentsOf(PhysicalOid replica) const {
  MutexLock lock(&mu_);
  auto it = replica_segments_.find(replica);
  return it != replica_segments_.end() ? it->second : 0;
}

std::string SegmentCache::ReportString() const {
  MutexLock lock(&mu_);
  const Counters counters = CountersLocked();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "cache[%s]: %.0f/%.0f KB in %zu segments, hits=%llu "
                "misses=%llu (ratio %.2f) evicted=%.0f KB",
                std::string(policy_->name()).c_str(), used_kb_,
                options_.capacity_kb, segments_.size(),
                static_cast<unsigned long long>(counters.hits),
                static_cast<unsigned long long>(counters.misses),
                counters.HitRatio(), counters.evicted_kb);
  return std::string(buf);
}

}  // namespace quasaq::cache
