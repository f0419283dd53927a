#include "metadata/distributed_engine.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace quasaq::meta {

DistributedMetadataEngine::DistributedMetadataEngine(std::vector<SiteId> sites,
                                                     const Options& options)
    : sites_(std::move(sites)), options_(options) {
  assert(!sites_.empty());
  stores_.resize(sites_.size());
  site_states_.reserve(sites_.size());
  for (size_t i = 0; i < sites_.size(); ++i) {
    site_states_.push_back(std::make_unique<SiteState>());
  }
}

size_t DistributedMetadataEngine::SiteIndex(SiteId site) const {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == site) return i;
  }
  assert(false && "unknown site");
  return 0;
}

size_t DistributedMetadataEngine::OwnerIndex(LogicalOid id) const {
  return static_cast<size_t>(id.value()) % sites_.size();
}

SiteId DistributedMetadataEngine::OwnerOf(LogicalOid id) const {
  return sites_[OwnerIndex(id)];
}

MetadataStore& DistributedMetadataEngine::OwnerStore(LogicalOid id) {
  return stores_[OwnerIndex(id)];
}

namespace {

bool DirectoryBefore(const std::pair<PhysicalOid, LogicalOid>& entry,
                     PhysicalOid id) {
  return entry.first < id;
}

}  // namespace

size_t DistributedMetadataEngine::DirectoryPos(PhysicalOid id) const {
  auto it = std::lower_bound(directory_.begin(), directory_.end(), id,
                             DirectoryBefore);
  return it != directory_.end() && it->first == id
             ? static_cast<size_t>(it - directory_.begin())
             : directory_.size();
}

bool DistributedMetadataEngine::CachesEmpty() const {
  for (const std::unique_ptr<SiteState>& state : site_states_) {
    MutexLock lock(&state->mu);
    if (!state->cache.entries.empty()) return false;
  }
  return true;
}

Status DistributedMetadataEngine::Load(const media::VideoLibrary& catalog,
                                       QosSampler& sampler) {
  // No cache holds a bundle the load could make stale, and no reader can
  // start one while it runs.
  assert(CachesEmpty());
  std::vector<std::pair<size_t, size_t>> rows(stores_.size());
  for (const media::VideoContent& content : catalog.contents) {
    ++rows[OwnerIndex(content.id)].first;
  }
  for (const media::ReplicaInfo& replica : catalog.replicas) {
    ++rows[OwnerIndex(replica.content)].second;
  }
  for (size_t i = 0; i < stores_.size(); ++i) {
    stores_[i].Reserve(rows[i].first, rows[i].second);
  }
  directory_.reserve(directory_.size() + catalog.replicas.size());

  for (const media::VideoContent& content : catalog.contents) {
    Status status = OwnerStore(content.id).InsertContent(content);
    if (!status.ok()) return status;
  }
  for (const media::ReplicaInfo& replica : catalog.replicas) {
    Status status = AppendReplica(replica, sampler.SampleStreaming(replica));
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status DistributedMetadataEngine::InsertContent(
    const media::VideoContent& content) {
  Status status = OwnerStore(content.id).InsertContent(content);
  if (status.ok()) InvalidateCaches(content.id);
  return status;
}

Status DistributedMetadataEngine::AppendReplica(
    const media::ReplicaInfo& replica,
    const std::optional<QosProfile>& profile) {
  auto at = std::lower_bound(directory_.begin(), directory_.end(), replica.id,
                             DirectoryBefore);
  if (at != directory_.end() && at->first == replica.id) {
    return Status::AlreadyExists("physical OID already present");
  }
  Status status = OwnerStore(replica.content).InsertReplica(replica, profile);
  if (!status.ok()) return status;
  directory_.insert(at, {replica.id, replica.content});
  return Status::Ok();
}

Status DistributedMetadataEngine::InsertReplica(
    const media::ReplicaInfo& replica) {
  Status status = AppendReplica(replica, std::nullopt);
  if (status.ok()) InvalidateCaches(replica.content);
  return status;
}

Status DistributedMetadataEngine::SetQosProfile(PhysicalOid id,
                                                const QosProfile& profile) {
  size_t pos = DirectoryPos(id);
  if (pos == directory_.size()) {
    return Status::NotFound("unknown physical OID");
  }
  LogicalOid content = directory_[pos].second;
  Status status = OwnerStore(content).SetQosProfile(id, profile);
  if (status.ok()) InvalidateCaches(content);
  return status;
}

Status DistributedMetadataEngine::EraseReplica(PhysicalOid id) {
  size_t pos = DirectoryPos(id);
  if (pos == directory_.size()) {
    return Status::NotFound("unknown physical OID");
  }
  LogicalOid content = directory_[pos].second;
  Status status = OwnerStore(content).EraseReplica(id);
  if (status.ok()) {
    directory_.erase(directory_.begin() + static_cast<ptrdiff_t>(pos));
    InvalidateCaches(content);
  }
  return status;
}

Status DistributedMetadataEngine::EraseContent(LogicalOid id) {
  MetadataStore& store = OwnerStore(id);
  // Collect the replicas first so the directory can be pruned.
  std::vector<PhysicalOid> replicas;
  for (const MetadataStore::ReplicaRow& row : store.ReplicasOf(id)) {
    replicas.push_back(row.info.id);
  }
  Status status = store.EraseContent(id);
  if (!status.ok()) return status;
  for (PhysicalOid replica : replicas) {
    directory_.erase(directory_.begin() +
                     static_cast<ptrdiff_t>(DirectoryPos(replica)));
  }
  InvalidateCaches(id);
  return Status::Ok();
}

MetadataBundle DistributedMetadataEngine::BuildBundle(
    const MetadataStore& store, LogicalOid id) const {
  MetadataBundle bundle;
  const media::VideoContent* content = store.FindContent(id);
  assert(content != nullptr);
  bundle.content = *content;
  for (const MetadataStore::ReplicaRow& row : store.ReplicasOf(id)) {
    bundle.replicas.push_back(row.info);
    if (row.profile.has_value()) {
      bundle.profiles.emplace_back(row.info.id, *row.profile);
    }
  }
  return bundle;
}

const MetadataBundle* DistributedMetadataEngine::FetchBundle(
    SiteState& state, SiteId from, LogicalOid id, SimTime* latency) {
  size_t from_index = SiteIndex(from);
  AccessStats& stats = state.stats;
  SiteId owner = OwnerOf(id);

  if (owner == from) {
    MetadataStore& store = stores_[from_index];
    if (store.FindContent(id) == nullptr) return nullptr;
    ++stats.local_accesses;
    if (latency != nullptr) *latency += options_.local_access_latency;
    // Local bundles are served through the cache slot as well so callers
    // get one stable pointer type; they are never evicted remotely.
    SiteCache& cache = state.cache;
    auto it = cache.entries.find(id);
    if (it != cache.entries.end()) cache.entries.erase(it);
    cache.order.remove(id);
    cache.order.push_front(id);
    auto [ins, ok] = cache.entries.emplace(
        id, std::make_pair(cache.order.begin(), BuildBundle(store, id)));
    (void)ok;
    return &ins->second.second;
  }

  SiteCache& cache = state.cache;
  if (auto it = cache.entries.find(id); it != cache.entries.end()) {
    ++stats.cache_hits;
    if (latency != nullptr) *latency += options_.local_access_latency;
    cache.order.erase(it->second.first);
    cache.order.push_front(id);
    it->second.first = cache.order.begin();
    return &it->second.second;
  }

  // Remote fetch from the owner's store.
  MetadataStore& owner_store = stores_[SiteIndex(owner)];
  if (owner_store.FindContent(id) == nullptr) return nullptr;
  ++stats.remote_accesses;
  if (latency != nullptr) *latency += options_.remote_access_latency;
  if (options_.cache_capacity == 0) {
    // Caching disabled: keep a single scratch slot that every remote
    // access overwrites.
    cache.order.clear();
    cache.entries.clear();
  }
  while (cache.entries.size() >=
         std::max<size_t>(1, options_.cache_capacity)) {
    LogicalOid victim = cache.order.back();
    cache.order.pop_back();
    cache.entries.erase(victim);
  }
  cache.order.push_front(id);
  auto [ins, ok] = cache.entries.emplace(
      id, std::make_pair(cache.order.begin(), BuildBundle(owner_store, id)));
  (void)ok;
  return &ins->second.second;
}

std::optional<media::VideoContent> DistributedMetadataEngine::FindContent(
    SiteId from, LogicalOid id, SimTime* latency) {
  SiteState& state = *site_states_[SiteIndex(from)];
  MutexLock lock(&state.mu);
  const MetadataBundle* bundle = FetchBundle(state, from, id, latency);
  if (bundle == nullptr) return std::nullopt;
  return bundle->content;
}

std::vector<media::ReplicaInfo> DistributedMetadataEngine::ReplicasOf(
    SiteId from, LogicalOid id, SimTime* latency) {
  SiteState& state = *site_states_[SiteIndex(from)];
  MutexLock lock(&state.mu);
  const MetadataBundle* bundle = FetchBundle(state, from, id, latency);
  if (bundle == nullptr) return {};
  return bundle->replicas;
}

std::optional<QosProfile> DistributedMetadataEngine::FindQosProfile(
    SiteId from, PhysicalOid id, SimTime* latency) {
  size_t pos = DirectoryPos(id);
  if (pos == directory_.size()) return std::nullopt;
  SiteState& state = *site_states_[SiteIndex(from)];
  MutexLock lock(&state.mu);
  const MetadataBundle* bundle =
      FetchBundle(state, from, directory_[pos].second, latency);
  if (bundle == nullptr) return std::nullopt;
  for (const auto& [oid, profile] : bundle->profiles) {
    if (oid == id) return profile;
  }
  return std::nullopt;
}

std::vector<LogicalOid> DistributedMetadataEngine::AllContentIds() const {
  std::vector<LogicalOid> out;
  for (const MetadataStore& store : stores_) {
    for (const media::VideoContent* content : store.AllContents()) {
      out.push_back(content->id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

DistributedMetadataEngine::AccessStats DistributedMetadataEngine::stats_for(
    SiteId site) const {
  const SiteState& state = *site_states_[SiteIndex(site)];
  MutexLock lock(&state.mu);
  return state.stats;
}

void DistributedMetadataEngine::InvalidateCaches(LogicalOid id) {
  for (const std::unique_ptr<SiteState>& state : site_states_) {
    MutexLock lock(&state->mu);
    SiteCache& cache = state->cache;
    auto it = cache.entries.find(id);
    if (it == cache.entries.end()) continue;
    cache.order.erase(it->second.first);
    cache.entries.erase(it);
  }
}

}  // namespace quasaq::meta
