#include "metadata/metadata_store.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace quasaq::meta {

namespace {

bool ContentBefore(const media::VideoContent& content, LogicalOid id) {
  return content.id < id;
}

// Orders replica rows by (logical OID, physical OID).
bool RowBefore(const MetadataStore::ReplicaRow& row,
               const std::pair<LogicalOid, PhysicalOid>& key) {
  return std::pair(row.info.content, row.info.id) < key;
}

bool IndexBefore(const std::pair<PhysicalOid, LogicalOid>& entry,
                 PhysicalOid id) {
  return entry.first < id;
}

}  // namespace

void MetadataStore::Reserve(size_t contents, size_t replicas) {
  contents_.reserve(contents_.size() + contents);
  replicas_.reserve(replicas_.size() + replicas);
  replica_index_.reserve(replica_index_.size() + replicas);
}

std::vector<media::VideoContent>::const_iterator MetadataStore::ContentAt(
    LogicalOid id) const {
  auto it =
      std::lower_bound(contents_.begin(), contents_.end(), id, ContentBefore);
  return it != contents_.end() && it->id == id ? it : contents_.end();
}

size_t MetadataStore::ReplicaPos(PhysicalOid id) const {
  auto entry = std::lower_bound(replica_index_.begin(), replica_index_.end(),
                                id, IndexBefore);
  if (entry == replica_index_.end() || entry->first != id) {
    return replicas_.size();
  }
  return static_cast<size_t>(
      std::lower_bound(replicas_.begin(), replicas_.end(),
                       std::pair(entry->second, id), RowBefore) -
      replicas_.begin());
}

Status MetadataStore::InsertContent(const media::VideoContent& content) {
  if (!content.id.valid()) {
    return Status::InvalidArgument("invalid logical OID");
  }
  auto it = std::lower_bound(contents_.begin(), contents_.end(), content.id,
                             ContentBefore);
  if (it != contents_.end() && it->id == content.id) {
    return Status::AlreadyExists("logical OID already present");
  }
  contents_.insert(it, content);
  return Status::Ok();
}

Status MetadataStore::InsertReplica(const media::ReplicaInfo& replica,
                                    const std::optional<QosProfile>& profile) {
  if (!replica.id.valid()) {
    return Status::InvalidArgument("invalid physical OID");
  }
  if (ContentAt(replica.content) == contents_.end()) {
    return Status::FailedPrecondition("logical object not registered");
  }
  auto entry = std::lower_bound(replica_index_.begin(), replica_index_.end(),
                                replica.id, IndexBefore);
  if (entry != replica_index_.end() && entry->first == replica.id) {
    return Status::AlreadyExists("physical OID already present");
  }
  replica_index_.insert(entry, {replica.id, replica.content});
  auto row = std::lower_bound(replicas_.begin(), replicas_.end(),
                              std::pair(replica.content, replica.id),
                              RowBefore);
  replicas_.insert(row, ReplicaRow{replica, profile});
  return Status::Ok();
}

Status MetadataStore::SetQosProfile(PhysicalOid id, const QosProfile& profile) {
  size_t pos = ReplicaPos(id);
  if (pos == replicas_.size()) return Status::NotFound("no such replica");
  replicas_[pos].profile = profile;
  return Status::Ok();
}

Status MetadataStore::EraseReplica(PhysicalOid id) {
  size_t pos = ReplicaPos(id);
  if (pos == replicas_.size()) return Status::NotFound("no such replica");
  replicas_.erase(replicas_.begin() + static_cast<ptrdiff_t>(pos));
  replica_index_.erase(std::lower_bound(
      replica_index_.begin(), replica_index_.end(), id, IndexBefore));
  return Status::Ok();
}

Status MetadataStore::EraseContent(LogicalOid id) {
  auto content = ContentAt(id);
  if (content == contents_.end()) return Status::NotFound("no such content");
  std::span<const ReplicaRow> rows = ReplicasOf(id);
  for (const ReplicaRow& row : rows) {
    replica_index_.erase(std::lower_bound(replica_index_.begin(),
                                          replica_index_.end(), row.info.id,
                                          IndexBefore));
  }
  auto first = replicas_.begin() + (rows.data() - replicas_.data());
  replicas_.erase(first, first + static_cast<ptrdiff_t>(rows.size()));
  contents_.erase(content);
  return Status::Ok();
}

const media::VideoContent* MetadataStore::FindContent(LogicalOid id) const {
  auto it = ContentAt(id);
  return it == contents_.end() ? nullptr : &*it;
}

const media::ReplicaInfo* MetadataStore::FindReplica(PhysicalOid id) const {
  size_t pos = ReplicaPos(id);
  return pos == replicas_.size() ? nullptr : &replicas_[pos].info;
}

const QosProfile* MetadataStore::FindQosProfile(PhysicalOid id) const {
  size_t pos = ReplicaPos(id);
  if (pos == replicas_.size() || !replicas_[pos].profile.has_value()) {
    return nullptr;
  }
  return &*replicas_[pos].profile;
}

std::span<const MetadataStore::ReplicaRow> MetadataStore::ReplicasOf(
    LogicalOid content) const {
  auto first = std::lower_bound(
      replicas_.begin(), replicas_.end(),
      std::pair(content, PhysicalOid(std::numeric_limits<int64_t>::min())),
      RowBefore);
  auto last = first;
  while (last != replicas_.end() && last->info.content == content) ++last;
  return {first, last};
}

std::vector<const media::VideoContent*> MetadataStore::AllContents() const {
  std::vector<const media::VideoContent*> out;
  out.reserve(contents_.size());
  for (const media::VideoContent& content : contents_) out.push_back(&content);
  return out;
}

}  // namespace quasaq::meta
