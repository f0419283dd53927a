#ifndef QUASAQ_METADATA_METADATA_STORE_H_
#define QUASAQ_METADATA_METADATA_STORE_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "media/video.h"
#include "metadata/qos_profile.h"

// Single-site metadata store holding the four metadata classes of
// §3.3: content metadata (VideoContent), quality metadata (the AppQos
// inside each ReplicaInfo), distribution metadata (logical->physical
// mapping with sites), and QoS profiles.
//
// The tables are id-sorted vectors: a catalog loaded in OID order is
// appended row by row into tables sized once (Reserve), with no
// per-row allocation. Pointers returned by the Find*/ReplicasOf/
// AllContents accessors stay valid until the next mutation.

namespace quasaq::meta {

class MetadataStore {
 public:
  // One replica's distribution and quality metadata, with its sampled
  // delivery profile once one is recorded.
  struct ReplicaRow {
    media::ReplicaInfo info;
    std::optional<QosProfile> profile;
  };

  /// Sizes the tables for `contents` more logical objects and
  /// `replicas` more replicas.
  void Reserve(size_t contents, size_t replicas);

  /// Registers a logical object. Fails on duplicate logical OID.
  Status InsertContent(const media::VideoContent& content);

  /// Registers one replica (distribution + quality metadata), and its
  /// delivery profile when `profile` holds one. The logical object must
  /// already be registered.
  Status InsertReplica(const media::ReplicaInfo& replica,
                       const std::optional<QosProfile>& profile = {});

  /// Records the sampled delivery profile of a replica.
  Status SetQosProfile(PhysicalOid id, const QosProfile& profile);

  /// Drops a replica's distribution metadata (e.g. after migration).
  Status EraseReplica(PhysicalOid id);

  /// Drops a logical object and cascades to its replicas and profiles.
  Status EraseContent(LogicalOid id);

  const media::VideoContent* FindContent(LogicalOid id) const;
  const media::ReplicaInfo* FindReplica(PhysicalOid id) const;
  const QosProfile* FindQosProfile(PhysicalOid id) const;

  /// Returns the replica rows of `content`, in physical-OID order.
  std::span<const ReplicaRow> ReplicasOf(LogicalOid content) const;

  /// Returns all registered logical objects, in logical-OID order.
  std::vector<const media::VideoContent*> AllContents() const;

  size_t content_count() const { return contents_.size(); }
  size_t replica_count() const { return replicas_.size(); }

 private:
  std::vector<media::VideoContent>::const_iterator ContentAt(
      LogicalOid id) const;
  // Position of replica `id` in replicas_, or replicas_.size().
  size_t ReplicaPos(PhysicalOid id) const;

  // Sorted by logical OID.
  std::vector<media::VideoContent> contents_;
  // Sorted by (logical OID, physical OID): each object's replicas are
  // one contiguous run.
  std::vector<ReplicaRow> replicas_;
  // Physical OID -> logical OID, sorted by physical OID.
  std::vector<std::pair<PhysicalOid, LogicalOid>> replica_index_;
};

}  // namespace quasaq::meta

#endif  // QUASAQ_METADATA_METADATA_STORE_H_
