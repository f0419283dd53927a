#include "core/plan_generator.h"

#include <cassert>
#include <optional>

namespace quasaq::core {

PlanGenerator::PlanGenerator(meta::DistributedMetadataEngine* metadata,
                             std::vector<SiteId> sites,
                             const Options& options)
    : metadata_(metadata), sites_(std::move(sites)), options_(options) {
  assert(metadata_ != nullptr);
  assert(!sites_.empty());
  if (options_.transcode_targets.empty()) {
    options_.transcode_targets = media::QualityLadder::Standard().levels;
  }

  // A3 candidates depend only on the options — fixed once.
  drop_choices_.push_back(media::FrameDropStrategy::kNone);
  if (options_.enable_frame_dropping) {
    drop_choices_.push_back(media::FrameDropStrategy::kHalfBFrames);
    drop_choices_.push_back(media::FrameDropStrategy::kAllBFrames);
    drop_choices_.push_back(media::FrameDropStrategy::kAllBAndPFrames);
  }

  // A5 candidates per minimum security level (one table entry per
  // SecurityLevel value; a single raw-space entry when pruning is off).
  if (!options_.apply_static_pruning) {
    // Raw space: every algorithm, including none.
    std::vector<media::EncryptionAlgorithm> raw;
    for (int i = 0; i < media::kNumEncryptionAlgorithms; ++i) {
      raw.push_back(static_cast<media::EncryptionAlgorithm>(i));
    }
    encryption_choices_.push_back(std::move(raw));
  } else {
    for (int level = 0;
         level <= static_cast<int>(media::SecurityLevel::kStrong); ++level) {
      std::vector<media::EncryptionAlgorithm> choices;
      if (static_cast<media::SecurityLevel>(level) ==
          media::SecurityLevel::kNone) {
        // Encrypting an unprotected stream wastes CPU cycles — pruned.
        choices.push_back(media::EncryptionAlgorithm::kNone);
      } else {
        for (int i = 0; i < media::kNumEncryptionAlgorithms; ++i) {
          auto algorithm = static_cast<media::EncryptionAlgorithm>(i);
          if (media::EncryptionStrength(algorithm) >=
              static_cast<media::SecurityLevel>(level)) {
            choices.push_back(algorithm);
          }
        }
      }
      encryption_choices_.push_back(std::move(choices));
    }
  }
}

const std::vector<media::EncryptionAlgorithm>&
PlanGenerator::EncryptionChoices(const query::QosRequirement& qos) const {
  if (!options_.apply_static_pruning) return encryption_choices_.front();
  return encryption_choices_[static_cast<size_t>(qos.min_security)];
}

Result<std::vector<PlanGenerator::GroupSeed>> PlanGenerator::EnumerateGroups(
    SiteId query_site, LogicalOid content, SimTime* metadata_latency) const {
  std::vector<media::ReplicaInfo> replicas =
      metadata_->ReplicasOf(query_site, content, metadata_latency);
  if (replicas.empty()) {
    return Status::NotFound("no replicas registered for logical OID " +
                            std::to_string(content.value()));
  }
  std::vector<GroupSeed> groups;
  for (media::ReplicaInfo& replica : replicas) {
    // Cache warmth of this replica at its source site: a positive
    // fraction yields a cache-served twin of every plan in the group.
    double cache_fraction = 0.0;
    if (cache_view_ != nullptr) {
      cache_fraction = cache_view_->CachedFraction(replica.site, replica);
      if (cache_fraction < kMinCacheFraction) cache_fraction = 0.0;
    }
    for (SiteId delivery : sites_) {
      if (!options_.enable_relay && delivery != replica.site) continue;
      GroupSeed seed;
      seed.replica = replica;
      seed.delivery_site = delivery;
      seed.cache_fraction = cache_fraction;
      groups.push_back(std::move(seed));
    }
  }
  return groups;
}

size_t PlanGenerator::ExpandGroup(const GroupSeed& seed,
                                  const query::QosRequirement& qos,
                                  std::vector<Plan>& out) const {
  const media::ReplicaInfo& replica = seed.replica;

  const std::vector<media::FrameDropStrategy>& drops = drop_choices_;
  const std::vector<media::EncryptionAlgorithm>& encryptions =
      EncryptionChoices(qos);

  // A4 candidates for this replica: stay at stored quality, or any
  // target the source quality can be down-converted to.
  std::vector<std::optional<media::AppQos>> targets;
  targets.reserve(1 + options_.transcode_targets.size());
  targets.push_back(std::nullopt);
  if (options_.enable_transcoding) {
    for (const media::AppQos& target : options_.transcode_targets) {
      if (options_.apply_static_pruning &&
          !media::TranscodeAllowed(replica.qos, target)) {
        continue;
      }
      if (!options_.apply_static_pruning && target == replica.qos) {
        continue;  // identity transcode is meaningless in any mode
      }
      targets.push_back(target);
    }
  }

  // Upper bound on this group's yield: the full cross product, doubled
  // when every plan gets a cache-served twin. One reservation instead
  // of a reallocation per surviving candidate.
  const size_t candidates =
      targets.size() * drops.size() * encryptions.size();
  out.reserve(out.size() +
              candidates * (seed.cache_fraction > 0.0 ? 2 : 1));

  for (const std::optional<media::AppQos>& target : targets) {
    for (media::FrameDropStrategy drop : drops) {
      for (media::EncryptionAlgorithm encryption : encryptions) {
        Plan plan;
        plan.replica_oid = replica.id;
        plan.source_site = replica.site;
        plan.delivery_site = seed.delivery_site;
        plan.transform.transcode_target = target;
        plan.transform.drop = drop;
        plan.transform.encryption = encryption;
        FinalizePlan(plan, replica, options_.constants);
        if (options_.apply_static_pruning &&
            !qos.SatisfiedBy(plan.delivered_qos,
                             plan.transform.encryption)) {
          continue;
        }
        // Time Guarantee: drop plans that cannot start in time.
        if (options_.apply_static_pruning &&
            qos.max_startup_seconds > 0.0 &&
            plan.startup_seconds > qos.max_startup_seconds) {
          continue;
        }
        if (seed.cache_fraction > 0.0) {
          // The delivered quality is unchanged and startup only
          // improves, so the variant passes the same static rules.
          Plan cached = plan;
          cached.cache_fraction = seed.cache_fraction;
          FinalizePlan(cached, replica, options_.constants);
          out.push_back(std::move(cached));
        }
        out.push_back(std::move(plan));
      }
    }
  }
  return candidates;
}

ResourceVector PlanGenerator::RetrievalTransferDemand(
    const GroupSeed& seed) const {
  return core::RetrievalTransferDemand(seed.replica, seed.delivery_site,
                                       seed.cache_fraction,
                                       options_.constants);
}

Result<std::vector<Plan>> PlanGenerator::Generate(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    SimTime* metadata_latency) {
  Result<std::vector<GroupSeed>> groups =
      EnumerateGroups(query_site, content, metadata_latency);
  if (!groups.ok()) return groups.status();
  std::vector<Plan> plans;
  for (const GroupSeed& seed : *groups) {
    ExpandGroup(seed, qos, plans);
  }
  return plans;
}

}  // namespace quasaq::core
