#include "core/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace quasaq::core {

std::string Plan::ToString() const {
  std::string out = "oid" + std::to_string(replica_oid.value()) + "@site" +
                    std::to_string(source_site.value());
  if (IsRelayed()) {
    out += "->site" + std::to_string(delivery_site.value());
  }
  out += " ";
  out += media::FrameDropStrategyName(transform.drop);
  if (transform.transcode_target.has_value()) {
    out += " transcode(" +
           media::AppQosToString(*transform.transcode_target) + ")";
  }
  if (transform.encryption != media::EncryptionAlgorithm::kNone) {
    out += " ";
    out += media::EncryptionAlgorithmName(transform.encryption);
  }
  if (IsCacheServed()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), " cache(%.0f%%)", cache_fraction * 100.0);
    out += buf;
  }
  return out;
}

ResourceVector RetrievalTransferDemand(const media::ReplicaInfo& replica,
                                       SiteId delivery_site,
                                       double cache_fraction,
                                       const PlanCostConstants& constants) {
  ResourceVector demand;
  // Retrieval: sequential disk read at the stored bitrate, minus the
  // share served from the source site's segment cache.
  double disk_kbps = replica.bitrate_kbps * (1.0 - cache_fraction);
  if (disk_kbps > 0.0) {
    demand.Add({replica.site, ResourceKind::kDiskBandwidth}, disk_kbps);
  }
  if (delivery_site != replica.site) {
    // Server-to-server transfer of the stored stream: outbound bandwidth
    // at the source plus a (cheaper) relay CPU share at both ends.
    demand.Add({replica.site, ResourceKind::kNetworkBandwidth},
               replica.bitrate_kbps);
    net::StreamTransform plain;  // forwarding the stored bytes untouched
    double forward_cpu =
        net::CostStream(replica, plain, constants.streaming_cost)
            .cpu_fraction *
        constants.relay_cpu_factor;
    demand.Add({replica.site, ResourceKind::kCpu}, forward_cpu);
    demand.Add({delivery_site, ResourceKind::kCpu}, forward_cpu);
  }
  return demand;
}

void FinalizePlan(Plan& plan, const media::ReplicaInfo& replica,
                  const PlanCostConstants& constants) {
  assert(replica.id == plan.replica_oid);
  assert(replica.site == plan.source_site);

  assert(plan.cache_fraction >= 0.0 && plan.cache_fraction <= 1.0);

  net::StreamCost stream =
      net::CostStream(replica, plan.transform, constants.streaming_cost);
  plan.delivered_qos = stream.delivered_qos;
  plan.wire_rate_kbps = stream.wire_rate_kbps;
  plan.startup_seconds = constants.startup_base_seconds +
                         constants.buffer_seconds;
  if (plan.IsRelayed()) {
    plan.startup_seconds += constants.startup_relay_seconds;
  }
  if (plan.transform.transcode_target.has_value()) {
    plan.startup_seconds += constants.startup_transcode_seconds;
  }
  if (plan.IsCacheServed()) {
    plan.startup_seconds = std::max(
        plan.startup_seconds -
            constants.startup_cache_seconds * plan.cache_fraction,
        0.0);
  }

  plan.resources = RetrievalTransferDemand(replica, plan.delivery_site,
                                           plan.cache_fraction, constants);
  // The cache-served share of the retrieval is charged to the source's
  // memory-bandwidth bucket instead of its disk.
  if (plan.IsCacheServed()) {
    plan.resources.Add({plan.source_site, ResourceKind::kMemoryBandwidth},
                       replica.bitrate_kbps * plan.cache_fraction);
  }
  // Server activities + packetization run at the delivery site.
  plan.resources.Add({plan.delivery_site, ResourceKind::kCpu},
                     stream.cpu_fraction);
  // Client-facing stream leaves the delivery site.
  plan.resources.Add({plan.delivery_site, ResourceKind::kNetworkBandwidth},
                     plan.wire_rate_kbps);
  // Staging buffers.
  plan.resources.Add({plan.delivery_site, ResourceKind::kMemory},
                     plan.wire_rate_kbps * constants.buffer_seconds);
}

}  // namespace quasaq::core
