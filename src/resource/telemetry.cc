#include "resource/telemetry.h"

#include <cassert>
#include <string>

namespace quasaq::res {

PoolTelemetry::PoolTelemetry(const ResourcePool* pool,
                             obs::MetricsRegistry* registry)
    : pool_(pool) {
  assert(pool_ != nullptr);
  assert(registry != nullptr);
  for (const BucketId& bucket : pool_->Buckets()) {
    gauges_.push_back(registry->GetGauge(
        "quasaq_resource_utilization_ratio",
        "Bucket fill U_i / R_i the LRB cost model reads",
        {{"site", std::to_string(bucket.site.value())},
         {"kind", std::string(ResourceKindName(bucket.kind))}}));
  }
}

void PoolTelemetry::Sample(SimTime now) {
  const PoolSnapshot snapshot = pool_->Snapshot();
  assert(snapshot.buckets().size() == gauges_.size());
  for (size_t i = 0; i < gauges_.size(); ++i) {
    gauges_[i]->Sample(now, snapshot.buckets()[i].Fill(0.0));
  }
}

}  // namespace quasaq::res
