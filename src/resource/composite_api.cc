#include "resource/composite_api.h"

#include <cassert>
#include <cstdio>

namespace quasaq::res {

void CompositeQosApi::AccountAttempt(
    const ResourceVector& demand, const std::vector<BucketId>& overflowing) {
  for (const ResourceVector::Entry& e : demand.entries()) {
    ++kind_stats_[static_cast<size_t>(e.bucket.kind)].requests;
  }
  // A denial is charged to every kind whose bucket would overflow.
  for (const BucketId& bucket : overflowing) {
    ++kind_stats_[static_cast<size_t>(bucket.kind)].denials;
  }
}

std::string CompositeQosApi::BottleneckReport() const {
  MutexLock lock(&mu_);
  const char* worst = nullptr;
  uint64_t worst_denials = 0;
  uint64_t total_denials = 0;
  for (int i = 0; i < kNumResourceKinds; ++i) {
    total_denials += kind_stats_[i].denials;
    if (kind_stats_[i].denials > worst_denials) {
      worst_denials = kind_stats_[i].denials;
      worst = ResourceKindName(static_cast<ResourceKind>(i)).data();
    }
  }
  if (worst == nullptr) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "bottleneck: %s (%llu of %llu denials)", worst,
                static_cast<unsigned long long>(worst_denials),
                static_cast<unsigned long long>(total_denials));
  return std::string(buf);
}

CompositeQosApi::CompositeQosApi(ResourcePool* pool) : pool_(pool) {
  assert(pool_ != nullptr);
}

void CompositeQosApi::set_metrics(obs::MetricsRegistry* registry) {
  MutexLock lock(&mu_);
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.reserve_accepted =
      registry->GetCounter("quasaq_resource_reserve_accepted_total",
                           "Reservations admission control granted");
  metrics_.reserve_rejected =
      registry->GetCounter("quasaq_resource_reserve_rejected_total",
                           "Reservations admission control denied");
  metrics_.released = registry->GetCounter(
      "quasaq_resource_released_total", "Reservations released");
  metrics_.renegotiate_accepted =
      registry->GetCounter("quasaq_resource_renegotiate_accepted_total",
                           "In-place reservation swaps that fit");
  metrics_.renegotiate_rejected =
      registry->GetCounter("quasaq_resource_renegotiate_rejected_total",
                           "In-place reservation swaps that did not fit");
}

bool CompositeQosApi::Admissible(const ResourceVector& demand) const {
  return pool_->Fits(demand);
}

Result<ReservationId> CompositeQosApi::Reserve(const ResourceVector& demand) {
  MutexLock lock(&mu_);
  std::vector<BucketId> overflowing;
  Status status = pool_->Acquire(demand, &overflowing);
  AccountAttempt(demand, overflowing);
  if (!status.ok()) {
    ++stats_.rejected;
    if (metrics_.reserve_rejected != nullptr) {
      metrics_.reserve_rejected->Increment();
    }
    return status;
  }
  ++stats_.admitted;
  if (metrics_.reserve_accepted != nullptr) {
    metrics_.reserve_accepted->Increment();
  }
  ReservationId id = next_id_++;
  reservations_.emplace(id, demand);
  return id;
}

Status CompositeQosApi::Release(ReservationId id) {
  MutexLock lock(&mu_);
  auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    return Status::NotFound("unknown reservation");
  }
  // A failed pool release means the reservation table and the usage
  // vectors disagree — surface it instead of reporting a clean release.
  Status released = pool_->Release(it->second);
  reservations_.erase(it);
  ++stats_.released;
  if (metrics_.released != nullptr) metrics_.released->Increment();
  return released;
}

Status CompositeQosApi::Renegotiate(ReservationId id,
                                    const ResourceVector& new_demand) {
  MutexLock lock(&mu_);
  auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    return Status::NotFound("unknown reservation");
  }
  // Tentatively release the old demand, then try the new one; restore on
  // failure so a failed renegotiation leaves the session running at its
  // previously agreed quality. mu_ is held throughout, so no other
  // reservation can slip into the momentarily freed capacity.
  Status freed = pool_->Release(it->second);
  assert(freed.ok());
  (void)freed;
  Status status = pool_->Acquire(new_demand);
  if (!status.ok()) {
    Status restored = pool_->Acquire(it->second);
    assert(restored.ok());
    (void)restored;
    ++stats_.renegotiation_failures;
    if (metrics_.renegotiate_rejected != nullptr) {
      metrics_.renegotiate_rejected->Increment();
    }
    return status;
  }
  it->second = new_demand;
  ++stats_.renegotiations;
  if (metrics_.renegotiate_accepted != nullptr) {
    metrics_.renegotiate_accepted->Increment();
  }
  return Status::Ok();
}

const ResourceVector* CompositeQosApi::Find(ReservationId id) const {
  MutexLock lock(&mu_);
  auto it = reservations_.find(id);
  return it == reservations_.end() ? nullptr : &it->second;
}

}  // namespace quasaq::res
