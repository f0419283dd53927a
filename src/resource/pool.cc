#include "resource/pool.h"

#include <algorithm>
#include <cstdio>

namespace quasaq::res {

Status ResourcePool::DeclareBucket(const BucketId& bucket, double capacity) {
  const int64_t units = ToLedgerUnits(capacity);
  if (units <= 0) {
    return Status::InvalidArgument("bucket " + BucketIdToString(bucket) +
                                   " declared with less than one ledger "
                                   "unit of capacity");
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = buckets_.try_emplace(bucket);
  it->second.capacity = units;
  it->second.capacity_value = FromLedgerUnits(units);
  if (inserted) {
    ordered_buckets_.insert(std::lower_bound(ordered_buckets_.begin(),
                                             ordered_buckets_.end(), bucket),
                            bucket);
  }
  return Status::Ok();
}

double ResourcePool::OverlayMaxFill(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double max_fill = 0.0;
  for (const auto& [bucket, state] : buckets_) {
    max_fill = std::max(max_fill, state.Fill(demand.Get(bucket)));
  }
  return max_fill;
}

double ResourcePool::OverlaySquaredFill(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const BucketId& bucket : ordered_buckets_) {
    const BucketState& state = buckets_.find(bucket)->second;
    double fill = state.Fill(demand.Get(bucket));
    total += fill * fill;
  }
  return total;
}

double ResourcePool::FractionalDemand(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end()) continue;
    total += e.amount / it->second.capacity_value;
  }
  return total;
}

std::vector<std::pair<BucketId, double>> ResourcePool::UtilizationSnapshot()
    const {
  MutexLock lock(&mu_);
  std::vector<std::pair<BucketId, double>> out;
  out.reserve(ordered_buckets_.size());
  for (const BucketId& bucket : ordered_buckets_) {
    const BucketState& state = buckets_.find(bucket)->second;
    out.emplace_back(bucket, state.Fill(0.0));
  }
  return out;
}

bool ResourcePool::HasBucket(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  return buckets_.count(bucket) > 0;
}

double ResourcePool::Capacity(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0.0 : it->second.capacity_value;
}

double ResourcePool::Used(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0.0 : it->second.used_value;
}

double ResourcePool::Utilization(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return 0.0;
  return it->second.Fill(0.0);
}

bool ResourcePool::FitsLocked(const ResourceVector& demand,
                              std::vector<BucketId>* overflowing) const {
  bool fits = true;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end()) return false;
    if (it->second.used + ToLedgerUnits(e.amount) > it->second.capacity) {
      if (overflowing == nullptr) return false;
      overflowing->push_back(e.bucket);
      fits = false;
    }
  }
  return fits;
}

bool ResourcePool::Fits(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  return FitsLocked(demand, nullptr);
}

Status ResourcePool::Acquire(const ResourceVector& demand,
                             std::vector<BucketId>* overflowing) {
  MutexLock lock(&mu_);
  for (const ResourceVector::Entry& e : demand.entries()) {
    if (buckets_.count(e.bucket) == 0) {
      return Status::NotFound("undeclared bucket " +
                              BucketIdToString(e.bucket));
    }
  }
  if (!FitsLocked(demand, overflowing)) {
    return Status::ResourceExhausted("bucket would overflow");
  }
  for (const ResourceVector::Entry& e : demand.entries()) {
    buckets_[e.bucket].AddUsed(ToLedgerUnits(e.amount));
  }
  return Status::Ok();
}

Status ResourcePool::Release(const ResourceVector& demand) {
  MutexLock lock(&mu_);
  Status status = Status::Ok();
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end()) {
      status = Status::FailedPrecondition("release touches undeclared bucket " +
                                          BucketIdToString(e.bucket));
      continue;
    }
    int64_t units = ToLedgerUnits(e.amount);
    if (units > it->second.used) {
      status = Status::FailedPrecondition(
          "over-release on bucket " + BucketIdToString(e.bucket) +
          " (usage clamped to zero)");
      units = it->second.used;
    }
    it->second.AddUsed(-units);
  }
  return status;
}

std::vector<BucketId> ResourcePool::BucketsLocked() const {
  return ordered_buckets_;
}

std::vector<BucketId> ResourcePool::Buckets() const {
  MutexLock lock(&mu_);
  return BucketsLocked();
}

double ResourcePool::MaxUtilization() const {
  MutexLock lock(&mu_);
  double max_util = 0.0;
  for (const auto& [id, state] : buckets_) {
    max_util = std::max(max_util, state.Fill(0.0));
  }
  return max_util;
}

std::string ResourcePool::DebugString() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const BucketId& id : BucketsLocked()) {
    const BucketState& state = buckets_.find(id)->second;
    double util = state.Fill(0.0);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.2f ",
                  BucketIdToString(id).c_str(), util);
    out += buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace quasaq::res
