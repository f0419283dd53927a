#include "resource/pool.h"

#include <algorithm>
#include <cstdio>

namespace quasaq::res {

namespace {

// Where `bucket` is, or belongs, in an id-sorted bucket table.
template <typename Table>
auto LowerBound(Table& table, const BucketId& bucket) {
  return std::lower_bound(table.begin(), table.end(), bucket,
                          [](const auto& state, const BucketId& id) {
                            return state.fill.bucket < id;
                          });
}

// The entry for `bucket` in an id-sorted bucket table, or nullptr.
template <typename Table>
auto* Find(Table& table, const BucketId& bucket) {
  auto it = LowerBound(table, bucket);
  return it != table.end() && it->fill.bucket == bucket ? &*it : nullptr;
}

}  // namespace

template <typename Visit>
void PoolSnapshot::Overlay(const ResourceVector& demand, Visit visit) const {
  auto entry = demand.entries().begin();
  const auto end = demand.entries().end();
  for (const BucketFill& bucket : buckets_) {
    while (entry != end && entry->bucket < bucket.bucket) ++entry;
    const bool touched = entry != end && entry->bucket == bucket.bucket;
    visit(bucket, touched ? entry->amount : 0.0);
  }
}

double PoolSnapshot::MaxFill(const ResourceVector& demand) const {
  double max_fill = 0.0;
  Overlay(demand, [&max_fill](const BucketFill& bucket, double amount) {
    max_fill = std::max(max_fill, bucket.Fill(amount));
  });
  return max_fill;
}

double PoolSnapshot::SquaredFill(const ResourceVector& demand) const {
  double total = 0.0;
  Overlay(demand, [&total](const BucketFill& bucket, double amount) {
    const double fill = bucket.Fill(amount);
    total += fill * fill;
  });
  return total;
}

double PoolSnapshot::NormalizedDemand(const ResourceVector& demand) const {
  double total = 0.0;
  Overlay(demand, [&total](const BucketFill& bucket, double amount) {
    total += amount / bucket.capacity;
  });
  return total;
}

Status ResourcePool::DeclareBucket(const BucketId& bucket, double capacity) {
  const int64_t units = ToLedgerUnits(capacity);
  if (units <= 0) {
    return Status::InvalidArgument("bucket " + BucketIdToString(bucket) +
                                   " declared with less than one ledger "
                                   "unit of capacity");
  }
  MutexLock lock(&mu_);
  auto it = LowerBound(buckets_, bucket);
  if (it == buckets_.end() || it->fill.bucket != bucket) {
    it = buckets_.insert(it, BucketState{BucketFill{bucket}});
  }
  it->capacity = units;
  it->fill.capacity = FromLedgerUnits(units);
  return Status::Ok();
}

PoolSnapshot ResourcePool::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<BucketFill> fills;
  fills.reserve(buckets_.size());
  for (const BucketState& state : buckets_) fills.push_back(state.fill);
  return PoolSnapshot(std::move(fills));
}

bool ResourcePool::HasBucket(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  return Find(buckets_, bucket) != nullptr;
}

double ResourcePool::Capacity(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  const auto* state = Find(buckets_, bucket);
  return state == nullptr ? 0.0 : state->fill.capacity;
}

double ResourcePool::Used(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  const auto* state = Find(buckets_, bucket);
  return state == nullptr ? 0.0 : state->fill.used;
}

double ResourcePool::Utilization(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  const auto* state = Find(buckets_, bucket);
  return state == nullptr ? 0.0 : state->fill.Fill(0.0);
}

bool ResourcePool::FitsLocked(const ResourceVector& demand,
                              std::vector<BucketId>* overflowing) const {
  bool fits = true;
  for (const ResourceVector::Entry& e : demand.entries()) {
    const auto* state = Find(buckets_, e.bucket);
    if (state == nullptr) return false;
    if (state->used + ToLedgerUnits(e.amount) > state->capacity) {
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
    if (Find(buckets_, e.bucket) == nullptr) {
      return Status::NotFound("undeclared bucket " +
                              BucketIdToString(e.bucket));
    }
  }
  if (!FitsLocked(demand, overflowing)) {
    return Status::ResourceExhausted("bucket would overflow");
  }
  for (const ResourceVector::Entry& e : demand.entries()) {
    Find(buckets_, e.bucket)->AddUsed(ToLedgerUnits(e.amount));
  }
  return Status::Ok();
}

Status ResourcePool::Release(const ResourceVector& demand) {
  MutexLock lock(&mu_);
  Status status = Status::Ok();
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto* state = Find(buckets_, e.bucket);
    if (state == nullptr) {
      status = Status::FailedPrecondition("release touches undeclared bucket " +
                                          BucketIdToString(e.bucket));
      continue;
    }
    int64_t units = ToLedgerUnits(e.amount);
    if (units > state->used) {
      status = Status::FailedPrecondition(
          "over-release on bucket " + BucketIdToString(e.bucket) +
          " (usage clamped to zero)");
      units = state->used;
    }
    state->AddUsed(-units);
  }
  return status;
}

std::vector<BucketId> ResourcePool::Buckets() const {
  MutexLock lock(&mu_);
  std::vector<BucketId> ids;
  ids.reserve(buckets_.size());
  for (const BucketState& state : buckets_) ids.push_back(state.fill.bucket);
  return ids;
}

std::string ResourcePool::DebugString() const {
  const PoolSnapshot snapshot = Snapshot();
  std::string out;
  for (const BucketFill& bucket : snapshot.buckets()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.2f ",
                  BucketIdToString(bucket.bucket).c_str(), bucket.Fill(0.0));
    out += buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace quasaq::res
