#ifndef QUASAQ_RESOURCE_POOL_H_
#define QUASAQ_RESOURCE_POOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/resource_vector.h"
#include "common/status.h"
#include "common/sync.h"

// Registry of the system's resource buckets: each (site, kind) bucket
// has a fixed capacity R_i and a current usage U_i. This is the state
// the LRB cost model reads ("the height of the filled part of bucket i
// is the percentage of resource i being used", paper §3.4) and the
// state admission control mutates.
//
// The ledger is exact: capacity and usage are integer ledger units
// (common/resource_vector.h), every amount is converted by
// ToLedgerUnits on the way in, and the admission test compares
// integers. Acquire and Release convert the same amount the same way,
// so they cancel exactly in any order and a drained pool reads 0.
//
// Thread-safe: one mutex guards the whole bucket table, so Acquire
// stays all-or-nothing under contention and Snapshot reads one
// consistent usage vector. ResourcePool::mu_ is a leaf lock in the
// system's lock order (docs/ARCHITECTURE.md).

namespace quasaq::res {

// One bucket as a snapshot records it: U_i and R_i in its unit.
struct BucketFill {
  BucketId bucket;
  double used = 0.0;
  double capacity = 0.0;

  // (U_i + extra) / R_i, with a plan's demand `extra` overlaid unrounded.
  double Fill(double extra) const { return (used + extra) / capacity; }

  friend bool operator==(const BucketFill&, const BucketFill&) = default;
};

// An immutable copy of every declared bucket, sorted by id: the
// "current system status" under which paper §3.4 costs a plan. Each
// formula is one merge walk over the snapshot and a demand's id-sorted
// entries; untouched buckets are overlaid with 0 and undeclared buckets
// in the demand are ignored.
class PoolSnapshot {
 public:
  explicit PoolSnapshot(std::vector<BucketFill> buckets)
      : buckets_(std::move(buckets)) {}

  /// LRB: f(r) = max_i (U_i + r_i) / R_i over every bucket.
  double MaxFill(const ResourceVector& demand) const;

  /// Quadratic fill: sum_i ((U_i + r_i) / R_i)^2, summed in id order.
  double SquaredFill(const ResourceVector& demand) const;

  /// Usage-blind demand: sum_i r_i / R_i, accumulated in id order.
  double NormalizedDemand(const ResourceVector& demand) const;

  const std::vector<BucketFill>& buckets() const { return buckets_; }

 private:
  // Calls visit(bucket, r_i) for every bucket in id order.
  template <typename Visit>
  void Overlay(const ResourceVector& demand, Visit visit) const;

  std::vector<BucketFill> buckets_;
};

class ResourcePool {
 public:
  /// Declares a bucket with capacity `capacity`. Re-declaring an
  /// existing bucket resets its capacity but keeps its usage. Fails
  /// with kInvalidArgument (nothing is declared) when the capacity
  /// rounds to less than one ledger unit.
  Status DeclareBucket(const BucketId& bucket, double capacity)
      QUASAQ_EXCLUDES(mu_);

  bool HasBucket(const BucketId& bucket) const QUASAQ_EXCLUDES(mu_);
  double Capacity(const BucketId& bucket) const QUASAQ_EXCLUDES(mu_);
  double Used(const BucketId& bucket) const QUASAQ_EXCLUDES(mu_);

  /// U_i / R_i for one bucket, in [0, 1] under normal operation.
  double Utilization(const BucketId& bucket) const QUASAQ_EXCLUDES(mu_);

  /// True when every entry of `demand` fits: U_i + r_i <= R_i for all
  /// touched buckets (and every touched bucket is declared). Advisory
  /// under concurrency: usage may move between this check and a later
  /// Acquire, which re-validates atomically.
  bool Fits(const ResourceVector& demand) const QUASAQ_EXCLUDES(mu_);

  /// Atomically adds `demand` to usage. Fails with kResourceExhausted
  /// (nothing is changed) when any bucket would overflow, and then
  /// appends every overflowing bucket to `overflowing` when it is
  /// non-null; fails with kNotFound when `demand` touches an undeclared
  /// bucket.
  Status Acquire(const ResourceVector& demand,
                 std::vector<BucketId>* overflowing = nullptr)
      QUASAQ_EXCLUDES(mu_);

  /// Subtracts `demand` from usage. Releasing more than a bucket holds
  /// clamps it to zero and reports kFailedPrecondition (as does a
  /// release touching an undeclared bucket), so accounting bugs surface
  /// in release builds instead of silently corrupting the usage vectors
  /// the cost model reads.
  Status Release(const ResourceVector& demand) QUASAQ_EXCLUDES(mu_);

  /// All declared buckets in a stable order (sorted by id).
  std::vector<BucketId> Buckets() const QUASAQ_EXCLUDES(mu_);

  /// Every bucket's usage and capacity under one lock acquisition: the
  /// system status a planning round costs all of its plans against.
  PoolSnapshot Snapshot() const QUASAQ_EXCLUDES(mu_);

  /// The LRB fill of `demand` against the current usage.
  double OverlayMaxFill(const ResourceVector& demand) const
      QUASAQ_EXCLUDES(mu_) {
    return Snapshot().MaxFill(demand);
  }

  /// The highest utilization across all declared buckets.
  double MaxUtilization() const QUASAQ_EXCLUDES(mu_) {
    return Snapshot().MaxFill(ResourceVector());
  }

  /// Renders a one-line fill report, e.g. "site0/cpu=0.42 ...".
  std::string DebugString() const QUASAQ_EXCLUDES(mu_);

 private:
  // Capacity and usage in ledger units (capacity > 0). `fill` holds the
  // same two values in the bucket's unit, re-derived from the integers
  // on every change, so a snapshot is a plain copy.
  struct BucketState {
    BucketFill fill;
    int64_t capacity = 0;
    int64_t used = 0;

    void AddUsed(int64_t units) {
      used += units;
      fill.used = FromLedgerUnits(used);
    }
  };

  // Lock-assuming body of Fits. Stops at the first misfit unless
  // `overflowing` collects them all.
  bool FitsLocked(const ResourceVector& demand,
                  std::vector<BucketId>* overflowing) const
      QUASAQ_REQUIRES(mu_);

  mutable Mutex mu_;
  // Sorted by id; buckets are never undeclared.
  std::vector<BucketState> buckets_ QUASAQ_GUARDED_BY(mu_);
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_POOL_H_
