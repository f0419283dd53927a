#ifndef QUASAQ_RESOURCE_POOL_H_
#define QUASAQ_RESOURCE_POOL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
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
// Thread-safe: one mutex guards the whole bucket table, so concurrent
// AdmitQuery calls cost plans against a consistent usage snapshot and
// Acquire stays all-or-nothing under contention. ResourcePool::mu_ is a
// leaf lock in the system's lock order (docs/ARCHITECTURE.md).

namespace quasaq::res {

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

  /// Overlay fill — the LRB inner loop: max over every declared bucket
  /// of (U_i + demand_i) / R_i. One
  /// lock acquisition for the whole scan; calling Buckets() plus
  /// Used()/Capacity() per bucket computes the identical value (max is
  /// order-independent over the same per-bucket quotients) but costs
  /// ~2N mutex round-trips per plan costed, which is what serialized
  /// concurrent admissions before bulk reads existed.
  double OverlayMaxFill(const ResourceVector& demand) const
      QUASAQ_EXCLUDES(mu_);

  /// Overlay quadratic fill: sum over declared buckets — in sorted id
  /// order, so the floating-point accumulation is reproducible — of
  /// ((U_i + demand_i) / R_i)^2.
  double OverlaySquaredFill(const ResourceVector& demand) const
      QUASAQ_EXCLUDES(mu_);

  /// Sum over `demand`'s entries (in entry order) of amount / capacity;
  /// undeclared buckets contribute nothing.
  double FractionalDemand(const ResourceVector& demand) const
      QUASAQ_EXCLUDES(mu_);

  /// (bucket, U_i / R_i) for every declared bucket in sorted id order,
  /// read under one lock acquisition (telemetry's bulk Utilization).
  std::vector<std::pair<BucketId, double>> UtilizationSnapshot() const
      QUASAQ_EXCLUDES(mu_);

  /// The highest utilization across all declared buckets.
  double MaxUtilization() const QUASAQ_EXCLUDES(mu_);

  /// Renders a one-line fill report, e.g. "site0/cpu=0.42 ...".
  std::string DebugString() const QUASAQ_EXCLUDES(mu_);

 private:
  // Capacity and usage in ledger units (capacity > 0). The doubles are
  // the same two values in the bucket's unit, re-derived from the
  // integers on every change, so an LRB fill costs one division.
  struct BucketState {
    int64_t capacity = 0;
    int64_t used = 0;
    double capacity_value = 0.0;
    double used_value = 0.0;

    void AddUsed(int64_t units) {
      used += units;
      used_value = FromLedgerUnits(used);
    }
    // (U_i + extra) / R_i: a double quotient of the exact usage, with
    // `extra` (a plan's demand) overlaid unrounded.
    double Fill(double extra) const {
      return (used_value + extra) / capacity_value;
    }
  };

  // Lock-assuming bodies of the public entry points above. FitsLocked
  // stops at the first misfit unless `overflowing` collects them all.
  bool FitsLocked(const ResourceVector& demand,
                  std::vector<BucketId>* overflowing) const
      QUASAQ_REQUIRES(mu_);
  std::vector<BucketId> BucketsLocked() const QUASAQ_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<BucketId, BucketState> buckets_ QUASAQ_GUARDED_BY(mu_);
  // Bucket ids in sorted order, maintained by DeclareBucket (buckets
  // are never undeclared) so the ordered scans above never re-sort.
  std::vector<BucketId> ordered_buckets_ QUASAQ_GUARDED_BY(mu_);
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_POOL_H_
