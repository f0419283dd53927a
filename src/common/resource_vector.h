#ifndef QUASAQ_COMMON_RESOURCE_VECTOR_H_
#define QUASAQ_COMMON_RESOURCE_VECTOR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"

// Resource accounting types. A QuaSAQ execution plan is costed by the
// vector of resources it would consume: CPU, network bandwidth and disk
// bandwidth at specific sites (plus memory). Each (site, kind) pair is
// one "bucket" in the Lowest Resource Bucket cost model (paper §3.4).

namespace quasaq {

// The system/network-level resource kinds of Table 1 that the prototype
// manages. Memory buffers are tracked but never the bottleneck in the
// paper's experiments.
enum class ResourceKind {
  kCpu = 0,            // fraction of one server CPU, 0..1
  kNetworkBandwidth,   // server outbound link, KB/s
  kDiskBandwidth,      // storage read bandwidth, KB/s
  kMemory,             // staging buffers, KB
  kMemoryBandwidth,    // cache-served read bandwidth, KB/s
};

inline constexpr int kNumResourceKinds = 5;

/// Returns a short stable name, e.g. "cpu", "net", "disk", "mem",
/// "membw".
std::string_view ResourceKindName(ResourceKind kind);

// Reservation ledgers (the resource pool, the DSRT CPU scheduler and
// the VDBMS bitrate pins) book amounts as integer counts of 1e-6 of the
// bucket's unit (a millionth of a core, of a KB/s, of a KB). Integer
// usage makes the admission test U_i + r_i <= R_i exact and makes
// acquire/release commute: the same double always converts to the same
// count, so a release cancels its acquire in any order.
inline constexpr double kLedgerUnitsPerUnit = 1e6;

/// The ledger count for `amount`, rounded to nearest. The one way an
/// amount enters a ledger.
inline int64_t ToLedgerUnits(double amount) {
  return std::llround(amount * kLedgerUnitsPerUnit);
}

/// The amount a ledger count stands for.
inline double FromLedgerUnits(int64_t units) {
  return static_cast<double>(units) / kLedgerUnitsPerUnit;
}

// Names one reservable resource instance: a kind at a site.
struct BucketId {
  SiteId site;
  ResourceKind kind = ResourceKind::kCpu;

  friend bool operator==(const BucketId& a, const BucketId& b) {
    return a.site == b.site && a.kind == b.kind;
  }
  friend auto operator<=>(const BucketId& a, const BucketId& b) = default;
};

/// Renders e.g. "site2/net".
std::string BucketIdToString(const BucketId& id);

// Sparse map from bucket to a non-negative amount. Small (a plan touches
// at most a handful of buckets), so it is a flat sorted vector.
class ResourceVector {
 public:
  struct Entry {
    BucketId bucket;
    double amount = 0.0;
  };

  ResourceVector() = default;

  /// Adds `amount` to the bucket (creating it if absent). Negative
  /// deltas are allowed but the stored amount is clamped at zero.
  void Add(const BucketId& bucket, double amount);

  /// Returns the amount for `bucket` (0 if absent).
  double Get(const BucketId& bucket) const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Renders e.g. "{site0/cpu: 0.05, site0/net: 190}".
  std::string ToString() const;

 private:
  std::vector<Entry> entries_;  // sorted by bucket
};

}  // namespace quasaq

#endif  // QUASAQ_COMMON_RESOURCE_VECTOR_H_
