#ifndef QUASAQ_OBS_METRICS_H_
#define QUASAQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "common/sync.h"

// Runtime metrics for the delivery pipeline. QuaSAQ's admission decisions
// price plans against *live* bucket utilization, so operating the system
// blind — with only post-hoc bench aggregates — means the one thing the
// cost model reacts to is the one thing nobody can see. The registry here
// is the single place every layer reports into: monotonic Counters,
// point-in-time Gauges (optionally sampled into a TimeSeries for the
// time-axis figures), and log-bucketed Histograms for latency-shaped
// values, all grouped into labeled families under one metric name.
//
// Exposition is pull-based and allocation-free on the hot path: the
// instrumented code holds raw Counter*/Gauge*/Histogram* pointers (stable
// for the registry's lifetime) and updates them with atomic operations;
// `PrometheusText()` renders the classic text format and `JsonSnapshot()`
// a machine-readable dump the bench harnesses write next to their
// BENCH_*.json.
//
// Metric names follow `quasaq_<subsystem>_<noun>_<unit>` (enforced by
// tools/check_metrics.py); the catalog lives in docs/OBSERVABILITY.md.
//
// Thread-safe: Counter and Gauge values are lock-free atomics; the gauge
// history, each histogram, and the family table take a quasaq::Mutex.
// All obs locks are leaves — nothing else is acquired while they are
// held — so any subsystem may report from inside its own critical
// section (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::obs {

// One metric's label set, e.g. {{"site", "2"}, {"kind", "disk"}}.
// Canonicalized (sorted by key) when a family child is resolved.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Escapes `text` for embedding in a JSON string literal.
std::string JsonEscapeString(std::string_view text);

// Monotonically increasing count (events, bytes). Lock-free.
class Counter {
 public:
  void Increment(double delta = 1.0) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  // The value as an event count, for counters bumped by whole numbers
  // (exact up to 2^53 events).
  uint64_t count() const { return static_cast<uint64_t>(value()); }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time value (active sessions, bucket utilization). The current
// value is a lock-free atomic; `Sample` additionally appends to a
// bounded TimeSeries so utilization-over-time comes out of the same
// object the live dashboards read.
class Gauge {
 public:
  // History samples kept before further Sample calls stop recording
  // (the current value still updates; `history_dropped` counts the loss
  // so truncation is visible instead of silent).
  static constexpr size_t kMaxHistory = 65536;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

  /// Sets the value and records (now, value) into the gauge's history.
  void Sample(SimTime now, double value) QUASAQ_EXCLUDES(mu_);

  /// Raises the gauge to `value` when higher (atomic running maximum)
  /// and records a history sample only when the value actually rose —
  /// the high-water-mark flavor of Sample. Safe against concurrent
  /// callers: exactly the raising calls append history.
  void SampleMax(SimTime now, double value) QUASAQ_EXCLUDES(mu_);

  /// Copy of the sampled history (empty when never sampled).
  TimeSeries history() const QUASAQ_EXCLUDES(mu_);

  size_t history_dropped() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return history_dropped_;
  }

 private:
  std::atomic<double> value_{0.0};
  mutable Mutex mu_;
  TimeSeries history_ QUASAQ_GUARDED_BY(mu_);
  size_t history_dropped_ QUASAQ_GUARDED_BY(mu_) = 0;
};

// Log-bucketed histogram: finite bucket upper bounds grow geometrically
// from `first_bound` by `growth`, with an implicit +Inf bucket, so a
// fixed bucket count covers latencies from microseconds to minutes at
// constant relative resolution.
struct HistogramOptions {
  double first_bound = 1.0;  // upper bound of the first bucket
  double growth = 2.0;       // geometric bound growth, > 1
  int bucket_count = 24;     // finite buckets; +Inf is implied
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options);

  void Observe(double value) QUASAQ_EXCLUDES(mu_);

  struct Snapshot {
    std::vector<double> bounds;     // finite upper bounds, ascending
    std::vector<uint64_t> counts;   // bounds.size() + 1 (last = +Inf)
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Snapshot snapshot() const QUASAQ_EXCLUDES(mu_);

  uint64_t count() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_.count();
  }

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;  // immutable after construction
  mutable Mutex mu_;
  std::vector<uint64_t> counts_ QUASAQ_GUARDED_BY(mu_);
  RunningStats stats_ QUASAQ_GUARDED_BY(mu_);
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// "counter", "gauge" or "histogram".
std::string_view MetricTypeName(MetricType type);

// The registry: metric families keyed by name, children keyed by label
// set. Get* registers on first use and returns the existing child on
// every later call with the same (name, labels) — instrumented code
// resolves its pointers once and hammers them thereafter. A Get* whose
// name is already registered under a *different* type (or, for
// histograms, different bucket layout) returns nullptr: silently
// aliasing two meanings under one name is how dashboards lie.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name, std::string_view help,
                      const Labels& labels = {}) QUASAQ_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  const Labels& labels = {}) QUASAQ_EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          const HistogramOptions& options = {},
                          const Labels& labels = {}) QUASAQ_EXCLUDES(mu_);

  /// All registered family names, sorted.
  std::vector<std::string> MetricNames() const QUASAQ_EXCLUDES(mu_);

  size_t family_count() const QUASAQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return families_.size();
  }

  /// Prometheus text exposition format (HELP/TYPE comments, one line
  /// per series; histograms expand to cumulative _bucket/_sum/_count).
  std::string PrometheusText() const QUASAQ_EXCLUDES(mu_);

  /// JSON document: {"metrics": [{name, type, help, series: [...]}]}.
  /// Gauge series include their sampled history as [seconds, value]
  /// pairs; histogram series include per-bucket counts.
  std::string JsonSnapshot() const QUASAQ_EXCLUDES(mu_);

 private:
  // Transparent child-map comparator: compares stored canonical keys
  // ("k=v,k=v", label pairs sorted) against a *sorted* label set without
  // serializing the probe — labeled-family lookups on the hot path cost
  // zero allocations after first registration.
  struct SortedLabelsRef {
    const Labels* labels;
  };
  struct ChildKeyLess {
    using is_transparent = void;
    bool operator()(const std::string& a, const std::string& b) const {
      return a < b;
    }
    bool operator()(const std::string& a, const SortedLabelsRef& b) const;
    bool operator()(const SortedLabelsRef& a, const std::string& b) const;
  };

  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    HistogramOptions histogram;
    // Children keyed by canonical (sorted, serialized) label set.
    // std::map keeps exposition order deterministic.
    std::map<std::string, std::unique_ptr<Counter>, ChildKeyLess> counters;
    std::map<std::string, std::unique_ptr<Gauge>, ChildKeyLess> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, ChildKeyLess> histograms;
    // Canonical key -> labels in first-registration order (exposition
    // renders labels as the instrumentation passed them).
    std::map<std::string, Labels> label_sets;
  };

  // A point-in-time copy of every family, taken under mu_ and rendered
  // by the exposition formats after the lock is released.
  struct SeriesView {
    Labels labels;
    double value = 0.0;  // counter / gauge value
    TimeSeries history;  // gauge history
    Histogram::Snapshot histogram;
  };
  struct FamilyView {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, SeriesView> series;  // canonical key order
  };
  using View = std::map<std::string, FamilyView>;

  View BuildView() const QUASAQ_EXCLUDES(mu_);
  static std::string RenderPrometheus(const View& view);
  static std::string RenderJson(const View& view);

  Family* ResolveFamily(std::string_view name, std::string_view help,
                        MetricType type) QUASAQ_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family, std::less<>> families_ QUASAQ_GUARDED_BY(mu_);
};

}  // namespace quasaq::obs

#endif  // QUASAQ_OBS_METRICS_H_
