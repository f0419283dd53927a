#ifndef QUASAQ_COMMON_STATS_H_
#define QUASAQ_COMMON_STATS_H_

#include <cstddef>
#include <vector>

#include "common/sim_time.h"

// Statistics collectors used by the experiment harnesses: running
// mean/variance (Welford), timestamped series for the paper's
// time-series figures, and fixed-window event counting for
// "accomplished jobs per minute"-style metrics.

namespace quasaq {

// Single-pass mean / standard deviation / extrema accumulator.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Returns the population variance (0 for fewer than two samples).
  double variance() const;
  /// Returns the population standard deviation.
  double stddev() const;

  /// Merges another accumulator into this one.
  void Merge(const RunningStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// An append-only series of (time, value) samples, e.g. "outstanding
// sessions over time" (Figures 6a and 7a).
class TimeSeries {
 public:
  struct Sample {
    SimTime time = 0;
    double value = 0.0;
  };

  void Add(SimTime time, double value);

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  /// Returns the mean value over samples with time in [from, to].
  double MeanOver(SimTime from, SimTime to) const;

  /// Returns the value of the latest sample at or before `time`
  /// (0 if none).
  double ValueAt(SimTime time) const;

  /// Reduces the series to at most `buckets` points by averaging within
  /// equal time windows over [0, horizon]; used for compact printing.
  /// Returns an empty vector when `buckets` is 0 or `horizon` is not
  /// positive.
  std::vector<Sample> Downsample(SimTime horizon, size_t buckets) const;

 private:
  std::vector<Sample> samples_;
};

// Counts point events into fixed time windows, reporting a per-window
// rate series ("accomplished jobs per minute", Figure 6b).
class WindowedRate {
 public:
  /// `window` is the bucket width; must be positive.
  explicit WindowedRate(SimTime window);

  /// Records one event at `time` (times may arrive in any order).
  void AddEvent(SimTime time);

  /// Returns one sample per window in [0, horizon): the window start
  /// time and the event count in that window.
  std::vector<TimeSeries::Sample> Rates(SimTime horizon) const;

  size_t total_events() const { return events_.size(); }

 private:
  SimTime window_;
  std::vector<SimTime> events_;
};

}  // namespace quasaq

#endif  // QUASAQ_COMMON_STATS_H_
