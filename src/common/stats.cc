#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasaq {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void TimeSeries::Add(SimTime time, double value) {
  samples_.push_back({time, value});
}

double TimeSeries::MeanOver(SimTime from, SimTime to) const {
  RunningStats stats;
  for (const Sample& s : samples_) {
    if (s.time >= from && s.time <= to) stats.Add(s.value);
  }
  return stats.mean();
}

double TimeSeries::ValueAt(SimTime time) const {
  double value = 0.0;
  for (const Sample& s : samples_) {
    if (s.time > time) break;
    value = s.value;
  }
  return value;
}

std::vector<TimeSeries::Sample> TimeSeries::Downsample(SimTime horizon,
                                                       size_t buckets) const {
  // A degenerate request (no buckets, or an empty/negative horizon)
  // has no well-defined windows; under NDEBUG the old assert-only
  // guard fell through to a division by zero. Return an empty series.
  if (buckets == 0 || horizon <= 0) return {};
  std::vector<RunningStats> acc(buckets);
  for (const Sample& s : samples_) {
    if (s.time < 0 || s.time > horizon) continue;
    size_t b = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(buckets) - 1,
                          s.time * static_cast<int64_t>(buckets) / horizon));
    acc[b].Add(s.value);
  }
  std::vector<Sample> out;
  out.reserve(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    if (acc[b].count() == 0) continue;
    SimTime mid = horizon * static_cast<SimTime>(2 * b + 1) /
                  static_cast<SimTime>(2 * buckets);
    out.push_back({mid, acc[b].mean()});
  }
  return out;
}

WindowedRate::WindowedRate(SimTime window) : window_(window) {
  assert(window_ > 0);
}

void WindowedRate::AddEvent(SimTime time) { events_.push_back(time); }

std::vector<TimeSeries::Sample> WindowedRate::Rates(SimTime horizon) const {
  size_t buckets = static_cast<size_t>((horizon + window_ - 1) / window_);
  std::vector<double> counts(buckets, 0.0);
  for (SimTime t : events_) {
    if (t < 0 || t >= horizon) continue;
    counts[static_cast<size_t>(t / window_)] += 1.0;
  }
  std::vector<TimeSeries::Sample> out;
  out.reserve(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    out.push_back({static_cast<SimTime>(b) * window_, counts[b]});
  }
  return out;
}

}  // namespace quasaq
