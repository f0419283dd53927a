#ifndef QUASAQ_PERFBENCH_SUMMARY_H_
#define QUASAQ_PERFBENCH_SUMMARY_H_

#include <cstddef>
#include <optional>
#include <vector>

// Order statistics the benchmark reports. Timings are summarized as a
// median plus the highest percentile that still has at least ten
// samples beyond it; spreads across episodes as quartiles computed the
// way Python's statistics.quantiles(values, n=4) does, so the figures
// printed here match what a reader recomputes from the raw values.

namespace quasaq::perfbench {

/// Median of `values` (mean of the two middle values for an even
/// count). `values` must be non-empty.
double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4) with the default exclusive method;
/// a single value is its own quartiles. `values` must be non-empty.
Quartiles ComputeQuartiles(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100] of ascending `sorted`: the
/// value at rank ceil(p/100 * n). `sorted` must be non-empty.
double Percentile(const std::vector<double>& sorted, double p);

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
size_t SamplesBeyond(size_t n, double p);

struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};

/// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten
/// samples beyond it, or nullopt when not even p50 qualifies.
std::optional<Tail> HighestTail(const std::vector<double>& sorted);

}  // namespace quasaq::perfbench

#endif  // QUASAQ_PERFBENCH_SUMMARY_H_
