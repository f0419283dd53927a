#include "summary.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace quasaq::perfbench {

double Median(std::vector<double> values) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method='exclusive': cut point i of 4 sits at
  // position i * (n + 1) / 4 (1-based), linearly interpolated. As in
  // CPython the index is clamped before delta is taken, so for tiny n
  // delta may leave [0, 4] and the cut extrapolates.
  double cuts[3];
  const int64_t ld = static_cast<int64_t>(n);
  const int64_t m = ld + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

namespace {

// ceil(p/100 * n) in exact integer arithmetic on p in basis points, so
// p99 of 1000 samples is rank 990, not 991 through rounding.
size_t NearestRank(size_t n, double p) {
  const uint64_t basis_points = static_cast<uint64_t>(std::llround(p * 100.0));
  const uint64_t rank = (basis_points * n + 9999) / 10000;
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  assert(!sorted.empty());
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<Tail> HighestTail(const std::vector<double>& sorted) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (SamplesBeyond(sorted.size(), p) >= 10) {
      return Tail{p, Percentile(sorted, p), sorted.size()};
    }
  }
  return std::nullopt;
}

}  // namespace quasaq::perfbench
