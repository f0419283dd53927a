#ifndef QUASAQ_PERFBENCH_WORKLOADS_H_
#define QUASAQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

// The delivery benchmark's workloads, driven through the public
// core::MediaDbSystem facade by one submitter in simulated time:
//
//  * paper_replay — the paper's Fig. 6/7 traffic on its 3-site testbed
//    with the full plan space: planning and relaxation dominate.
//  * text_portal — every request is query text; Zipf popularity, a
//    shallow replica ladder, segment cache and dynamic replication on.
//
// A run repeats fixed-size episodes of one workload until its time is
// spent. Each episode builds a fresh system (timed as set-up), replays
// one of the input streams generated from the seed before timing began,
// drains every session and checks the accounting invariants.

namespace quasaq::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: records spans and reports the per-layer metrics instead
  // of the end-to-end ones.
  bool trace = false;
  // Where the traced run writes its Chrome trace JSON ("" = nowhere).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable context: sample counts, spreads, failed checks.
  std::vector<std::string> notes;
};

/// The workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs `options.workload` (which must be one of WorkloadNames()).
Report RunWorkload(const RunOptions& options);

}  // namespace quasaq::perfbench

#endif  // QUASAQ_PERFBENCH_WORKLOADS_H_
