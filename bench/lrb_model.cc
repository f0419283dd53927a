// Regenerates Figure 3: cost evaluation by the Lowest Resource Bucket
// model. Four resource buckets with preset fill levels; three candidate
// plans are overlaid and the plan with the smallest maximum bucket
// height wins (plan 2 in the figure).

#include <cassert>
#include <cstdlib>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/cost_model.h"
#include "resource/pool.h"

namespace {

using namespace quasaq;  // NOLINT: experiment harness

void PrintBuckets(const res::ResourcePool& pool,
                  const ResourceVector& demand) {
  for (const BucketId& bucket : pool.Buckets()) {
    double before = pool.Utilization(bucket);
    double after =
        (pool.Used(bucket) + demand.Get(bucket)) / pool.Capacity(bucket);
    std::printf("    %-10s  %3.0f%% -> %3.0f%%  |",
                BucketIdToString(bucket).c_str(), before * 100.0,
                after * 100.0);
    int bars = static_cast<int>(after * 40.0 + 0.5);
    for (int i = 0; i < bars && i < 48; ++i) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 3 — cost evaluation by the LRB model");

  // Four buckets R1..R4 modeled as the four resource kinds of one site.
  res::ResourcePool pool;
  SiteId site(0);
  BucketId r1{site, ResourceKind::kCpu};
  BucketId r2{site, ResourceKind::kNetworkBandwidth};
  BucketId r3{site, ResourceKind::kDiskBandwidth};
  BucketId r4{site, ResourceKind::kMemory};
  for (const BucketId& bucket : {r1, r2, r3, r4}) {
    if (!pool.DeclareBucket(bucket, 100.0).ok()) std::abort();
  }
  // Current usage (the gray fill of Fig 3d).
  ResourceVector used;
  used.Add(r1, 30.0);
  used.Add(r2, 42.0);
  used.Add(r3, 20.0);
  used.Add(r4, 35.0);
  Status status = pool.Acquire(used);
  assert(status.ok());
  (void)status;

  // Three candidate plans with different resource shapes.
  std::vector<std::pair<const char*, ResourceVector>> plans(3);
  plans[0].first = "plan 1";
  plans[0].second.Add(r1, 45.0);  // CPU-heavy (e.g. online transcode)
  plans[0].second.Add(r2, 10.0);
  plans[0].second.Add(r3, 5.0);
  plans[1].first = "plan 2";
  plans[1].second.Add(r1, 15.0);  // balanced
  plans[1].second.Add(r2, 15.0);
  plans[1].second.Add(r3, 15.0);
  plans[1].second.Add(r4, 10.0);
  plans[2].first = "plan 3";
  plans[2].second.Add(r2, 40.0);  // bandwidth-heavy (high-rate stream)
  plans[2].second.Add(r4, 20.0);

  core::LrbCostModel lrb;
  const res::PoolSnapshot snapshot = pool.Snapshot();
  double best_cost = 0.0;
  const char* best = nullptr;
  for (auto& [name, demand] : plans) {
    double cost = lrb.Cost(demand, snapshot);
    std::printf("  %s: f(p) = max bucket height = %.2f\n", name, cost);
    PrintBuckets(pool, demand);
    if (best == nullptr || cost < best_cost) {
      best_cost = cost;
      best = name;
    }
  }
  std::printf("\nchosen for execution: %s (lowest filled height %.2f)\n",
              best, best_cost);
  return 0;
}
