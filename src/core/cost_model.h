#ifndef QUASAQ_CORE_COST_MODEL_H_
#define QUASAQ_CORE_COST_MODEL_H_

#include <memory>
#include <string_view>

#include "common/resource_vector.h"
#include "common/rng.h"
#include "resource/pool.h"

// Cost models for QoS-aware plans (paper §3.4). A cost model maps a
// plan's resource vector — under the *current* system status — to a
// scalar; the Runtime Cost Evaluator ranks plans by it (lower is
// better). The paper's proposal is the Lowest Resource Bucket model;
// Random is the baseline it is evaluated against (Fig. 7), and the
// others are ablations of the design space.

namespace quasaq::core {

class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual std::string_view name() const = 0;

  /// Cost of adding `demand` on top of the usage recorded in `pool`.
  /// Lower is better. Models may be stateful (Random), hence non-const.
  virtual double Cost(const ResourceVector& demand,
                      const res::PoolSnapshot& pool) = 0;
};

// Lowest Resource Bucket (the paper's model): fill every bucket with the
// plan's demand and return the largest resulting fill height,
//   f(r) = max_i (U_i + r_i) / R_i,
// keeping all buckets growing evenly so no single resource overflows
// early.
class LrbCostModel : public CostModel {
 public:
  std::string_view name() const override { return "LRB"; }
  double Cost(const ResourceVector& demand,
              const res::PoolSnapshot& pool) override;
};

// Randomized plan choice: assigns each plan a uniform random cost. A
// frequently-used query-optimization strategy with fair performance,
// used as the baseline in Fig. 7.
class RandomCostModel : public CostModel {
 public:
  explicit RandomCostModel(uint64_t seed) : rng_(seed) {}

  std::string_view name() const override { return "Random"; }
  double Cost(const ResourceVector& demand,
              const res::PoolSnapshot& pool) override;

 private:
  Rng rng_;
};

// Static minimum-total-resources: sum of normalized demands, ignoring
// current usage. Picks the globally cheapest plan even when it piles
// onto an already-hot bucket (ablation).
class MinTotalCostModel : public CostModel {
 public:
  std::string_view name() const override { return "MinTotal"; }
  double Cost(const ResourceVector& demand,
              const res::PoolSnapshot& pool) override;
};

// Weighted sum of post-admission fill levels across all buckets —
// a smoother load-balancing objective than LRB's max (ablation).
class WeightedSumCostModel : public CostModel {
 public:
  std::string_view name() const override { return "WeightedSum"; }
  double Cost(const ResourceVector& demand,
              const res::PoolSnapshot& pool) override;
};

/// Factory by name ("lrb", "random", "mintotal", "weightedsum");
/// nullptr for unknown names. Matching is case-insensitive.
std::unique_ptr<CostModel> MakeCostModel(std::string_view name,
                                         uint64_t seed = 1);

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_COST_MODEL_H_
