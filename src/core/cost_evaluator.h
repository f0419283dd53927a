#ifndef QUASAQ_CORE_COST_EVALUATOR_H_
#define QUASAQ_CORE_COST_EVALUATOR_H_

#include <functional>
#include <vector>

#include "core/cost_model.h"
#include "core/plan.h"
#include "resource/pool.h"

// Runtime Cost Evaluator (paper §3.4): costs every generated plan under
// the current system status and sorts them in ascending cost order; the
// first plan in this order that passes admission control services the
// query. Plans can additionally carry a gain G (paper's cost efficiency
// E = G / C(r)); the default gain of 1 reduces ranking to pure cost.

namespace quasaq::core {

class RuntimeCostEvaluator {
 public:
  // Optional gain function; larger gain ranks a plan earlier at equal
  // cost-efficiency. Must return positive values.
  using GainFunction = std::function<double(const Plan&)>;

  /// `model` must outlive the evaluator. An empty `gain` means G = 1.
  explicit RuntimeCostEvaluator(CostModel* model, GainFunction gain = {});

  /// The ranking key of one plan: C(r)/G under the usage `pool`
  /// recorded. Exposed so EXPLAIN paths and benchmarks cost plans
  /// exactly as the ranking does. Note that for cache-served plan
  /// variants the C(r) side already reflects the disk->memory-bandwidth
  /// resource swap performed by FinalizePlan — no cache special-casing
  /// happens here.
  double EfficiencyCost(const Plan& plan, const res::PoolSnapshot& pool) const;

  /// The first tie-break of Rank(): the plan's total normalized demand
  /// (sum of amount/capacity over the buckets it touches). Exposed so
  /// PlanStream breaks ties exactly as the eager ranking does.
  static double NormalizedDemand(const Plan& plan,
                                 const res::PoolSnapshot& pool);

  /// True when EfficiencyCost can be lower-bounded from a partial
  /// resource vector: the pure LRB model with no gain function. Any
  /// gain reshapes the key per plan and the other models are either
  /// stateful (Random) or not monotone maxima, so PlanStream falls back
  /// to exhaustive (but still lazily ordered) search for them.
  bool SupportsCostLowerBound() const;

  /// Sorts `plans` by ascending C(r)/G under `pool`'s current usage,
  /// costing every plan against one snapshot of it.
  /// Ties break toward the plan with the smaller total normalized
  /// demand — which is what lets a cache-served variant overtake its
  /// disk twin when neither resource is the LRB-hot bucket — then
  /// toward enumeration order (deterministic).
  void Rank(std::vector<Plan>& plans, const res::ResourcePool& pool) const;

  CostModel& model() const { return *model_; }

 private:
  CostModel* model_;
  GainFunction gain_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_COST_EVALUATOR_H_
