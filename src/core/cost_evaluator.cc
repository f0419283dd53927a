#include "core/cost_evaluator.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace quasaq::core {

RuntimeCostEvaluator::RuntimeCostEvaluator(CostModel* model,
                                           GainFunction gain)
    : model_(model), gain_(std::move(gain)) {
  assert(model_ != nullptr);
}

double RuntimeCostEvaluator::EfficiencyCost(
    const Plan& plan, const res::PoolSnapshot& pool) const {
  double cost = model_->Cost(plan.resources, pool);
  double gain = gain_ ? gain_(plan) : 1.0;
  assert(gain > 0.0);
  return cost / gain;
}

double RuntimeCostEvaluator::NormalizedDemand(const Plan& plan,
                                              const res::PoolSnapshot& pool) {
  return pool.NormalizedDemand(plan.resources);
}

bool RuntimeCostEvaluator::SupportsCostLowerBound() const {
  return !gain_ && model_->name() == "LRB";
}

void RuntimeCostEvaluator::Rank(std::vector<Plan>& plans,
                                const res::ResourcePool& pool) const {
  struct Key {
    double efficiency_cost;  // C(r) / G
    double demand;           // total normalized demand (tie-break)
    size_t index;            // enumeration order (final tie-break)
  };
  const res::PoolSnapshot snapshot = pool.Snapshot();
  std::vector<Key> keys;
  keys.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    keys.push_back(Key{EfficiencyCost(plans[i], snapshot),
                       NormalizedDemand(plans[i], snapshot), i});
  }
  std::vector<size_t> order(plans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    const Key& ka = keys[a];
    const Key& kb = keys[b];
    if (ka.efficiency_cost != kb.efficiency_cost) {
      return ka.efficiency_cost < kb.efficiency_cost;
    }
    if (ka.demand != kb.demand) return ka.demand < kb.demand;
    return ka.index < kb.index;
  });
  std::vector<Plan> sorted;
  sorted.reserve(plans.size());
  for (size_t i : order) sorted.push_back(std::move(plans[i]));
  plans = std::move(sorted);
}

}  // namespace quasaq::core
