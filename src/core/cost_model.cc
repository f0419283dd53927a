#include "core/cost_model.h"

#include <algorithm>
#include <cctype>

namespace quasaq::core {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

double LrbCostModel::Cost(const ResourceVector& demand,
                          const res::PoolSnapshot& pool) {
  // Fullest bucket once the demand is overlaid.
  return pool.MaxFill(demand);
}

double RandomCostModel::Cost(const ResourceVector& demand,
                             const res::PoolSnapshot& pool) {
  (void)demand;
  (void)pool;
  return rng_.NextDouble();
}

double MinTotalCostModel::Cost(const ResourceVector& demand,
                               const res::PoolSnapshot& pool) {
  return pool.NormalizedDemand(demand);
}

double WeightedSumCostModel::Cost(const ResourceVector& demand,
                                  const res::PoolSnapshot& pool) {
  // Quadratic fill penalty: loading an already-hot bucket costs more
  // than the same demand on a cold one.
  return pool.SquaredFill(demand);
}

std::unique_ptr<CostModel> MakeCostModel(std::string_view name,
                                         uint64_t seed) {
  if (EqualsIgnoreCase(name, "lrb")) {
    return std::make_unique<LrbCostModel>();
  }
  if (EqualsIgnoreCase(name, "random")) {
    return std::make_unique<RandomCostModel>(seed);
  }
  if (EqualsIgnoreCase(name, "mintotal")) {
    return std::make_unique<MinTotalCostModel>();
  }
  if (EqualsIgnoreCase(name, "weightedsum")) {
    return std::make_unique<WeightedSumCostModel>();
  }
  return nullptr;
}

}  // namespace quasaq::core
