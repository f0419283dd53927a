#include "core/plan_stream.h"

#include <cassert>
#include <utility>

namespace quasaq::core {

PlanStream::PlanStream(const PlanGenerator* generator,
                       RuntimeCostEvaluator evaluator,
                       const res::ResourcePool& pool, SiteId query_site,
                       LogicalOid content, const query::QosRequirement& qos,
                       SimTime* metadata_latency)
    : generator_(generator),
      evaluator_(std::move(evaluator)),
      snapshot_(pool.Snapshot()),
      qos_(qos) {
  assert(generator_ != nullptr);
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator_->EnumerateGroups(query_site, content, metadata_latency);
  if (!groups.ok()) {
    status_ = groups.status();
    return;
  }
  groups_ = std::move(*groups);
  stats_.groups = groups_.size();
  SeedFrontier();
}

void PlanStream::SeedFrontier() {
  const bool bounded = evaluator_.SupportsCostLowerBound();
  for (size_t i = 0; i < groups_.size(); ++i) {
    Entry entry;
    // Without a sound bound every group enters at 0: nothing can be
    // yielded before the whole space is expanded, which reproduces the
    // eager evaluator exactly (including the per-plan cost-model call
    // order the Random model's RNG stream depends on).
    entry.cost = bounded
                     ? evaluator_.model().Cost(
                           generator_->RetrievalTransferDemand(groups_[i]),
                           snapshot_)
                     : 0.0;
    entry.demand = -1.0;
    entry.group_index = i;
    frontier_.push(entry);
  }
}

void PlanStream::Reset(const query::QosRequirement& qos,
                       RuntimeCostEvaluator evaluator,
                       const res::ResourcePool& pool) {
  if (!status_.ok()) return;
  qos_ = qos;
  evaluator_ = std::move(evaluator);
  snapshot_ = pool.Snapshot();
  plans_.clear();
  frontier_ = {};
  // Each round enters every group again; groups_expanded keeps
  // accumulating, so groups_pruned() stays the cumulative count of
  // branches never expanded across rounds.
  stats_.groups += groups_.size();
  SeedFrontier();
}

void PlanStream::ExpandGroup(size_t group_index) {
  std::vector<Plan> expanded;
  stats_.candidates +=
      generator_->ExpandGroup(groups_[group_index], qos_, expanded);
  ++stats_.groups_expanded;
  stats_.plans_generated += expanded.size();
  size_t within = 0;
  for (Plan& plan : expanded) {
    Ranked ranked;
    ranked.cost = evaluator_.EfficiencyCost(plan, snapshot_);
    ranked.demand = RuntimeCostEvaluator::NormalizedDemand(plan, snapshot_);
    ranked.plan = std::move(plan);
    plans_.push_back(std::move(ranked));

    Entry entry;
    entry.cost = plans_.back().cost;
    entry.demand = plans_.back().demand;
    entry.group_index = group_index;
    entry.within_index = within++;
    entry.plan_slot = static_cast<int>(plans_.size()) - 1;
    frontier_.push(entry);
  }
}

std::optional<PlanStream::Ranked> PlanStream::Next() {
  while (!frontier_.empty()) {
    Entry top = frontier_.top();
    if (top.plan_slot >= 0) {
      // Every remaining frontier entry — group bound or exact key — is
      // ordered after this plan, so it is the global minimum.
      frontier_.pop();
      ++stats_.plans_yielded;
      return std::move(plans_[static_cast<size_t>(top.plan_slot)]);
    }
    frontier_.pop();
    ExpandGroup(top.group_index);
  }
  return std::nullopt;
}

}  // namespace quasaq::core
