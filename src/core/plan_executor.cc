#include "core/plan_executor.h"

#include <cassert>

namespace quasaq::core {

RunningDelivery::RunningDelivery(
    std::unique_ptr<net::RtpStreamingSession> session, Plan plan)
    : session_(std::move(session)), plan_(std::move(plan)) {}

PlanExecutor::PlanExecutor(sim::Simulator* simulator, const Options& options)
    : simulator_(simulator), options_(options) {
  assert(simulator_ != nullptr);
}

res::ReservationCpuScheduler& PlanExecutor::SchedulerFor(SiteId site) {
  auto it = schedulers_.find(site);
  if (it == schedulers_.end()) {
    it = schedulers_
             .emplace(site, std::make_unique<res::ReservationCpuScheduler>(
                                simulator_,
                                res::ReservationCpuScheduler::Options()))
             .first;
  }
  return *it->second;
}

Result<std::unique_ptr<RunningDelivery>> PlanExecutor::Execute(
    const Plan& plan, const media::ReplicaInfo& replica,
    net::RtpStreamingSession::FinishedCallback on_finished) {
  if (replica.id != plan.replica_oid) {
    return Status::InvalidArgument("replica does not match the plan");
  }
  auto session = std::make_unique<net::RtpStreamingSession>(
      simulator_, replica, plan.transform, options_.session);
  // Each site's CPU reservation is what the plan's vector charges there:
  // at the delivery site the stream's work plus, for a relayed plan, its
  // forwarding share; at the source only the forwarding share.
  Status status = session->AttachReserved(
      &SchedulerFor(plan.delivery_site),
      plan.resources.Get({plan.delivery_site, ResourceKind::kCpu}) *
          options_.cpu_reservation_factor);
  if (!status.ok()) return status;
  if (plan.IsRelayed()) {
    status = session->AttachRelay(
        &SchedulerFor(plan.source_site),
        plan.resources.Get({plan.source_site, ResourceKind::kCpu}) *
            options_.cpu_reservation_factor,
        options_.relay_hop_latency);
    if (!status.ok()) return status;
  }
  if (cache_ != nullptr) {
    cache_->OnStream(plan.source_site, replica, simulator_->Now());
  }
  session->Start(std::move(on_finished));
  return std::make_unique<RunningDelivery>(std::move(session), plan);
}

}  // namespace quasaq::core
