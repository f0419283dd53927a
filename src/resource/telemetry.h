#ifndef QUASAQ_RESOURCE_TELEMETRY_H_
#define QUASAQ_RESOURCE_TELEMETRY_H_

#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"
#include "resource/pool.h"

// Resource telemetry exposition: samples every declared (site, kind)
// bucket's utilization U_i / R_i into a labeled gauge family, each
// series keeping its own bounded TimeSeries history. Sampling is
// event-driven — the facade samples on every session start and
// completion (the only moments utilization moves), and harnesses may
// additionally drive Sample() from a periodic simulator task. A
// free-running background sampler is deliberately not provided: the
// simulator's RunAll() runs until the event queue drains, so a
// self-rescheduling task would never let it terminate.

namespace quasaq::res {

class PoolTelemetry {
 public:
  /// Both pointers must outlive the telemetry object, and every bucket
  /// must be declared before it is built: the gauge series of each
  /// bucket are resolved here, once, so Sample never touches the
  /// registry's family maps and concurrent admissions may sample
  /// without coordinating.
  PoolTelemetry(const ResourcePool* pool, obs::MetricsRegistry* registry);

  /// Records one utilization sample per declared bucket at `now`, from
  /// one pool snapshot.
  void Sample(SimTime now);

 private:
  const ResourcePool* pool_;
  // One series per bucket, in the pool's id order (the order of
  // PoolSnapshot::buckets()).
  std::vector<obs::Gauge*> gauges_;
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_TELEMETRY_H_
