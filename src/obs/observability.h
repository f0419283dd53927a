#ifndef QUASAQ_OBS_OBSERVABILITY_H_
#define QUASAQ_OBS_OBSERVABILITY_H_

#include "obs/metrics.h"
#include "obs/trace.h"

// The observability context one system instance threads through its
// layers: a metrics registry and a tracer, created together so every
// subsystem reports into the same exposition surface. Instrumented
// components take an `Observability&` (or a `MetricsRegistry&` when
// they only count) in their constructor and resolve their handles
// once; whether a call emits spans is decided by its trace track
// (0 = untraced), and a disabled Tracer records nothing.

namespace quasaq::obs {

class Observability {
 public:
  Observability() = default;
  explicit Observability(const Tracer::Options& trace_options)
      : tracer_(trace_options) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

}  // namespace quasaq::obs

#endif  // QUASAQ_OBS_OBSERVABILITY_H_
