#include "workload/interframe.h"

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "media/library.h"
#include "media/video.h"
#include "net/rtp.h"
#include "resource/cpu_scheduler.h"
#include "simcore/simulator.h"

namespace quasaq::workload {

namespace {

// Reservation headroom: each stream reserves its CPU demand times this.
constexpr double kCpuReservationFactor = 1.2;

// Builds a VCD-class MPEG-1 replica (the shape of the paper's sample
// video with frame rate 23.97 fps) long enough for the experiment.
media::ReplicaInfo MakeReplica(int64_t oid, double duration_seconds,
                               uint64_t frame_seed) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(oid);
  replica.site = SiteId(0);
  replica.qos = media::QualityLadder::Standard().levels[1];  // VCD class
  replica.duration_seconds = duration_seconds;
  replica.frame_seed = frame_seed;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

}  // namespace

InterframeResult RunInterframeExperiment(const InterframeOptions& options) {
  sim::Simulator simulator;
  Rng rng(options.seed);

  const ContentionLevel& level =
      options.high_contention ? options.high : options.low;

  // Both schedulers model the same physical CPU: DSRT-reserved work has
  // strict priority, so in QuaSAQ mode the time-sharing load only eats
  // what the reservations leave over and never delays them.
  res::TimeSharingCpuScheduler time_sharing(
      &simulator, res::TimeSharingCpuScheduler::Options());
  res::ReservationCpuScheduler reservation(
      &simulator, res::ReservationCpuScheduler::Options{
                      .reservable_fraction = 0.9,
                      .scheduler_overhead_fraction = 0.016,
                      .max_dispatch_latency_ms = 0.2,
                      .seed = options.seed * 13 + 1,
                  });

  const double fps = media::QualityLadder::Standard().levels[1].frame_rate;
  const double measured_seconds =
      static_cast<double>(options.measured_frames) / fps + 5.0;
  const double horizon_seconds = measured_seconds * 4.0;

  // Measured stream.
  media::ReplicaInfo measured_replica =
      MakeReplica(0, measured_seconds, options.seed * 7 + 3);
  net::RtpSessionOptions measured_options;
  measured_options.max_source_frames = options.measured_frames;
  measured_options.record_limit =
      static_cast<size_t>(options.measured_frames);
  net::RtpStreamingSession measured(&simulator, measured_replica,
                                    net::StreamTransform{},
                                    measured_options);

  // Background streams, started at staggered offsets.
  std::vector<std::unique_ptr<net::RtpStreamingSession>> background;
  for (int i = 0; i < level.background_streams; ++i) {
    media::ReplicaInfo replica =
        MakeReplica(100 + i, horizon_seconds, options.seed * 31 + i);
    net::RtpSessionOptions bg_options;
    bg_options.record_limit = 0;  // metrics not needed
    background.push_back(std::make_unique<net::RtpStreamingSession>(
        &simulator, replica, net::StreamTransform{}, bg_options));
  }

  if (options.quasaq) {
    double demand = measured.CpuDemandFraction() * kCpuReservationFactor;
    Status status = measured.AttachReserved(&reservation, demand);
    assert(status.ok());
    (void)status;
    for (auto& session : background) {
      // Ignore reservation failures: admission control simply stops
      // adding background load once the CPU is fully reserved.
      (void)session->AttachReserved(
          &reservation, session->CpuDemandFraction() * kCpuReservationFactor);
    }
  } else {
    measured.AttachTimeSharing(&time_sharing);
    for (auto& session : background) {
      session->AttachTimeSharing(&time_sharing);
    }
  }

  // Best-effort CPU load on the time-sharing scheduler. Each worker
  // task receives its own Poisson job stream; one self-rescheduling
  // arrival closure per worker.
  std::vector<std::unique_ptr<res::WorkQueueTask>> cpu_load;
  std::vector<std::function<void()>> arrival_closures;
  auto add_load = [&](int tasks, double jobs_per_second, double work_min_ms,
                      double work_max_ms, double quantum_ms) {
    if (tasks <= 0 || jobs_per_second <= 0.0) return;
    for (int i = 0; i < tasks; ++i) {
      auto task = std::make_unique<res::WorkQueueTask>(&time_sharing);
      time_sharing.AddTask(task.get(), quantum_ms);
      res::WorkQueueTask* raw = task.get();
      cpu_load.push_back(std::move(task));
      size_t slot = arrival_closures.size();
      arrival_closures.push_back({});
      arrival_closures[slot] = [&, raw, jobs_per_second, work_min_ms,
                                work_max_ms, slot] {
        raw->Submit(rng.Uniform(work_min_ms, work_max_ms), nullptr);
        double gap = rng.Exponential(1.0 / jobs_per_second);
        if (SimTimeToSeconds(simulator.Now()) + gap < horizon_seconds) {
          simulator.ScheduleAfter(SecondsToSimTime(gap),
                                  [&, slot] { arrival_closures[slot](); });
        }
      };
      simulator.ScheduleAfter(
          SecondsToSimTime(rng.Exponential(1.0 / jobs_per_second)),
          [&, slot] { arrival_closures[slot](); });
    }
  };
  add_load(level.query_tasks, level.query_jobs_per_second,
           level.query_work_min_ms, level.query_work_max_ms,
           /*quantum_ms=*/0.0);
  add_load(level.hog_tasks, level.hog_jobs_per_second, level.hog_work_min_ms,
           level.hog_work_max_ms, options.hog_quantum_ms);

  for (auto& session : background) {
    SimTime offset = SecondsToSimTime(rng.Uniform(0.0, 2.0));
    net::RtpStreamingSession* raw = session.get();
    simulator.ScheduleAfter(offset, [raw] { raw->Start(); });
  }
  measured.Start();

  const SimTime horizon = SecondsToSimTime(horizon_seconds);
  while (!measured.finished() && simulator.Now() < horizon &&
         simulator.Step()) {
  }

  InterframeResult result;
  result.frame_times = measured.frame_completion_times();
  result.interframe_ms = measured.InterFrameDelayStats();
  result.intergop_ms = measured.InterGopDelayStats();
  result.ideal_interframe_ms = 1000.0 / fps;
  result.measured_finished = measured.finished();
  return result;
}

}  // namespace quasaq::workload
