#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/segment_cache.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/session_manager.h"
#include "core/system.h"
#include "media/activities.h"
#include "media/frames.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resource/composite_api.h"
#include "resource/pool.h"
#include "simcore/simulator.h"

// Multi-threaded stress tests for the subsystems that carry thread-safety
// annotations (src/common/sync.h): ResourcePool, CompositeQosApi,
// SegmentCache/CacheManager, SessionManager and the planning pipeline
// (QualityManager and the MediaDbSystem facade). These are the tests the
// `tsan` CI leg runs under -fsanitize=thread — the annotations promise
// the locking discipline is *declared* correctly; TSan on these
// interleavings checks the declarations describe reality.
//
// The simulator clock stays single-threaded throughout (see the
// SessionManager header): worker threads mutate sessions while the
// clock stands still, and RunAll happens after every thread has joined.

namespace quasaq {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 400;

BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ConcurrencyStressTest, PoolAcquireReleaseNeverCorruptsUsage) {
  res::ResourcePool pool;
  for (int site = 0; site < 4; ++site) {
    ASSERT_TRUE(pool.DeclareBucket(Net(site), 1000.0).ok());
  }
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &admitted, &rejected, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kIterations; ++i) {
        ResourceVector demand;
        demand.Add(Net(static_cast<int>(rng.UniformInt(0, 3))),
                   rng.Uniform(1.0, 400.0));
        if (pool.Acquire(demand).ok()) {
          ++admitted;
          // The snapshot any concurrent reader costs against is
          // internally consistent: usage never exceeds capacity.
          EXPECT_LE(pool.MaxUtilization(), 1.0);
          ASSERT_TRUE(pool.Release(demand).ok());
        } else {
          ++rejected;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted + rejected, uint64_t{kThreads} * kIterations);
  // Every admitted demand was released: the pool drains to zero.
  for (int site = 0; site < 4; ++site) {
    EXPECT_EQ(pool.Used(Net(site)), 0.0);
  }
}

TEST(ConcurrencyStressTest, FrameDropTableFirstTouchFromManyThreads) {
  // ctest runs each test in its own process, so nothing has touched the
  // table yet and the threads race on its one-time fill.
  using Reads = std::array<media::FrameDropEffect,
                           media::kNumVideoFormats *
                               media::kNumFrameDropStrategies>;
  std::vector<Reads> reads(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reads, &start, t] {
      start.arrive_and_wait();
      for (int f = 0; f < media::kNumVideoFormats; ++f) {
        for (int s = 0; s < media::kNumFrameDropStrategies; ++s) {
          reads[static_cast<size_t>(t)]
               [static_cast<size_t>(f * media::kNumFrameDropStrategies + s)] =
                   media::StandardFrameDropEffect(
                       static_cast<media::VideoFormat>(f),
                       static_cast<media::FrameDropStrategy>(s));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f = 0; f < media::kNumVideoFormats; ++f) {
    for (int s = 0; s < media::kNumFrameDropStrategies; ++s) {
      media::FrameDropEffect walked = media::ComputeFrameDropEffect(
          media::GopPattern::StandardFor(static_cast<media::VideoFormat>(f)),
          static_cast<media::FrameDropStrategy>(s));
      const size_t slot =
          static_cast<size_t>(f * media::kNumFrameDropStrategies + s);
      for (const Reads& read : reads) {
        EXPECT_EQ(read[slot].bandwidth_factor, walked.bandwidth_factor);
        EXPECT_EQ(read[slot].frame_rate_factor, walked.frame_rate_factor);
      }
    }
  }
}

TEST(ConcurrencyStressTest, CompositeApiReserveReleaseBalances) {
  res::ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 500.0).ok());
  obs::MetricsRegistry metrics;
  res::CompositeQosApi api(&pool, metrics);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&api, t] {
      Rng rng(2000 + t);
      std::vector<res::ReservationId> held;
      for (int i = 0; i < kIterations; ++i) {
        if (!held.empty() && rng.Bernoulli(0.5)) {
          EXPECT_TRUE(api.Release(held.back()).ok());
          held.pop_back();
        } else {
          ResourceVector demand;
          demand.Add(Net(0), rng.Uniform(1.0, 60.0));
          Result<res::ReservationId> r = api.Reserve(demand);
          if (r.ok()) held.push_back(*r);
        }
      }
      for (res::ReservationId id : held) {
        EXPECT_TRUE(api.Release(id).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(api.active_reservations(), 0u);
  EXPECT_EQ(pool.Used(Net(0)), 0.0);
  res::CompositeQosApi::Stats stats = api.stats();
  EXPECT_EQ(stats.admitted, stats.released);
}

TEST(ConcurrencyStressTest, SegmentCacheReadsFillsAndEvictions) {
  // Tiny capacity: fills, evictions, and rejections all exercised.
  obs::MetricsRegistry metrics;
  cache::SegmentCache segment_cache(
      {.capacity_kb = 64.0, .policy = "lru", .popularity_half_life = 0},
      metrics, "0");
  std::atomic<uint64_t> accesses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&segment_cache, &accesses, t] {
      Rng rng(3000 + t);
      for (int i = 0; i < kIterations; ++i) {
        PhysicalOid replica(static_cast<int>(rng.UniformInt(0, 3)));
        cache::SegmentKey key{replica,
                              static_cast<int32_t>(rng.UniformInt(0, 15))};
        double roll = rng.Uniform(0.0, 1.0);
        if (roll < 0.70) {
          segment_cache.Access(key, 4.0, SimTime(i) * kSecond);
          ++accesses;
        } else if (roll < 0.80) {
          segment_cache.Contains(key);  // planner peek, no side effects
        } else if (roll < 0.90) {
          EXPECT_GE(segment_cache.CachedKbOf(replica), 0.0);
        } else if (roll < 0.95) {
          segment_cache.Erase(key);
        } else {
          segment_cache.EraseReplica(replica);
        }
        EXPECT_LE(segment_cache.used_kb(),
                  segment_cache.capacity_kb() + 1e-9);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  cache::SegmentCache::Counters counters = segment_cache.counters();
  EXPECT_EQ(counters.hits + counters.misses, accesses.load());
  EXPECT_LE(segment_cache.used_kb(), segment_cache.capacity_kb() + 1e-9);
}

TEST(ConcurrencyStressTest, CacheManagerParallelSitesAndInvalidation) {
  std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2), SiteId(3)};
  cache::CacheManager::Options options;
  options.cache.capacity_kb = 512.0;
  options.cache.policy = "utility";
  obs::MetricsRegistry metrics;
  cache::CacheManager manager(sites, options, metrics);

  std::vector<media::ReplicaInfo> replicas(6);
  for (size_t r = 0; r < replicas.size(); ++r) {
    replicas[r].id = PhysicalOid(static_cast<int64_t>(r));
    replicas[r].content = LogicalOid(static_cast<int64_t>(r));
    replicas[r].site = sites[r % sites.size()];
    replicas[r].duration_seconds = 40.0;
    replicas[r].bitrate_kbps = 16.0;
    replicas[r].size_kb = 640.0;
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &replicas, &sites, t] {
      Rng rng(4000 + t);
      for (int i = 0; i < kIterations / 4; ++i) {
        const media::ReplicaInfo& replica =
            replicas[rng.UniformInt(0, static_cast<int>(replicas.size()) - 1)];
        SiteId site = sites[rng.UniformInt(0, 3)];
        double roll = rng.Uniform(0.0, 1.0);
        if (roll < 0.6) {
          manager.OnStream(site, replica, SimTime(i) * kSecond);
        } else if (roll < 0.9) {
          double fraction = manager.CachedFraction(site, replica);
          EXPECT_GE(fraction, 0.0);
          EXPECT_LE(fraction, 1.0);
        } else {
          manager.EraseReplica(replica.id);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (SiteId site : sites) {
    const cache::SegmentCache* c = manager.at(site);
    ASSERT_NE(c, nullptr);
    EXPECT_LE(c->used_kb(), c->capacity_kb() + 1e-9);
  }
  cache::SegmentCache::Counters total = manager.TotalCounters();
  EXPECT_GT(total.hits + total.misses, 0u);
}

// The pause/resume interleaving stress: threads start, pause, resume and
// cancel sessions concurrently while the simulated clock stands still;
// the release-exactly-once invariant must survive every interleaving.
TEST(ConcurrencyStressTest, SessionLifecycleInterleavings) {
  constexpr int kSessionsPerThread = 24;
  sim::Simulator simulator;
  res::ResourcePool pool;
  // Big enough that every Start and every Resume re-admission fits:
  // the invariant under test is bookkeeping, not admission pressure.
  ASSERT_TRUE(
      pool.DeclareBucket(Net(0), 1e9).ok());
  obs::Observability observability;
  res::CompositeQosApi api(&pool, observability.metrics());
  std::atomic<uint64_t> completions{0};
  core::SessionManager manager(
      &simulator, &api, observability,
      [&completions](SessionId, SimTime) { ++completions; });

  // Phase 1: concurrent admissions (reservation-backed and VDBMS-pinned
  // sessions mixed).
  std::vector<std::vector<SessionId>> started(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(5000 + t);
        for (int i = 0; i < kSessionsPerThread; ++i) {
          core::SessionManager::Record record;
          record.content = LogicalOid(i);
          record.site = SiteId(0);
          if (rng.Bernoulli(0.7)) {
            ResourceVector demand;
            demand.Add(Net(0), rng.Uniform(100.0, 900.0));
            Result<res::ReservationId> r = api.Reserve(demand);
            ASSERT_TRUE(r.ok());
            record.reservation = *r;
          } else {
            record.vdbms_kbps = rng.Uniform(100.0, 900.0);
          }
          started[t].push_back(
              manager.Start(record, rng.Uniform(10.0, 120.0)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_EQ(manager.outstanding(), kThreads * kSessionsPerThread);

  // Phase 2: concurrent pause/resume/cancel, each thread also poking
  // sessions owned by its neighbor so transitions genuinely contend.
  std::atomic<uint64_t> cancelled{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(6000 + t);
        const std::vector<SessionId>& mine = started[t];
        const std::vector<SessionId>& neighbor =
            started[(t + 1) % kThreads];
        for (int i = 0; i < kIterations; ++i) {
          const std::vector<SessionId>& from =
              rng.Bernoulli(0.8) ? mine : neighbor;
          SessionId id =
              from[rng.UniformInt(0, static_cast<int>(from.size()) - 1)];
          double roll = rng.Uniform(0.0, 1.0);
          Status status = Status::Ok();
          if (roll < 0.40) {
            status = manager.Pause(id);
          } else if (roll < 0.80) {
            status = manager.Resume(id);
          } else if (roll < 0.85) {
            if (manager.Cancel(id).ok()) ++cancelled;
            continue;
          } else {
            (void)manager.vdbms_active_kbps(SiteId(0));
            continue;
          }
          // Losing a race is legal (already paused / running / gone);
          // resource exhaustion is not — capacity covers everything.
          EXPECT_NE(status.code(), StatusCode::kResourceExhausted)
              << status.ToString();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Drain: resume whatever is still paused, then run the clock out.
  for (const std::vector<SessionId>& ids : started) {
    for (SessionId id : ids) {
      std::optional<core::SessionManager::Record> record =
          manager.Snapshot(id);
      if (record.has_value() && record->paused) {
        EXPECT_TRUE(manager.Resume(id).ok());
      }
    }
  }
  simulator.RunAll();

  EXPECT_EQ(manager.outstanding(), 0);
  EXPECT_EQ(completions.load() + cancelled.load(),
            uint64_t{kThreads} * kSessionsPerThread);
  EXPECT_EQ(manager.completed(), completions.load());
  // Release-exactly-once: every reservation returned, every VDBMS pin
  // unwound, the pool fully drained.
  EXPECT_EQ(api.active_reservations(), 0u);
  EXPECT_EQ(pool.Used(Net(0)), 0.0);
  EXPECT_DOUBLE_EQ(manager.vdbms_active_kbps(SiteId(0)), 0.0);
}

// The full admission pipeline under 8 submitter threads: concurrent
// admit / renegotiate / probe / cancel through the MediaDbSystem facade.
// Each thread owns the sessions it starts, so the races under test are
// the shared layers — the resource pool, the composite QoS API, the
// session table and the metrics registry — not cross-thread session
// ownership.
TEST(ConcurrencyStressTest, FacadeAdmitRenegotiateCancelPipeline) {
  constexpr int kOpsPerThread = 150;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(4);
  options.seed = 17;
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> renegotiated{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      query::QosRequirement wide;
      wide.range.min_frame_rate = 1.0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        LogicalOid content(static_cast<int64_t>((i + 3 * t) % 15));
        core::MediaDbSystem::DeliveryOutcome outcome =
            system.SubmitDelivery(site, content, wide);
        if (!outcome.status.ok()) continue;  // admission pressure is fine
        ++admitted;
        if (rng.Bernoulli(0.4)) {
          Result<core::MediaDbSystem::DeliveryOutcome> changed =
              system.ChangeSessionQos(outcome.session, wide);
          if (changed.ok()) ++renegotiated;
        }
        std::optional<core::SessionManager::Record> record =
            system.session_manager().Snapshot(outcome.session);
        EXPECT_TRUE(record.has_value());
        EXPECT_TRUE(system.CancelSession(outcome.session).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every admitted session was cancelled by its owner: table empty,
  // every reservation handed back, the pool fully drained.
  EXPECT_EQ(system.outstanding_sessions(), 0);
  EXPECT_EQ(system.qos_api().active_reservations(), 0u);
  EXPECT_DOUBLE_EQ(system.pool().MaxUtilization(), 0.0);
  core::MediaDbSystem::Stats stats = system.stats();
  EXPECT_EQ(stats.submitted, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
  // The quality manager's atomic counters reconcile with the outcome
  // tallies (renegotiations happen via ChangeSessionQos, which must not
  // count as fresh queries).
  core::QualityManager::Stats plan_stats =
      system.quality_manager()->stats();
  EXPECT_EQ(plan_stats.queries, stats.submitted);
  EXPECT_EQ(plan_stats.admitted, admitted.load());
  EXPECT_GT(renegotiated.load(), 0u);
  // The exposition renders cleanly after the dust settles.
  core::MediaDbSystem::ObservabilitySnapshot snapshot =
      system.TakeObservabilitySnapshot();
  EXPECT_NE(snapshot.prometheus.find("quasaq_session_started_total"),
            std::string::npos);
}

// The planner itself under 8 threads with the per-query state that used
// to live on the shared QualityManager: the user-satisfaction goal (a
// gain per QoS window) and tracing, each call on its own track.
// Concurrent AdmitQuery (relaxing through a profile), RenegotiateDelivery
// and ExplainPlans must leave the counters reconciled, the pool drained
// and every span closed.
TEST(ConcurrencyStressTest, TracedSatisfactionGoalAdmitRenegotiateExplain) {
  constexpr int kOpsPerThread = 60;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(4);
  options.seed = 23;
  options.quality.goal =
      core::QualityManager::OptimizationGoal::kUserSatisfaction;
  options.observability.tracing = true;
  core::MediaDbSystem system(&simulator, options);
  core::QualityManager& planner = *system.quality_manager();
  obs::Tracer& tracer = system.observability().tracer();
  const std::vector<SiteId> sites = system.topology().SiteIds();
  const core::UserProfile profile(UserId(1), "stress");

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> relaxed{0};
  std::vector<std::vector<int64_t>> tracks(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + t);
      auto context = [&]() {
        core::AdmissionContext ctx;
        ctx.trace_track = tracer.NewTrack("stress " + std::to_string(t));
        ctx.now = simulator.Now();
        tracks[static_cast<size_t>(t)].push_back(ctx.trace_track);
        return ctx;
      };
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      for (int i = 0; i < kOpsPerThread; ++i) {
        LogicalOid content(static_cast<int64_t>((i + 5 * t) % 15));
        query::QosRequirement qos;
        qos.range.min_frame_rate = rng.Uniform(1.0, 25.0);
        if (rng.Bernoulli(0.3)) {
          Result<std::vector<core::QualityManager::RankedPlan>> plans =
              planner.ExplainPlans(site, content, qos, 4);
          EXPECT_TRUE(plans.ok()) << plans.status().ToString();
        }
        Result<core::QualityManager::Admitted> admission =
            planner.AdmitQuery(site, content, qos, &profile, context());
        if (!admission.ok()) continue;  // admission pressure is fine
        ++admitted;
        if (admission->renegotiated) ++relaxed;
        if (rng.Bernoulli(0.5)) {
          query::QosRequirement changed;
          changed.range.min_frame_rate = rng.Uniform(1.0, 25.0);
          Result<core::QualityManager::Admitted> swapped =
              planner.RenegotiateDelivery(admission->reservation, site,
                                          content, changed, &profile,
                                          context());
          if (swapped.ok()) {
            EXPECT_EQ(swapped->reservation, admission->reservation);
          }
        }
        EXPECT_TRUE(planner.CompleteDelivery(*admission).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const core::QualityManager::Stats stats = planner.stats();
  EXPECT_EQ(stats.queries, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.renegotiated, relaxed.load());
  EXPECT_EQ(stats.admitted + stats.rejected_no_plan +
                stats.rejected_no_resources,
            stats.queries);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_EQ(system.qos_api().active_reservations(), 0u);
  EXPECT_DOUBLE_EQ(system.pool().MaxUtilization(), 0.0);
  for (const std::vector<int64_t>& per_thread : tracks) {
    for (int64_t track : per_thread) {
      ASSERT_NE(track, 0);
      EXPECT_EQ(tracer.OpenSpans(track), 0) << "track " << track;
    }
  }
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

// The metrics registry is the one object every instrumented subsystem
// shares, so it gets hammered from all sides: lookups (which mutate the
// family maps), CAS-loop increments, histogram observes, and full
// exposition renders, all concurrently.
TEST(ConcurrencyStressTest, MetricsRegistrySharedAndLabeledUpdates) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string thread_label = std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        // Re-resolving every iteration stresses the registry lock, not
        // just the instruments.
        registry.GetCounter("quasaq_stress_ops_total", "all threads")
            ->Increment();
        registry
            .GetCounter("quasaq_stress_thread_ops_total", "per thread",
                        {{"thread", thread_label}})
            ->Increment();
        registry.GetGauge("quasaq_stress_level_count", "last writer wins")
            ->Set(static_cast<double>(i));
        registry
            .GetHistogram("quasaq_stress_value_count", "observations",
                          obs::HistogramOptions{1.0, 2.0, 8})
            ->Observe(static_cast<double>(i % 50));
        if (i % 97 == 0) {
          EXPECT_FALSE(registry.PrometheusText().empty());
          EXPECT_FALSE(registry.JsonSnapshot().empty());
          EXPECT_GE(registry.MetricNames().size(), 1u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The lock-free CAS loop must not lose increments.
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("quasaq_stress_ops_total", "all threads")->value(),
      static_cast<double>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry
            .GetCounter("quasaq_stress_thread_ops_total", "per thread",
                        {{"thread", std::to_string(t)}})
            ->value(),
        static_cast<double>(kIterations));
  }
  EXPECT_EQ(registry
                .GetHistogram("quasaq_stress_value_count", "observations",
                              obs::HistogramOptions{1.0, 2.0, 8})
                ->count(),
            uint64_t{kThreads} * kIterations);
}

// Spans from many deliveries interleave in the shared event buffer but
// each track keeps its own stack; concurrent exports must see a
// consistent buffer.
TEST(ConcurrencyStressTest, TracerParallelTracksStayBalanced) {
  obs::Tracer tracer;
  std::vector<int64_t> tracks(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    tracks[t] = tracer.NewTrack("stress track " + std::to_string(t));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &tracks, t] {
      const int64_t track = tracks[t];
      for (int i = 0; i < kIterations; ++i) {
        tracer.Begin(track, "delivery", SimTime(i));
        tracer.Begin(track, "plan.enumerate", SimTime(i));
        tracer.Instant(track, "plan.relax", SimTime(i));
        tracer.End(track, SimTime(i));
        if (i % 3 == 0) {
          tracer.End(track, SimTime(i));
        } else {
          tracer.EndAll(track, SimTime(i));
        }
        if (i % 101 == 0) {
          (void)tracer.snapshot();
          (void)tracer.event_count();
          EXPECT_FALSE(tracer.ChromeTraceJson().empty());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);
  for (int64_t track : tracks) {
    EXPECT_EQ(tracer.OpenSpans(track), 0);
  }
}

// SetLogLevel/GetLogLevel are an atomic, so readers may race the writer
// freely; every LogMessage consults the level in its constructor. The
// messages themselves stay below the flipped levels so the test is
// silent — the point is the level handshake, not the output.
TEST(ConcurrencyStressTest, LogLevelFlipsWhileEveryThreadLogs) {
  const LogLevel initial = GetLogLevel();
  std::atomic<bool> stop{false};
  std::thread flipper([&stop] {
    const LogLevel levels[] = {LogLevel::kInfo, LogLevel::kWarning,
                               LogLevel::kError};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      SetLogLevel(levels[i++ % 3]);
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        QUASAQ_LOG(kDebug) << "thread " << t << " iteration " << i;
        LogLevel seen = GetLogLevel();
        EXPECT_GE(static_cast<int>(seen),
                  static_cast<int>(LogLevel::kDebug));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  SetLogLevel(initial);
}

}  // namespace
}  // namespace quasaq
