// Section 5.2 "Overhead of QuaSAQ": the paper reports that the CPU used
// to process each query (plan generation + cost evaluation + admission)
// is a few milliseconds, and that the reservation scheduler adds ~1.6%
// dispatch overhead. This google-benchmark binary measures our
// per-query planning pipeline and its pieces, and the one-off cost of
// bringing a system up from its catalog.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "core/system.h"
#include "query/parser.h"
#include "workload/traffic.h"

// Every heap allocation this binary makes, counted by the replacement
// global operator new below. Only BM_SystemConstruction reads it.
std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC pairs the inlined malloc/free below with new/delete expressions
// and warns about a mismatch that the replacement makes correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace quasaq;  // NOLINT: benchmark harness

struct PlanningFixture {
  PlanningFixture() {
    core::MediaDbSystem::Options options;
    options.kind = core::SystemKind::kVdbmsQuasaq;
    system = std::make_unique<core::MediaDbSystem>(&simulator, options);
    workload::TrafficOptions traffic_options;
    traffic = std::make_unique<workload::TrafficGenerator>(
        traffic_options, options.library.num_videos,
        options.topology.SiteIds());
  }

  sim::Simulator simulator;
  std::unique_ptr<core::MediaDbSystem> system;
  std::unique_ptr<workload::TrafficGenerator> traffic;
};

PlanningFixture& Fixture() {
  static PlanningFixture* fixture = new PlanningFixture();
  return *fixture;
}

// Full per-query cost: plan generation + LRB ranking + admission +
// release (§5.2: "CPU use for processing each query (a few ms)").
void BM_QuasaqPerQueryOverhead(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  for (auto _ : state) {
    workload::QuerySpec spec = f.traffic->Next();
    Result<core::QualityManager::Admitted> admitted =
        f.system->quality_manager()->AdmitQuery(
            spec.client_site, spec.content, spec.qos, &f.traffic->profile());
    if (admitted.ok()) {
      Status status =
          f.system->quality_manager()->CompleteDelivery(*admitted);
      benchmark::DoNotOptimize(status);
    }
  }
}
BENCHMARK(BM_QuasaqPerQueryOverhead);

void BM_PlanGenerationOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  workload::QuerySpec spec = f.traffic->Next();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  for (auto _ : state) {
    Result<std::vector<core::Plan>> plans =
        generator.Generate(spec.client_site, spec.content, spec.qos);
    benchmark::DoNotOptimize(plans);
  }
}
BENCHMARK(BM_PlanGenerationOnly);

void BM_LrbRankingOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  workload::QuerySpec spec = f.traffic->Next();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  Result<std::vector<core::Plan>> plans =
      generator.Generate(spec.client_site, spec.content, spec.qos);
  core::LrbCostModel lrb;
  core::RuntimeCostEvaluator evaluator(&lrb);
  for (auto _ : state) {
    std::vector<core::Plan> copy = *plans;
    evaluator.Rank(copy, f.system->pool());
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(std::to_string(plans->size()) + " plans");
}
BENCHMARK(BM_LrbRankingOnly);

void BM_AdmissionOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  // Not every sampled query has a plan; reserve the best plan of the
  // first one that does.
  Result<std::vector<core::Plan>> plans = Status::NotFound("no query drawn");
  for (int draws = 0; draws < 100 && (!plans.ok() || plans->empty());
       ++draws) {
    workload::QuerySpec spec = f.traffic->Next();
    plans = generator.Generate(spec.client_site, spec.content, spec.qos);
  }
  if (!plans.ok() || plans->empty()) {
    state.SkipWithError("no sampled query has a plan");
    return;
  }
  res::CompositeQosApi& api = f.system->quality_manager()->qos_api();
  for (auto _ : state) {
    Result<res::ReservationId> reservation =
        api.Reserve(plans->front().resources);
    if (reservation.ok()) {
      Status status = api.Release(*reservation);
      benchmark::DoNotOptimize(status);
    }
  }
}
BENCHMARK(BM_AdmissionOnly);

// A refused admission: every CPU bucket is full, so no plan fits and the
// walk relaxes the window twice (paper §3.2's second chance) before
// giving up. Refusals are the expensive admissions — they walk three
// rankings instead of stopping at the first admitted plan.
void BM_AdmissionRefusedAfterRelaxation(benchmark::State& state) {
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  core::MediaDbSystem system(&simulator, options);
  workload::TrafficGenerator traffic(workload::TrafficOptions(),
                                     options.library.num_videos,
                                     options.topology.SiteIds());
  core::QualityManager& manager = *system.quality_manager();
  // A query with plans whose window the profile can relax twice.
  const core::UserProfile& profile = traffic.profile();
  std::optional<workload::QuerySpec> spec;
  for (int draws = 0; draws < 100 && !spec.has_value(); ++draws) {
    workload::QuerySpec candidate = traffic.Next();
    media::AppQosRange range = candidate.qos.range;
    Result<std::vector<core::Plan>> plans = manager.generator().Generate(
        candidate.client_site, candidate.content, candidate.qos);
    if (plans.ok() && !plans->empty() &&
        profile.RelaxForRenegotiation(range) &&
        profile.RelaxForRenegotiation(range)) {
      spec = candidate;
    }
  }
  if (!spec.has_value()) {
    state.SkipWithError("no sampled query relaxes twice");
    return;
  }
  ResourceVector full;
  for (const BucketId& bucket : system.pool().Buckets()) {
    if (bucket.kind == ResourceKind::kCpu) {
      full.Add(bucket, system.pool().Capacity(bucket));
    }
  }
  if (!system.pool().Acquire(full).ok()) {
    state.SkipWithError("could not fill the CPU buckets");
    return;
  }

  const uint64_t generated_before = manager.stats().plans_generated;
  for (auto _ : state) {
    Result<core::QualityManager::Admitted> admitted = manager.AdmitQuery(
        spec->client_site, spec->content, spec->qos, &profile);
    benchmark::DoNotOptimize(admitted);
    if (admitted.status().code() != StatusCode::kResourceExhausted) {
      state.SkipWithError("admission was not refused for lack of resources");
      return;
    }
  }
  state.counters["plans_per_refusal"] = benchmark::Counter(
      static_cast<double>(manager.stats().plans_generated - generated_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AdmissionRefusedAfterRelaxation)->Unit(benchmark::kMicrosecond);

// Search-space scaling (paper §3.4: fixing the activity order reduces
// the space to O(d^n)): plan-generation cost as the deployment grows.
void BM_PlanGenerationScaling(benchmark::State& state) {
  int sites = static_cast<int>(state.range(0));
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(sites);
  core::MediaDbSystem system(&simulator, options);
  workload::TrafficGenerator traffic(workload::TrafficOptions(),
                                     options.library.num_videos,
                                     options.topology.SiteIds());
  workload::QuerySpec spec = traffic.Next();
  core::PlanGenerator& generator =
      system.quality_manager()->generator();
  size_t plans_seen = 0;
  for (auto _ : state) {
    Result<std::vector<core::Plan>> plans =
        generator.Generate(spec.client_site, spec.content, spec.qos);
    plans_seen = plans.ok() ? plans->size() : 0;
    benchmark::DoNotOptimize(plans);
  }
  state.SetLabel(std::to_string(plans_seen) + " plans/" +
                 std::to_string(sites) + " sites");
}
BENCHMARK(BM_PlanGenerationScaling)->Arg(1)->Arg(3)->Arg(6)->Arg(9);

// Text-path costs (parse + content search).
void BM_ParseQosQuery(benchmark::State& state) {
  const char* text =
      "SELECT video FROM videos WHERE CONTAINS('sunset') AND "
      "SIMILAR(0.2, 0.4, 0.6, 0.8) TOP 3 WITH QOS (resolution >= 320x240, "
      "resolution <= 720x480, framerate >= 15, color >= 12, "
      "format IN (MPEG1, MPEG2), security >= standard)";
  for (auto _ : state) {
    Result<query::ParsedQuery> parsed = query::ParseQuery(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseQosQuery);

// System bring-up from the catalog: library build, metadata load,
// content index, resource pool, telemetry and every layer's metric
// series (§3.3 loads the metadata offline, once). The paper testbed is
// perfbench's paper_replay configuration; text_portal adds 2 replica
// levels, the segment cache and dynamic replication.
// `allocs_per_construction` counts heap allocations made by the
// constructor alone; the destructor runs inside the timed loop too.
void BM_SystemConstruction(benchmark::State& state, bool text_portal) {
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::PaperTestbed();
  options.cost_model = "lrb";
  options.library.max_duration_seconds = 120.0;
  if (text_portal) {
    options.library.min_replica_levels = 2;
    options.library.max_replica_levels = 2;
    options.cache.enabled = true;
    options.replication.enabled = true;
  }
  uint64_t allocations = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    core::MediaDbSystem system(&simulator, options);
    allocations += g_allocations.load(std::memory_order_relaxed) - before;
    core::MediaDbSystem* built = &system;
    benchmark::DoNotOptimize(built);
  }
  state.counters["allocs_per_construction"] = benchmark::Counter(
      static_cast<double>(allocations), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_SystemConstruction, paper_testbed, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SystemConstruction, text_portal, true)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
