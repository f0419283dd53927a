// Admission-pipeline scaling: wall-clock throughput of the delivery hot
// path (admit -> session-table probes -> cancel) under real submitter
// threads, swept over thread count. Each cell runs several times and
// reports the median, min and max admitted/sec, so a difference between
// two builds can be read against the run-to-run spread. The harness also
// double-checks that the lazy plan stream ranks plans bit-identically to
// the eager Generate + Rank oracle (exits non-zero otherwise — the CI
// smoke leg runs `bench_admission_scale --smoke`).
//
// Unlike the simulation harnesses this one measures *wall-clock* time:
// the simulator clock never advances, sessions are admitted and
// cancelled in place, and the numbers are ops on the real machine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/system.h"
#include "simcore/simulator.h"

namespace {

using namespace quasaq;  // NOLINT: experiment harness

constexpr int kSites = 4;
// Runs per sweep cell; odd, so the median is one measured run.
constexpr int kRepetitions = 5;

core::MediaDbSystem::Options BaseOptions() {
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(kSites);
  options.seed = 11;
  // Tiny plan space: the harness measures the admission pipeline, not
  // plan enumeration, so each admit should be dominated by the locks
  // and the session-table work.
  options.quality.generator.enable_transcoding = false;
  options.quality.generator.enable_frame_dropping = false;
  options.quality.generator.enable_relay = false;
  return options;
}

struct SweepResult {
  double admitted_per_sec = 0.0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
};

// `threads` submitters, each pinned to one site (threads round-robin
// over the 4 sites, so with 8 threads two share a site). Each cycle
// admits a delivery, probes the session table a few times (the
// Find-equivalent concurrent readers use), and cancels.
SweepResult RunSweep(int threads, int ops_per_thread,
                     core::MediaDbSystem::ObservabilitySnapshot* obs) {
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, BaseOptions());
  const std::vector<SiteId> sites = system.topology().SiteIds();
  query::QosRequirement qos;  // permissive: every stored replica serves

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t ok = 0, fail = 0;
      for (int op = 0; op < ops_per_thread; ++op) {
        LogicalOid content(static_cast<int64_t>((op + t) % 15));
        core::MediaDbSystem::DeliveryOutcome outcome =
            system.SubmitDelivery(site, content, qos);
        if (!outcome.status.ok()) {
          ++fail;
          continue;
        }
        ++ok;
        // Session-table probes: what concurrent observers (renegotiation,
        // dashboards) do between admit and teardown.
        for (int probe = 0; probe < 4; ++probe) {
          auto record = system.session_manager().Snapshot(outcome.session);
          if (!record.has_value()) ++fail;
        }
        Status cancelled = system.CancelSession(outcome.session);
        if (!cancelled.ok()) ++fail;
      }
      admitted.fetch_add(ok, std::memory_order_relaxed);
      rejected.fetch_add(fail, std::memory_order_relaxed);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(end - start).count();

  SweepResult result;
  result.admitted = admitted.load();
  result.rejected = rejected.load();
  result.admitted_per_sec =
      seconds > 0.0 ? static_cast<double>(result.admitted) / seconds : 0.0;
  if (obs != nullptr) *obs = system.TakeObservabilitySnapshot();
  return result;
}

// Stream vs oracle ranking: the first 64 plans ExplainPlans yields
// must be the first 64 of Generate + Rank on the same system, with
// bit-identical costs. Returns false (and prints the first divergence)
// otherwise.
bool CheckStreamMatchesOracle() {
  constexpr size_t kLimit = 64;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(kSites);
  options.seed = 11;
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, options);
  core::QualityManager& planner = *system.quality_manager();
  query::QosRequirement qos;
  Result<std::vector<core::QualityManager::RankedPlan>> streamed =
      planner.ExplainPlans(SiteId(0), LogicalOid(0), qos, kLimit);
  Result<std::vector<core::Plan>> oracle =
      planner.generator().Generate(SiteId(0), LogicalOid(0), qos);
  if (!streamed.ok() || !oracle.ok()) std::abort();
  std::unique_ptr<core::CostModel> model =
      core::MakeCostModel(options.cost_model, options.seed);
  core::RuntimeCostEvaluator evaluator(model.get());
  evaluator.Rank(*oracle, system.pool());
  const res::PoolSnapshot snapshot = system.pool().Snapshot();
  const size_t expected = std::min(kLimit, oracle->size());
  if (streamed->size() != expected) {
    std::fprintf(stderr, "ranking divergence: %zu streamed vs %zu oracle\n",
                 streamed->size(), expected);
    return false;
  }
  for (size_t i = 0; i < expected; ++i) {
    const core::QualityManager::RankedPlan& got = (*streamed)[i];
    const core::Plan& want = (*oracle)[i];
    const double want_cost = evaluator.EfficiencyCost(want, snapshot);
    if (got.cost != want_cost || got.plan.ToString() != want.ToString()) {
      std::fprintf(stderr,
                   "ranking divergence at rank %zu:\n  streamed %.17g %s\n"
                   "  oracle   %.17g %s\n",
                   i, got.cost, got.plan.ToString().c_str(), want_cost,
                   want.ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int ops_per_thread = smoke ? 200 : 2000;
  const int max_threads = thread_counts.back();

  bench::PrintHeader("Admission pipeline scaling (threads, " +
                     std::to_string(kSites) + " sites, " +
                     std::to_string(kRepetitions) + " runs per cell)");
  const unsigned cores = std::thread::hardware_concurrency();
  bench::JsonWriter json("admission_scale");
  json.Add("sites", static_cast<double>(kSites));
  json.Add("ops_per_thread", static_cast<double>(ops_per_thread));
  json.Add("repetitions", static_cast<double>(kRepetitions));
  json.Add("smoke", smoke ? 1.0 : 0.0);
  json.Add("hardware_concurrency", static_cast<double>(cores));
  if (cores < static_cast<unsigned>(max_threads)) {
    // Submitters time-slice the available cores, so wall-clock
    // admitted/sec cannot exceed the single-core rate regardless of the
    // locking; the sweep still exercises every contention path and the
    // ranking check below, but read the scaling accordingly.
    std::printf("note: %u hardware core(s) < %d threads — wall-clock "
                "scaling is core-bound on this machine\n",
                cores, max_threads);
  }

  std::printf("%8s %14s %14s %14s %10s %10s\n", "threads",
              "median adm/s", "min adm/s", "max adm/s", "admitted",
              "rejected");
  core::MediaDbSystem::ObservabilitySnapshot peak_obs;
  std::vector<double> medians;
  for (int threads : thread_counts) {
    std::vector<double> rates;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    for (int run = 0; run < kRepetitions; ++run) {
      const bool capture = threads == max_threads && run == 0;
      SweepResult result =
          RunSweep(threads, ops_per_thread, capture ? &peak_obs : nullptr);
      rates.push_back(result.admitted_per_sec);
      admitted += result.admitted;
      rejected += result.rejected;
    }
    std::sort(rates.begin(), rates.end());
    const double median = rates[rates.size() / 2];
    medians.push_back(median);
    std::printf("%8d %14.0f %14.0f %14.0f %10llu %10llu\n", threads, median,
                rates.front(), rates.back(),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(rejected));
    std::string prefix = "t";
    prefix += std::to_string(threads);
    json.Add(prefix + ".admitted_per_sec_median", median);
    json.Add(prefix + ".admitted_per_sec_min", rates.front());
    json.Add(prefix + ".admitted_per_sec_max", rates.back());
    json.Add(prefix + ".admitted", static_cast<double>(admitted));
    json.Add(prefix + ".rejected", static_cast<double>(rejected));
  }
  const double scaling =
      medians.front() > 0.0 ? medians.back() / medians.front() : 0.0;
  std::printf("\n%d-thread median over 1-thread median: %.2fx\n",
              max_threads, scaling);
  json.Add("thread_scaling", scaling);

  const bool ranking_ok = CheckStreamMatchesOracle();
  std::printf("plan stream ranking identical to Generate + Rank: %s\n",
              ranking_ok ? "yes" : "NO");
  json.Add("ranking_identical", ranking_ok ? 1.0 : 0.0);

  json.WriteFile();
  // Metrics sidecars from the first run at the peak thread count.
  bench::WriteObservabilitySidecars("admission_scale", peak_obs.prometheus,
                                    peak_obs.metrics_json);
  return ranking_ok ? 0 : 1;
}
