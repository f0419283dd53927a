#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/system.h"
#include "core/utility.h"
#include "query/parser.h"
#include "query_text.h"
#include "simcore/simulator.h"
#include "spans.h"
#include "summary.h"
#include "workload/traffic.h"

namespace quasaq::perfbench {

namespace {

// Each seed draws kStreams distinct arrival streams; episodes replay them
// in turn. A replayed stream admits exactly what it did the first time,
// so admit_share and mean_utility repeat from run to run.
constexpr int kStreams = 4;
constexpr int kRequestsPerStream = 4000;
// A warm-up replays the first 1/kWarmupDivisor of stream 0.
constexpr size_t kWarmupDivisor = 8;
// System constructions timed after each episode, so set-up time is a
// median of many samples spread over the run.
constexpr int kSetupSamplesPerEpisode = 25;
// Spans written to the Chrome trace file (the start of the first traced
// episode), to bound its size.
constexpr size_t kTraceFileSpans = 20000;
// A failed operation or check is described in the notes; beyond this
// many per episode only the count grows.
constexpr size_t kMaxErrors = 8;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// One generated delivery request, with everything the replay needs
// precomputed so the program receives only finished inputs.
struct Request {
  SimTime at = 0;
  workload::QuerySpec spec;
  std::string text;  // the request as TITLE query text
};

enum class Outcome { kAdmitted, kRefused, kFailed };

// Admission refusals (no resources, no satisfying plan) lower the admit
// share; every other non-OK status is a failed operation.
Outcome Classify(const Status& status) {
  if (status.ok()) return Outcome::kAdmitted;
  if (status.code() == StatusCode::kResourceExhausted ||
      status.code() == StatusCode::kNotFound) {
    return Outcome::kRefused;
  }
  return Outcome::kFailed;
}

// What the benchmark saw while replaying one episode.
struct Tally {
  uint64_t requests = 0;
  uint64_t admitted = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;
  double utility_sum = 0.0;
  std::vector<double> admit_us;
  // Traced probes.
  double max_util_sum = 0.0;
  uint64_t max_util_samples = 0;
  uint64_t candidates = 0;
  uint64_t generate_calls = 0;
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
};

// What the program's own counters say once an episode has drained.
struct Counters {
  core::MediaDbSystem::Stats facade;
  core::QualityManager::Stats planner;
  res::CompositeQosApi::Stats reservations;
  double plan_queries = 0.0;  // quasaq_plan_queries_total
  double plans_generated = 0.0;
  double groups_pruned = 0.0;
  double relaxations = 0.0;
  double peak_sessions = 0.0;
  std::optional<cache::SegmentCache::Counters> cache;
  std::optional<repl::ReplicationManager::Stats> replication;
  double residual_util = 0.0;
  double snapshot_ms = 0.0;  // traced episodes only
};

struct Episode {
  size_t stream = 0;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double probe_s = 0.0;  // wall time inside probe spans (traced only)
  Tally tally;
  Counters counters;
  std::unique_ptr<SpanLog> log;  // traced only

  // Requests per second of the timed phase, probes left out.
  double Rate() const {
    const double busy = timed_s - probe_s;
    return busy > 0.0 ? static_cast<double>(tally.requests) / busy : 0.0;
  }
};

// Reads the program's exported quasaq_* series. The registry hands back
// the series the layers registered; rendering the whole exposition
// (TakeObservabilitySnapshot) is timed only in traced episodes.
Counters ReadCounters(core::MediaDbSystem& system, bool time_snapshot) {
  Counters counters;
  counters.facade = system.stats();
  counters.planner = system.quality_manager()->stats();
  counters.reservations = system.qos_api().stats();
  if (time_snapshot) {
    const int64_t start = NowNs();
    const core::MediaDbSystem::ObservabilitySnapshot snapshot =
        system.TakeObservabilitySnapshot();
    counters.snapshot_ms = Seconds(NowNs() - start) * 1e3;
  }
  obs::MetricsRegistry& registry = system.observability().metrics();
  auto counter = [&registry](const char* name) {
    const obs::Counter* series = registry.GetCounter(name, "");
    return series != nullptr ? series->value() : -1.0;
  };
  counters.plan_queries = counter("quasaq_plan_queries_total");
  counters.plans_generated = counter("quasaq_plan_generated_total");
  counters.groups_pruned = counter("quasaq_plan_groups_pruned_total");
  counters.relaxations = counter("quasaq_plan_relaxations_total");
  const obs::Gauge* peak = registry.GetGauge("quasaq_session_peak_count", "");
  counters.peak_sessions = peak != nullptr ? peak->value() : -1.0;
  if (system.cache_manager() != nullptr) {
    counters.cache = system.cache_manager()->TotalCounters();
  }
  if (system.replication_manager() != nullptr) {
    counters.replication = system.replication_manager()->stats();
  }
  // Raw, with no tolerance: residual float drift in the pool's
  // accounting shows here as a number.
  counters.residual_util = system.pool().MaxUtilization();
  return counters;
}

// The accounting invariants every drained episode must satisfy.
void CheckInvariants(const core::MediaDbSystem& system, Episode& episode) {
  const Counters& c = episode.counters;
  Tally& tally = episode.tally;
  auto expect = [&tally](bool holds, const std::string& what) {
    if (!holds) tally.Fail("check failed: " + what);
  };
  expect(c.facade.admitted + c.facade.rejected == c.facade.submitted,
         "admitted + rejected == submitted");
  expect(c.facade.submitted == tally.requests,
         "facade submitted == requests sent (" +
             std::to_string(c.facade.submitted) + " vs " +
             std::to_string(tally.requests) + ")");
  expect(c.facade.admitted == tally.admitted,
         "facade admitted == admitted outcomes");
  expect(c.planner.queries == c.facade.submitted,
         "QualityManager queries == submitted");
  expect(c.plan_queries == static_cast<double>(c.facade.submitted),
         "quasaq_plan_queries_total == submitted");
  expect(system.outstanding_sessions() == 0,
         "no outstanding sessions after drain (" +
             std::to_string(system.outstanding_sessions()) + ")");
  expect(system.qos_api().active_reservations() == 0,
         "no active reservations after drain");
}

// Calls each layer once on the request's inputs, every call under its
// own probe span. All of these are read-only, so a traced episode
// admits exactly what an untraced one does.
void ProbeLayers(core::MediaDbSystem& system,
                 const core::RuntimeCostEvaluator& evaluator,
                 const Request& request, SpanLog* log, int64_t id,
                 Tally& tally) {
  const workload::QuerySpec& spec = request.spec;
  std::optional<query::ParsedQuery> parsed;
  {
    ScopedSpan span(log, "query.parse", id, true);
    Result<query::ParsedQuery> result = query::ParseQuery(request.text);
    if (result.ok()) parsed = std::move(*result);
  }
  if (!parsed.has_value()) {
    tally.Fail("probe: query text no longer parses: " + request.text);
    return;
  }
  {
    ScopedSpan span(log, "query.resolve", id, true);
    const std::vector<LogicalOid> matches = system.ResolveContent(*parsed);
    if (matches.empty() || matches.front() != spec.content) {
      tally.Fail("probe: query text resolves to another video");
    }
  }
  core::QualityManager& planner = *system.quality_manager();
  {
    ScopedSpan span(log, "plan.explain", id, true);
    Result<std::vector<core::QualityManager::RankedPlan>> explained =
        planner.ExplainPlans(spec.client_site, spec.content, spec.qos, 1);
    (void)explained;
  }
  std::vector<core::Plan> candidates;
  {
    ScopedSpan span(log, "plan.generate", id, true);
    Result<std::vector<core::Plan>> generated = planner.generator().Generate(
        spec.client_site, spec.content, spec.qos);
    if (generated.ok()) candidates = std::move(*generated);
  }
  ++tally.generate_calls;
  tally.candidates += candidates.size();
  {
    ScopedSpan span(log, "plan.rank", id, true);
    evaluator.Rank(candidates, system.pool());
  }
  if (!candidates.empty()) {
    ScopedSpan span(log, "resource.overlay_fill", id, true);
    volatile double fill =
        system.pool().OverlayMaxFill(candidates.front().resources);
    (void)fill;
  }
  {
    ScopedSpan span(log, "resource.max_util", id, true);
    tally.max_util_sum += system.pool().MaxUtilization();
    ++tally.max_util_samples;
  }
  if (system.cache_manager() != nullptr) {
    for (const media::ReplicaInfo* replica :
         system.library().ReplicasOf(spec.content)) {
      ScopedSpan span(log, "cache.cached_fraction", id, true);
      volatile double fraction =
          system.cache_manager()->CachedFraction(replica->site, *replica);
      (void)fraction;
    }
  }
}

std::string TitleOf(LogicalOid content) {
  char title[32];
  std::snprintf(title, sizeof(title), "video%02lld",
                static_cast<long long>(content.value()));
  return title;
}

// One submitter replaying Poisson arrival streams in simulated time;
// sessions complete as the simulator advances between arrivals.
class Workload {
 public:
  // Stream k is drawn by `traffic` with its seed replaced by (seed, k).
  // Every request is rendered as query text and parsed back; a
  // requirement that does not survive the round trip is a failed
  // operation.
  Workload(core::MediaDbSystem::Options options,
           workload::TrafficOptions traffic, uint64_t seed,
           bool submit_text)
      : options_(std::move(options)), submit_text_(submit_text) {
    for (int k = 0; k < kStreams; ++k) {
      traffic.seed = seed * 1000003ULL + static_cast<uint64_t>(k);
      workload::TrafficGenerator generator(traffic,
                                           options_.library.num_videos,
                                           options_.topology.SiteIds());
      if (k == 0) profile_.emplace(generator.profile());
      std::vector<Request> stream;
      stream.reserve(kRequestsPerStream);
      SimTime at = 0;
      for (int i = 0; i < kRequestsPerStream; ++i) {
        Request request;
        at += SecondsToSimTime(generator.NextGapSeconds());
        request.at = at;
        request.spec = generator.Next();
        request.text = RenderTitleQuery(TitleOf(request.spec.content),
                                        request.spec.qos);
        Result<query::ParsedQuery> parsed = query::ParseQuery(request.text);
        if (!parsed.ok() || !SameRequirement(parsed->qos, request.spec.qos)) {
          input_errors_.push_back("rendered query does not round-trip: " +
                                  request.text);
        }
        stream.push_back(std::move(request));
      }
      streams_.push_back(std::move(stream));
    }
  }

  const core::MediaDbSystem::Options& options() const { return options_; }
  size_t stream_count() const { return streams_.size(); }
  size_t input_checks() const { return kStreams * kRequestsPerStream; }
  const std::vector<std::string>& input_errors() const {
    return input_errors_;
  }

  /// The timed phase: replays stream `stream` (its first
  /// 1/kWarmupDivisor when `warmup`) against a fresh system.
  void Replay(sim::Simulator& simulator, core::MediaDbSystem& system,
              const core::RuntimeCostEvaluator& evaluator, size_t stream,
              bool warmup, Episode& episode) const {
    SpanLog* log = episode.log.get();
    Tally& tally = episode.tally;
    const std::vector<Request>& requests = streams_[stream];
    const size_t count =
        warmup ? requests.size() / kWarmupDivisor : requests.size();
    tally.admit_us.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const Request& request = requests[i];
      const auto id = static_cast<int64_t>(i);
      ScopedSpan root(log, "request", id);
      {
        ScopedSpan span(log, "sim.advance", id);
        simulator.RunUntil(request.at);
      }
      if (log != nullptr) {
        ProbeLayers(system, evaluator, request, log, id, tally);
      }
      core::MediaDbSystem::DeliveryOutcome outcome;
      const int64_t start = NowNs();
      {
        ScopedSpan span(log, "facade.submit", id);
        if (submit_text_) {
          Result<core::MediaDbSystem::TextQueryOutcome> text =
              system.SubmitTextQuery(request.spec.client_site, request.text,
                                     &*profile_);
          if (!text.ok()) {
            outcome.status = text.status();
          } else {
            if (text->content != request.spec.content) {
              tally.Fail("text query resolved to another video: " +
                         request.text);
            }
            outcome = std::move(text->delivery);
          }
        } else {
          outcome = system.SubmitDelivery(request.spec.client_site,
                                          request.spec.content,
                                          request.spec.qos, &*profile_);
        }
      }
      tally.admit_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      ++tally.requests;
      switch (Classify(outcome.status)) {
        case Outcome::kAdmitted:
          ++tally.admitted;
          tally.utility_sum += core::PresentationUtility(
              outcome.delivered_qos, request.spec.qos.range);
          if (log != nullptr) {
            ScopedSpan span(log, "session.snapshot", id, true);
            if (!system.session_manager().Snapshot(outcome.session)) {
              tally.Fail("admitted session missing from the table");
            }
          }
          break;
        case Outcome::kRefused:
          ++tally.refused;
          break;
        case Outcome::kFailed:
          tally.Fail("delivery request failed: " +
                     outcome.status.ToString());
          break;
      }
    }
  }

  /// Ends every session: stops replication planning and drains the
  /// simulator.
  static void Drain(sim::Simulator& simulator, core::MediaDbSystem& system) {
    if (system.replication_manager() != nullptr) {
      system.replication_manager()->Stop();
    }
    simulator.RunAll();
  }

 private:
  core::MediaDbSystem::Options options_;
  bool submit_text_;
  std::optional<core::UserProfile> profile_;
  std::vector<std::vector<Request>> streams_;
  std::vector<std::string> input_errors_;
};

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  // The paper's system: VDBMS+QuaSAQ with the LRB cost model on its
  // 3-site testbed, videos of at most 120 s.
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::PaperTestbed();
  options.cost_model = "lrb";
  options.seed = seed;
  options.library.max_duration_seconds = 120.0;
  workload::TrafficOptions traffic;
  traffic.fraction_secure = 0.1;
  if (name == "paper_replay") {
    traffic.mean_interarrival_seconds = 1.0;
    return Workload(std::move(options), traffic, seed, false);
  }
  if (name == "text_portal") {
    options.library.min_replica_levels = 2;
    options.library.max_replica_levels = 2;
    options.cache.enabled = true;
    options.replication.enabled = true;
    traffic.mean_interarrival_seconds = 0.5;
    traffic.video_zipf_s = 1.0;
    return Workload(std::move(options), traffic, seed, true);
  }
  return std::nullopt;
}

enum class Mode { kWarmup, kTimed, kTraced };

Episode RunEpisode(const Workload& workload, Mode mode, size_t stream) {
  const bool traced = mode == Mode::kTraced;
  Episode episode;
  episode.stream = stream;
  sim::Simulator simulator;
  const int64_t setup_start = NowNs();
  core::MediaDbSystem system(&simulator, workload.options());
  episode.setup_s = Seconds(NowNs() - setup_start);
  // The benchmark's own evaluator for the plan.rank probe, costing with
  // the same model the system plans with.
  std::unique_ptr<core::CostModel> model = core::MakeCostModel(
      workload.options().cost_model, workload.options().seed);
  core::RuntimeCostEvaluator evaluator(model.get());
  if (traced) episode.log = std::make_unique<SpanLog>();
  const int64_t start = NowNs();
  workload.Replay(simulator, system, evaluator, stream,
                  mode == Mode::kWarmup, episode);
  episode.timed_s = Seconds(NowNs() - start);
  if (traced) episode.probe_s = ProbeSeconds(*episode.log);
  Workload::Drain(simulator, system);
  episode.counters = ReadCounters(system, traced);
  CheckInvariants(system, episode);
  return episode;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string Format(const char* format, double a, double b = 0.0,
                   double c = 0.0, double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

class ReportBuilder {
 public:
  explicit ReportBuilder(Report& report) : report_(report) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      report_.correct = false;
      report_.notes.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    report_.metrics.push_back({name, value, unit});
  }

  // Median of `samples` in microseconds; a metric no call produced
  // reads 0 and says so.
  void AddMedianUs(const std::string& name, std::vector<double> samples,
                   const std::string& workload) {
    if (samples.empty()) {
      report_.notes.push_back(name + ": not exercised by " + workload);
      Add(name, 0.0, "us");
      return;
    }
    const size_t n = samples.size();
    Add(name, Median(std::move(samples)), "us");
    report_.notes.push_back(name + ": " + std::to_string(n) + " calls");
  }

 private:
  Report& report_;
};

// `episodes` starts with one replay of each of the `cycle` streams.
void AddEndToEnd(const std::vector<Episode>& episodes, size_t cycle,
                 std::vector<double> setup_samples, Report& report) {
  ReportBuilder out(report);
  uint64_t requests = 0, admitted = 0;
  double utility_sum = 0.0;
  for (size_t e = 0; e < cycle && e < episodes.size(); ++e) {
    requests += episodes[e].tally.requests;
    admitted += episodes[e].tally.admitted;
    utility_sum += episodes[e].tally.utility_sum;
  }
  // Rate and latency percentiles are taken per episode. Each stream
  // contributes the fast quartile of its replays (the 25th percentile of
  // latencies, the 75th of rates), and the metric is the mean over
  // streams, so every stream weighs the same however many times the run
  // replayed it. Interference from the rest of the machine (other
  // tenants, descheduled virtual CPUs) only ever adds time, and comes in
  // stretches of seconds; the fast quartile of replays is what stays
  // steady from run to run.
  std::vector<std::vector<double>> rates(cycle), p50s(cycle), p99s(cycle);
  std::vector<double> pooled;
  size_t fewest = SIZE_MAX;
  for (const Episode& episode : episodes) {
    std::vector<double> admit_us = episode.tally.admit_us;
    std::sort(admit_us.begin(), admit_us.end());
    fewest = std::min(fewest, admit_us.size());
    if (admit_us.empty()) continue;
    rates[episode.stream].push_back(episode.Rate());
    p50s[episode.stream].push_back(Percentile(admit_us, 50.0));
    p99s[episode.stream].push_back(Percentile(admit_us, 99.0));
    pooled.insert(pooled.end(), admit_us.begin(), admit_us.end());
  }
  if (episodes.size() < cycle || SamplesBeyond(fewest, 99.0) < 10) {
    report.correct = false;
    report.notes.push_back("an episode has too few requests for a p99 (" +
                           std::to_string(fewest) + ")");
    return;
  }
  // Mean over streams of the nearest-rank percentile `p` of replays.
  auto across_streams = [](std::vector<std::vector<double>> values,
                           double p) {
    double sum = 0.0;
    for (std::vector<double>& replays : values) {
      std::sort(replays.begin(), replays.end());
      sum += Percentile(replays, p);
    }
    return sum / static_cast<double>(values.size());
  };
  std::sort(pooled.begin(), pooled.end());
  const size_t setups = setup_samples.size();
  const Quartiles setup = ComputeQuartiles(std::move(setup_samples));
  out.Add("setup_s", setup.median, "s");
  out.Add("deliveries_per_s", across_streams(rates, 75.0), "1/s");
  out.Add("admit_us_p50", across_streams(p50s, 25.0), "us");
  out.Add("admit_us_p99", across_streams(p99s, 25.0), "us");
  out.Add("admit_share", Ratio(static_cast<double>(admitted),
                               static_cast<double>(requests)),
          "ratio");
  out.Add("mean_utility", Ratio(utility_sum, static_cast<double>(admitted)),
          "ratio");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
          "MiB");

  report.notes.push_back(
      "setup_s: median of " + std::to_string(setups) + " constructions" +
      Format(", quartiles %.3g / %.3g / %.3g s", setup.q1, setup.median,
             setup.q3));
  report.notes.push_back(
      "deliveries_per_s, admit_us_p50, admit_us_p99: " +
      std::to_string(episodes.size()) + " episodes over " +
      std::to_string(cycle) + " streams, at least " +
      std::to_string(fewest) + " requests each");
  for (size_t stream = 0; stream < cycle; ++stream) {
    const Quartiles rate = ComputeQuartiles(rates[stream]);
    const Quartiles p99 = ComputeQuartiles(p99s[stream]);
    report.notes.push_back(
        "stream " + std::to_string(stream) + ": " +
        std::to_string(rates[stream].size()) + " replay(s)" +
        Format(", rate quartiles %.1f / %.1f / %.1f", rate.q1, rate.median,
               rate.q3) +
        Format(", p99 quartiles %.1f / %.1f / %.1f us", p99.q1, p99.median,
               p99.q3));
  }
  if (std::optional<Tail> tail = HighestTail(pooled)) {
    report.notes.push_back(
        Format("pooled admit latency: p50 = %.1f us, p%g = %.1f us",
               Percentile(pooled, 50.0), tail->percentile, tail->value) +
        " (the highest percentile with >= 10 samples beyond it), n = " +
        std::to_string(tail->samples));
  }
}

void AddPerLayer(const std::string& workload,
                 const std::vector<Episode>& untraced,
                 const std::vector<Episode>& traced, Report& report) {
  ReportBuilder out(report);
  std::vector<const SpanLog*> logs;
  uint64_t requests = 0, admitted = 0, max_util_samples = 0,
           candidates = 0, generate_calls = 0;
  double max_util_sum = 0.0;
  double queries = 0.0, no_plan = 0.0, reserve_accepted = 0.0,
         reserve_rejected = 0.0, generated = 0.0, pruned = 0.0,
         relaxations = 0.0, peak_sessions = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0, hit_kb = 0.0, miss_kb = 0.0,
         evictions = 0.0;
  double repl_cycles = 0.0, repl_created = 0.0, repl_dropped = 0.0;
  std::vector<double> snapshot_ms, traced_rates;
  for (const Episode& episode : traced) {
    logs.push_back(episode.log.get());
    const Tally& t = episode.tally;
    requests += t.requests;
    admitted += t.admitted;
    max_util_sum += t.max_util_sum;
    max_util_samples += t.max_util_samples;
    candidates += t.candidates;
    generate_calls += t.generate_calls;
    const Counters& c = episode.counters;
    queries += static_cast<double>(c.planner.queries);
    no_plan += static_cast<double>(c.planner.rejected_no_plan);
    reserve_accepted += static_cast<double>(c.reservations.admitted);
    reserve_rejected += static_cast<double>(c.reservations.rejected);
    generated += c.plans_generated;
    pruned += c.groups_pruned;
    relaxations += c.relaxations;
    peak_sessions = std::max(peak_sessions, c.peak_sessions);
    if (c.cache.has_value()) {
      cache_hits += static_cast<double>(c.cache->hits);
      cache_misses += static_cast<double>(c.cache->misses);
      hit_kb += c.cache->hit_kb;
      miss_kb += c.cache->miss_kb;
      evictions += static_cast<double>(c.cache->evictions);
    }
    if (c.replication.has_value()) {
      repl_cycles += static_cast<double>(c.replication->cycles);
      repl_created += static_cast<double>(c.replication->created);
      repl_dropped += static_cast<double>(c.replication->dropped);
    }
    snapshot_ms.push_back(c.snapshot_ms);
    traced_rates.push_back(episode.Rate());
  }
  double residual = 0.0;
  std::vector<double> untraced_rates;
  for (const Episode& episode : untraced) {
    residual = std::max(residual, episode.counters.residual_util);
    untraced_rates.push_back(episode.Rate());
  }
  for (const Episode& episode : traced) {
    residual = std::max(residual, episode.counters.residual_util);
  }
  const auto episodes = static_cast<double>(traced.size());
  const double attempts = reserve_accepted + reserve_rejected;

  out.AddMedianUs("plan.explain_us_p50", DurationsUs(logs, "plan.explain"),
                  workload);
  out.AddMedianUs("plan.generate_us_p50", DurationsUs(logs, "plan.generate"),
                  workload);
  out.Add("plan.candidates_per_query",
          Ratio(static_cast<double>(candidates),
                static_cast<double>(generate_calls)),
          "count");
  out.AddMedianUs("plan.rank_us_p50", DurationsUs(logs, "plan.rank"),
                  workload);
  out.Add("plan.generated_per_query", Ratio(generated, queries), "count");
  out.Add("plan.groups_pruned_per_query", Ratio(pruned, queries), "count");
  out.Add("plan.relaxations_per_query", Ratio(relaxations, queries),
          "count");
  out.Add("plan.no_plan_share", Ratio(no_plan, queries), "ratio");
  out.Add("resource.reserve_accept_ratio", Ratio(reserve_accepted, attempts),
          "ratio");
  out.Add("resource.reserve_attempts_per_query", Ratio(attempts, queries),
          "count");
  out.AddMedianUs("resource.overlay_fill_us_p50",
                  DurationsUs(logs, "resource.overlay_fill"), workload);
  out.Add("resource.mean_max_util",
          Ratio(max_util_sum, static_cast<double>(max_util_samples)),
          "ratio");
  out.Add("resource.pool_residual_util", residual, "ratio");
  report.notes.push_back(
      Format("resource.pool_residual_util = %.17g", residual));
  out.AddMedianUs("session.snapshot_us_p50",
                  DurationsUs(logs, "session.snapshot"), workload);
  out.Add("session.peak_active", peak_sessions, "count");
  double advance_us = 0.0;
  for (double us : DurationsUs(logs, "sim.advance")) advance_us += us;
  out.Add("sim.advance_us_per_delivery",
          Ratio(advance_us, static_cast<double>(requests)), "us");
  out.AddMedianUs("query.parse_us_p50", DurationsUs(logs, "query.parse"),
                  workload);
  out.AddMedianUs("query.resolve_us_p50", DurationsUs(logs, "query.resolve"),
                  workload);
  out.Add("cache.hit_ratio", Ratio(cache_hits, cache_hits + cache_misses),
          "ratio");
  out.Add("cache.hit_kb_ratio", Ratio(hit_kb, hit_kb + miss_kb), "ratio");
  out.Add("cache.evictions_per_delivery",
          Ratio(evictions, static_cast<double>(admitted)), "count");
  out.AddMedianUs("cache.cached_fraction_us_p50",
                  DurationsUs(logs, "cache.cached_fraction"), workload);
  out.Add("repl.cycles", Ratio(repl_cycles, episodes), "count");
  out.Add("repl.created", Ratio(repl_created, episodes), "count");
  out.Add("repl.dropped", Ratio(repl_dropped, episodes), "count");
  out.Add("obs.snapshot_ms", Median(snapshot_ms), "ms");
  out.Add("trace.overhead_ratio",
          Ratio(Median(traced_rates), Median(untraced_rates)), "ratio");
  report.notes.push_back(
      "trace.overhead_ratio: traced deliveries/s (probe time excluded) over "
      "untraced, medians of " +
      std::to_string(traced_rates.size()) + " and " +
      std::to_string(untraced_rates.size()) + " episodes");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_replay",
                                                 "text_portal"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  Report report;
  std::optional<Workload> workload =
      MakeWorkload(options.workload, options.seed);
  if (!workload.has_value()) {
    report.correct = false;
    report.notes.push_back("unknown workload " + options.workload);
    return report;
  }
  report.attempted += workload->input_checks();
  report.failed += workload->input_errors().size();
  for (const std::string& error : workload->input_errors()) {
    if (report.notes.size() < kMaxErrors) report.notes.push_back(error);
  }

  const int64_t run_start = NowNs();
  auto elapsed = [&] { return Seconds(NowNs() - run_start); };
  // A short untimed episode first faults in memory and warms the
  // allocator and caches; its outcomes are still checked.
  std::vector<Episode> warmup;
  warmup.push_back(RunEpisode(*workload, Mode::kWarmup, 0));

  // Untraced episodes fill the run (the first half of it when traced);
  // another episode starts only if the longest so far would still fit.
  // An untraced run always replays every stream once, since admit_share
  // and mean_utility are taken over that cycle. Set-up is sampled in
  // batches between episodes, so its median spans the whole run.
  const size_t cycle = workload->stream_count();
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  std::vector<double> setup_samples;
  size_t next_stream = 0;
  double longest = 0.0;
  auto run = [&](Mode mode, double until, size_t at_least,
                 std::vector<Episode>& out) {
    do {
      const double begin = elapsed();
      out.push_back(RunEpisode(*workload, mode, next_stream++ % cycle));
      longest = std::max(longest, elapsed() - begin);
      for (int i = 0; i < kSetupSamplesPerEpisode; ++i) {
        sim::Simulator simulator;
        const int64_t start = NowNs();
        core::MediaDbSystem system(&simulator, workload->options());
        setup_samples.push_back(Seconds(NowNs() - start));
      }
    } while (out.size() < at_least || elapsed() + longest <= until);
  };
  run(Mode::kTimed, options.trace ? options.seconds / 2.0 : options.seconds,
      options.trace ? 1 : cycle, untraced);
  if (options.trace) run(Mode::kTraced, options.seconds, 1, traced);

  for (const std::vector<Episode>* set : {&warmup, &untraced, &traced}) {
    for (const Episode& episode : *set) {
      report.attempted += episode.tally.requests;
      report.failed += episode.tally.failed;
      for (const std::string& error : episode.tally.errors) {
        report.notes.push_back(error);
      }
    }
  }
  // Same inputs, same simulated outcomes: every episode, traced or not,
  // must admit exactly what the first replay of its stream did.
  std::vector<const Tally*> first(cycle, nullptr);
  for (const std::vector<Episode>* set : {&untraced, &traced}) {
    for (const Episode& episode : *set) {
      const Tally*& reference = first[episode.stream];
      if (reference == nullptr) {
        reference = &episode.tally;
      } else if (episode.tally.admitted != reference->admitted ||
                 episode.tally.refused != reference->refused ||
                 episode.tally.utility_sum != reference->utility_sum) {
        report.correct = false;
        report.notes.push_back("replays of stream " +
                               std::to_string(episode.stream) +
                               " disagree on their outcomes");
      }
    }
  }
  if (report.failed > 0) report.correct = false;

  if (options.trace) {
    AddPerLayer(options.workload, untraced, traced, report);
    if (!options.trace_path.empty()) {
      std::ofstream file(options.trace_path, std::ios::binary);
      file << ChromeTraceJson(*traced.front().log, kTraceFileSpans);
      if (!file) {
        report.correct = false;
        report.notes.push_back("could not write " + options.trace_path);
      } else {
        report.notes.push_back("spans written to " + options.trace_path);
      }
    }
  } else {
    AddEndToEnd(untraced, cycle, std::move(setup_samples), report);
  }
  report.notes.push_back("episodes: " + std::to_string(untraced.size()) +
                         " untraced, " + std::to_string(traced.size()) +
                         " traced");
  return report;
}

}  // namespace quasaq::perfbench
