// Tracer unit tests plus the golden end-to-end trace: a full
// admit -> renegotiate -> complete delivery on a traced MediaDbSystem
// must produce per-track events that obey B/E stack discipline (which
// is what gives Perfetto correct span nesting).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/trace.h"

namespace quasaq::obs {
namespace {

TEST(TracerTest, SpansFollowStackDiscipline) {
  Tracer tracer;
  int64_t track = tracer.NewTrack("delivery content=0");
  ASSERT_NE(track, 0);
  tracer.Begin(track, "plan.enumerate", 10);
  tracer.Begin(track, "plan.reserve", 10, {{"site", "2"}});
  EXPECT_EQ(tracer.OpenSpans(track), 2);
  tracer.End(track, 10);  // closes plan.reserve
  EXPECT_EQ(tracer.OpenSpans(track), 1);
  tracer.End(track, 20);  // closes plan.enumerate
  EXPECT_EQ(tracer.OpenSpans(track), 0);
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);

  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].name, "plan.enumerate");
  EXPECT_EQ(events[0].category, "plan");
  EXPECT_EQ(events[1].phase, 'B');
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "site");
  // 'E' events carry no name (the matching 'B' names the span) but do
  // carry the popped span's category.
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_TRUE(events[2].name.empty());
  EXPECT_EQ(events[2].category, "plan");
  EXPECT_EQ(events[3].ts, 20);
}

TEST(TracerTest, MismatchedEndIsCountedNotRecorded) {
  Tracer tracer;
  int64_t track = tracer.NewTrack("t");
  tracer.End(track, 5);
  EXPECT_EQ(tracer.unbalanced_ends(), 1u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, EndAllClosesEveryOpenSpan) {
  Tracer tracer;
  int64_t track = tracer.NewTrack("t");
  tracer.Begin(track, "delivery", 0);
  tracer.Begin(track, "session.stream", 1);
  tracer.Begin(track, "session.paused", 2);
  tracer.EndAll(track, 9);
  EXPECT_EQ(tracer.OpenSpans(track), 0);
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 6u);
  // Innermost first: paused, stream, delivery.
  EXPECT_EQ(events[3].category, "session");
  EXPECT_EQ(events[4].category, "session");
  EXPECT_EQ(events[5].category, "delivery");
  EXPECT_EQ(events[5].ts, 9);
}

TEST(TracerTest, InstantEventsRecordPointsInTime) {
  Tracer tracer;
  int64_t track = tracer.NewTrack("t");
  tracer.Instant(track, "plan.relax", 7, {{"round", "1"}});
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].name, "plan.relax");
  EXPECT_EQ(events[0].ts, 7);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Options options;
  options.enabled = false;
  Tracer tracer(options);
  int64_t track = tracer.NewTrack("t");
  EXPECT_EQ(track, 0);
  tracer.Begin(track, "delivery", 0);
  tracer.Instant(track, "plan.relax", 1);
  tracer.End(track, 2);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);
}

// Past max_events, Begin/Instant drop (and count) but End still closes
// previously recorded spans so the exported trace stays balanced.
TEST(TracerTest, EventCapDropsBeginsButKeepsEnds) {
  Tracer::Options options;
  options.max_events = 3;
  Tracer tracer(options);
  int64_t track = tracer.NewTrack("t");
  tracer.Begin(track, "a", 1);
  tracer.Begin(track, "b", 2);
  tracer.Begin(track, "c", 3);
  tracer.Begin(track, "d", 4);  // over the cap: dropped
  tracer.Instant(track, "i", 5);  // dropped
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 2u);
  EXPECT_EQ(tracer.OpenSpans(track), 4);
  for (int i = 0; i < 4; ++i) tracer.End(track, 6);
  EXPECT_EQ(tracer.OpenSpans(track), 0);
  EXPECT_EQ(tracer.event_count(), 7u);  // the 4 Ends bypassed the cap
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);
}

TEST(TracerTest, ChromeTraceJsonNamesTracksAndEvents) {
  Tracer tracer;
  int64_t track = tracer.NewTrack("delivery content=3 site=1");
  tracer.Begin(track, "delivery", 0, {{"content", "3"}});
  tracer.Instant(track, "delivery.rejected", 4);
  tracer.End(track, 4);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("delivery content=3 site=1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  // Instants are thread-scoped so Perfetto draws them on the track.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

}  // namespace
}  // namespace quasaq::obs

namespace quasaq::core {
namespace {

// Replays a track's B/E events as a stack. Returns false (with a
// message in *why) when an End arrives with no open span or spans stay
// open at the end of the trace.
bool CheckStackDiscipline(const std::vector<obs::Tracer::Event>& events,
                          int64_t track, std::string* why) {
  std::vector<std::string> stack;
  SimTime last_ts = 0;
  for (const obs::Tracer::Event& event : events) {
    if (event.track != track) continue;
    if (event.ts < last_ts) {
      *why = "timestamps regress on track";
      return false;
    }
    last_ts = event.ts;
    if (event.phase == 'B') {
      stack.push_back(event.name);
    } else if (event.phase == 'E') {
      if (stack.empty()) {
        *why = "E with no open span";
        return false;
      }
      stack.pop_back();
    }
  }
  if (!stack.empty()) {
    *why = "span still open at end of trace: " + stack.back();
    return false;
  }
  return true;
}

TEST(TraceGoldenTest, AdmitRenegotiateCompleteProducesNestedSpans) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.library.max_duration_seconds = 90.0;
  options.observability.tracing = true;
  MediaDbSystem system(&simulator, options);

  query::QosRequirement low;
  low.range.min_frame_rate = 1.0;
  low.range.max_resolution = media::kResolutionSif;
  query::QosRequirement high;
  high.range.min_resolution = media::kResolutionSvcd;
  high.range.min_color_depth_bits = 24;
  high.range.min_frame_rate = 20.0;

  MediaDbSystem::DeliveryOutcome start =
      system.SubmitDelivery(SiteId(0), LogicalOid(0), low);
  ASSERT_TRUE(start.status.ok());
  Result<MediaDbSystem::DeliveryOutcome> upgraded =
      system.ChangeSessionQos(start.session, high);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  simulator.RunAll();

  const obs::Tracer& tracer = system.observability().tracer();
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);

  std::vector<obs::Tracer::Event> events = tracer.snapshot();
  ASSERT_FALSE(events.empty());

  // Every track must balance; every phase of the session's life must
  // appear as a span somewhere in the trace.
  std::set<int64_t> tracks;
  std::set<std::string> span_names;
  for (const obs::Tracer::Event& event : events) {
    tracks.insert(event.track);
    if (event.phase == 'B') span_names.insert(event.name);
  }
  for (int64_t track : tracks) {
    std::string why;
    EXPECT_TRUE(CheckStackDiscipline(events, track, &why))
        << "track " << track << ": " << why;
  }
  for (const char* required :
       {"delivery", "delivery.admit", "plan.enumerate", "plan.reserve",
        "session.stream", "session.renegotiate"}) {
    EXPECT_TRUE(span_names.count(required))
        << "missing span: " << required;
  }

  // The admit span is a sibling of the streaming span, not its parent:
  // admission fully closes before SessionManager starts the stream.
  // Verify on the (single) delivery track by replaying depths.
  ASSERT_EQ(tracks.size(), 1u);
  int depth = 0;
  int admit_close_depth = -1;
  int stream_open_depth = -1;
  std::vector<std::string> stack;
  for (const obs::Tracer::Event& event : events) {
    if (event.phase == 'B') {
      stack.push_back(event.name);
      ++depth;
      if (event.name == "session.stream") stream_open_depth = depth;
    } else if (event.phase == 'E') {
      if (!stack.empty() && stack.back() == "delivery.admit") {
        admit_close_depth = depth;
      }
      stack.pop_back();
      --depth;
    }
  }
  EXPECT_EQ(admit_close_depth, 2);   // delivery > delivery.admit
  EXPECT_EQ(stream_open_depth, 2);   // delivery > session.stream

  // The exported JSON is loadable structure-wise: it mentions the
  // track metadata and both span phases.
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

  // The metrics side of the snapshot reconciles with the trace: one
  // session started and completed, at least one renegotiation round.
  MediaDbSystem::ObservabilitySnapshot snapshot =
      system.TakeObservabilitySnapshot();
  EXPECT_NE(snapshot.prometheus.find("quasaq_session_started_total 1"),
            std::string::npos);
  EXPECT_NE(snapshot.prometheus.find("quasaq_session_completed_total 1"),
            std::string::npos);
  EXPECT_NE(snapshot.metrics_json.find("quasaq_plan_queries_total"),
            std::string::npos);
  EXPECT_FALSE(snapshot.trace_json.empty());

  // With the cache off there are no cache-served twins, so every
  // materialized plan was first a candidate before static pruning.
  obs::MetricsRegistry& metrics = system.observability().metrics();
  double candidates =
      metrics.GetCounter("quasaq_plan_candidates_total", "")->value();
  double generated =
      metrics.GetCounter("quasaq_plan_generated_total", "")->value();
  EXPECT_GT(generated, 0.0);
  EXPECT_GE(candidates, generated);
}

// Regression: renegotiating a *paused* session plans against the pool
// but must not masquerade as a fresh query — before the fix it bumped
// quasaq_plan_queries_total and opened a delivery.admit span, so every
// paused renegotiation double-counted in the admission metrics. It is
// also counted exactly once per renegotiation call, no matter how many
// relaxation rounds the planner retries internally.
TEST(TraceGoldenTest, PausedRenegotiationCountsOnceAndNotAsQuery) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.library.max_duration_seconds = 90.0;
  options.observability.tracing = true;
  MediaDbSystem system(&simulator, options);

  query::QosRequirement low;
  low.range.min_frame_rate = 1.0;
  low.range.max_resolution = media::kResolutionSif;

  MediaDbSystem::DeliveryOutcome start =
      system.SubmitDelivery(SiteId(0), LogicalOid(0), low);
  ASSERT_TRUE(start.status.ok());
  ASSERT_TRUE(system.PauseSession(start.session).ok());

  query::QosRequirement high;
  high.range.min_resolution = media::kResolutionSvcd;
  high.range.min_color_depth_bits = 24;
  high.range.min_frame_rate = 20.0;
  // The paused replan only tests the fit: it reserves nothing, so the
  // reservation counters do not move.
  obs::MetricsRegistry& metrics = system.observability().metrics();
  obs::Counter* accepted =
      metrics.GetCounter("quasaq_resource_reserve_accepted_total", "");
  obs::Counter* rejected =
      metrics.GetCounter("quasaq_resource_reserve_rejected_total", "");
  ASSERT_NE(accepted, nullptr);
  ASSERT_NE(rejected, nullptr);
  const double accepted_before = accepted->value();
  const double rejected_before = rejected->value();
  Result<MediaDbSystem::DeliveryOutcome> replanned =
      system.ChangeSessionQos(start.session, high);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_EQ(accepted->value(), accepted_before);
  EXPECT_EQ(rejected->value(), rejected_before);

  ASSERT_TRUE(system.ResumeSession(start.session).ok());
  simulator.RunAll();

  // One admission, one renegotiation — the paused replan is neither a
  // second query nor a second admit span.
  MediaDbSystem::ObservabilitySnapshot snapshot =
      system.TakeObservabilitySnapshot();
  EXPECT_NE(snapshot.prometheus.find("quasaq_plan_queries_total 1"),
            std::string::npos);
  EXPECT_NE(snapshot.prometheus.find("quasaq_plan_renegotiations_total 1"),
            std::string::npos);

  int admit_begins = 0;
  int renegotiate_begins = 0;
  for (const obs::Tracer::Event& event :
       system.observability().tracer().snapshot()) {
    if (event.phase != 'B') continue;
    if (event.name == "delivery.admit") ++admit_begins;
    if (event.name == "session.renegotiate") ++renegotiate_begins;
  }
  EXPECT_EQ(admit_begins, 1);
  EXPECT_EQ(renegotiate_begins, 1);
}

TEST(TraceGoldenTest, TracingOffByDefaultRecordsNothing) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  MediaDbSystem system(&simulator, options);
  query::QosRequirement qos;
  ASSERT_TRUE(
      system.SubmitDelivery(SiteId(0), LogicalOid(0), qos).status.ok());
  simulator.RunAll();
  EXPECT_EQ(system.observability().tracer().event_count(), 0u);
}

}  // namespace
}  // namespace quasaq::core
