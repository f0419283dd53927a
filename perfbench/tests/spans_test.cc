#include "spans.h"

#include <gtest/gtest.h>

#include <string>

namespace quasaq::perfbench {
namespace {

TEST(SpansTest, NestedSpansRecordParentAndRequest) {
  SpanLog log;
  {
    ScopedSpan root(&log, "request", 42);
    { ScopedSpan probe(&log, "plan.explain", 42, true); }
    { ScopedSpan call(&log, "facade.submit", 42); }
  }
  { ScopedSpan next(&log, "request", 43); }
  const std::vector<SpanLog::Span>& spans = log.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[1].request, 42);
  EXPECT_EQ(spans[3].request, 43);
  EXPECT_TRUE(spans[1].probe);
  EXPECT_FALSE(spans[2].probe);
  for (const SpanLog::Span& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[2].end_ns, spans[0].end_ns);
}

TEST(SpansTest, NullLogRecordsNothing) {
  SpanLog log;
  { ScopedSpan span(nullptr, "request", 1); }
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpansTest, DurationsAndProbeTimeSelectSpans) {
  SpanLog first;
  SpanLog second;
  {
    ScopedSpan root(&first, "request", 1);
    { ScopedSpan probe(&first, "plan.rank", 1, true); }
    { ScopedSpan probe(&first, "plan.rank", 1, true); }
  }
  { ScopedSpan probe(&second, "plan.rank", 2, true); }
  EXPECT_EQ(DurationsUs({&first}, "plan.rank").size(), 2u);
  EXPECT_EQ(DurationsUs({&first, &second}, "plan.rank").size(), 3u);
  EXPECT_EQ(DurationsUs({&first}, "request").size(), 1u);
  double probe_us = 0.0;
  for (double us : DurationsUs({&first}, "plan.rank")) probe_us += us;
  EXPECT_DOUBLE_EQ(ProbeSeconds(first) * 1e6, probe_us);
}

TEST(SpansTest, ChromeTraceNamesSpansAndParents) {
  SpanLog log;
  {
    ScopedSpan root(&log, "request", 7);
    ScopedSpan child(&log, "facade.submit", 7);
  }
  { ScopedSpan probe(&log, "plan.rank", 8, true); }
  const std::string json = ChromeTraceJson(log);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"facade.submit\",\"cat\":\"call\""),
            std::string::npos);
  EXPECT_NE(json.find("\"request\":7,\"span\":1,\"parent\":0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"request\":8,\"span\":2,\"parent\":null}"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"probe\""), std::string::npos);
  EXPECT_EQ(ChromeTraceJson(log, 1).find("facade.submit"), std::string::npos);
}

}  // namespace
}  // namespace quasaq::perfbench
