#include "spans.h"

#include <cassert>
#include <chrono>
#include <cstdio>

namespace quasaq::perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int32_t SpanLog::Begin(const char* name, int64_t request, bool probe) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.probe = probe;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  assert(!open_.empty() && open_.back() == index);
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> DurationsUs(const std::vector<const SpanLog*>& logs,
                                std::string_view name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& span : log->spans()) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                      1e3);
      }
    }
  }
  return out;
}

double ProbeSeconds(const SpanLog& log) {
  int64_t total_ns = 0;
  for (const SpanLog::Span& span : log.spans()) {
    if (span.probe) total_ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total_ns) / 1e9;
}

std::string ChromeTraceJson(const SpanLog& log, size_t max_spans) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  const std::vector<SpanLog::Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size() && i < max_spans; ++i) {
    const SpanLog::Span& span = spans[i];
    // A span's id is its index in the log.
    char parent[24] = "null";
    if (span.parent >= 0) {
      std::snprintf(parent, sizeof(parent), "%d", span.parent);
    }
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
        "\"span\":%zu,\"parent\":%s}}",
        i == 0 ? "" : ",", span.name, span.probe ? "probe" : "call",
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3,
        static_cast<long long>(span.request), i, parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace quasaq::perfbench
