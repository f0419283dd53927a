#ifndef QUASAQ_PERFBENCH_SPANS_H_
#define QUASAQ_PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Wall-clock spans of the traced run. The benchmark opens one span
// around each call it makes into a layer's public functions; spans of
// one delivery request share its request id, and each span names the
// span that was open when it began as its parent. Spans stay in memory
// and are written as Chrome trace-event JSON, which Perfetto loads, once
// the run ends.

namespace quasaq::perfbench {

/// Nanoseconds on the steady clock since the first call.
int64_t NowNs();

class SpanLog {
 public:
  struct Span {
    const char* name = "";  // a string literal
    int64_t request = 0;    // shared by every span of one request
    int32_t parent = -1;    // index into the same log; -1 for a root
    // True for a call the benchmark adds only when tracing (a probe of
    // one layer on the request's inputs), as opposed to a call the
    // untraced run makes as well.
    bool probe = false;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, int64_t request, bool probe);
  /// Closes span `index`, which must be the innermost open one.
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for its lifetime; does nothing when `log` is null, which
/// is how the untraced run skips recording.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request,
             bool probe = false)
      : log_(log),
        index_(log != nullptr ? log->Begin(name, request, probe) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Durations, in microseconds, of every span called `name` in `logs`.
std::vector<double> DurationsUs(const std::vector<const SpanLog*>& logs,
                                std::string_view name);

/// Summed duration, in seconds, of the probe spans in `log`.
double ProbeSeconds(const SpanLog& log);

/// Chrome trace-event JSON of the first `max_spans` spans of `log`: one
/// complete ("X") event per span with its request id, its own id and its
/// parent's id in args.
std::string ChromeTraceJson(const SpanLog& log, size_t max_spans = SIZE_MAX);

}  // namespace quasaq::perfbench

#endif  // QUASAQ_PERFBENCH_SPANS_H_
