#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace quasaq::obs {

namespace {

// Renders a double the way the Prometheus text format expects.
std::string RenderNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

// Canonical child key: labels sorted by key, serialized "k=v,k=v".
std::string CanonicalKey(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

// Three-way compare of a stored canonical key against the serialization
// `labels` (already sorted) *would* produce, character by character —
// the allocation-free half of the transparent child lookup. Returns
// <0 / 0 / >0 as `key` orders before / equal to / after the labels.
int CompareKeyToLabels(std::string_view key, const Labels& labels) {
  size_t pos = 0;
  auto compare_piece = [&](std::string_view piece) -> int {
    for (char c : piece) {
      if (pos >= key.size()) return -1;  // key is a strict prefix
      if (key[pos] != c) return key[pos] < c ? -1 : 1;
      ++pos;
    }
    return 0;
  };
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) {
      if (int r = compare_piece(",")) return r;
    }
    first = false;
    if (int r = compare_piece(k)) return r;
    if (int r = compare_piece("=")) return r;
    if (int r = compare_piece(v)) return r;
  }
  return pos == key.size() ? 0 : 1;  // leftover key chars order after
}

// Prometheus series suffix: {k="v",k="v"} or empty for no labels.
std::string PromLabelSuffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

// Same but with one extra label appended (for histogram "le").
std::string PromLabelSuffixWith(const Labels& labels, const std::string& key,
                                const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return PromLabelSuffix(extended);
}

std::string JsonLabelObject(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscapeString(k) + "\": \"" + JsonEscapeString(v) + "\"";
  }
  out += '}';
  return out;
}

std::string JsonNumberOrNull(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

std::string JsonEscapeString(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string_view MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

bool MetricsRegistry::ChildKeyLess::operator()(const std::string& a,
                                               const SortedLabelsRef& b) const {
  return CompareKeyToLabels(a, *b.labels) < 0;
}

bool MetricsRegistry::ChildKeyLess::operator()(const SortedLabelsRef& a,
                                               const std::string& b) const {
  return CompareKeyToLabels(b, *a.labels) > 0;
}

void Gauge::Sample(SimTime now, double value) {
  value_.store(value, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  if (history_.samples().size() >= kMaxHistory) {
    ++history_dropped_;
    return;
  }
  history_.Add(now, value);
}

void Gauge::SampleMax(SimTime now, double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (current < value) {
    if (value_.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
      MutexLock lock(&mu_);
      if (history_.samples().size() >= kMaxHistory) {
        ++history_dropped_;
        return;
      }
      history_.Add(now, value);
      return;
    }
  }
}

TimeSeries Gauge::history() const {
  MutexLock lock(&mu_);
  return history_;
}

Histogram::Histogram(const HistogramOptions& options) {
  assert(options.first_bound > 0.0);
  assert(options.growth > 1.0);
  assert(options.bucket_count > 0);
  bounds_.reserve(static_cast<size_t>(options.bucket_count));
  double bound = options.first_bound;
  for (int i = 0; i < options.bucket_count; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // A value lands in the first bucket whose upper bound is >= value;
  // anything beyond the last finite bound goes to the +Inf bucket.
  size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  MutexLock lock(&mu_);
  ++counts_[bucket];
  stats_.Add(value);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  MutexLock lock(&mu_);
  snap.counts = counts_;
  snap.count = stats_.count();
  snap.sum = stats_.mean() * static_cast<double>(stats_.count());
  snap.min = stats_.min();
  snap.max = stats_.max();
  return snap;
}

MetricsRegistry::Family* MetricsRegistry::ResolveFamily(std::string_view name,
                                                        std::string_view help,
                                                        MetricType type) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.type = type;
    family.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else if (it->second.type != type) {
    return nullptr;  // one name, one meaning
  }
  return &it->second;
}

namespace {

// The sorted view of `labels`: `labels` itself when already sorted (the
// common case — instrumented call sites pass at most a couple of pairs
// in order), else a sorted copy placed in `storage`.
const Labels& SortedLabelView(const Labels& labels, Labels& storage) {
  if (std::is_sorted(labels.begin(), labels.end())) return labels;
  storage = labels;
  std::sort(storage.begin(), storage.end());
  return storage;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kCounter);
  if (family == nullptr) return nullptr;
  Labels sorted_storage;
  const Labels& sorted = SortedLabelView(labels, sorted_storage);
  auto it = family->counters.find(SortedLabelsRef{&sorted});
  if (it == family->counters.end()) {
    // Only first registration serializes the canonical key.
    std::string key = CanonicalKey(sorted);
    family->label_sets.emplace(key, labels);
    it = family->counters
             .emplace(std::move(key), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kGauge);
  if (family == nullptr) return nullptr;
  Labels sorted_storage;
  const Labels& sorted = SortedLabelView(labels, sorted_storage);
  auto it = family->gauges.find(SortedLabelsRef{&sorted});
  if (it == family->gauges.end()) {
    std::string key = CanonicalKey(sorted);
    family->label_sets.emplace(key, labels);
    it = family->gauges.emplace(std::move(key), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         const HistogramOptions& options,
                                         const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kHistogram);
  if (family == nullptr) return nullptr;
  Labels sorted_storage;
  const Labels& sorted = SortedLabelView(labels, sorted_storage);
  auto it = family->histograms.find(SortedLabelsRef{&sorted});
  if (it == family->histograms.end()) {
    family->histogram = options;
    std::string key = CanonicalKey(sorted);
    family->label_sets.emplace(key, labels);
    it = family->histograms
             .emplace(std::move(key), std::make_unique<Histogram>(options))
             .first;
  } else {
    // A family has one bucket layout; a mismatched re-registration is
    // the histogram flavor of a type conflict.
    const Histogram& existing = *it->second;
    Histogram probe(options);
    if (existing.bounds() != probe.bounds()) return nullptr;
  }
  return it->second.get();
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, family] : families_) names.push_back(name);
  return names;
}

MetricsRegistry::View MetricsRegistry::BuildView() const {
  View view;
  MutexLock lock(&mu_);
  for (const auto& [name, family] : families_) {
    FamilyView& out = view[name];
    out.type = family.type;
    out.help = family.help;
    auto series_for = [&](const std::string& key) -> SeriesView& {
      SeriesView& series = out.series[key];
      series.labels = family.label_sets.at(key);
      return series;
    };
    for (const auto& [key, counter] : family.counters) {
      series_for(key).value = counter->value();
    }
    for (const auto& [key, gauge] : family.gauges) {
      SeriesView& series = series_for(key);
      series.value = gauge->value();
      series.history = gauge->history();
    }
    for (const auto& [key, histogram] : family.histograms) {
      series_for(key).histogram = histogram->snapshot();
    }
  }
  return view;
}

std::string MetricsRegistry::RenderPrometheus(const View& view) {
  std::string out;
  for (const auto& [name, family] : view) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " +
           std::string(MetricTypeName(family.type)) + "\n";
    for (const auto& [key, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
        case MetricType::kGauge:
          out += name + PromLabelSuffix(series.labels) + " " +
                 RenderNumber(series.value) + "\n";
          break;
        case MetricType::kHistogram: {
          const Histogram::Snapshot& snap = series.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < snap.counts.size(); ++i) {
            cumulative += snap.counts[i];
            std::string le = i < snap.bounds.size()
                                 ? RenderNumber(snap.bounds[i])
                                 : "+Inf";
            out += name + "_bucket" +
                   PromLabelSuffixWith(series.labels, "le", le) + " " +
                   std::to_string(cumulative) + "\n";
          }
          out += name + "_sum" + PromLabelSuffix(series.labels) + " " +
                 RenderNumber(snap.sum) + "\n";
          out += name + "_count" + PromLabelSuffix(series.labels) + " " +
                 std::to_string(snap.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson(const View& view) {
  std::string out = "{\n  \"metrics\": [";
  bool first_family = true;
  for (const auto& [name, family] : view) {
    if (!first_family) out += ',';
    first_family = false;
    out += "\n    {\"name\": \"" + JsonEscapeString(name) + "\", \"type\": \"" +
           std::string(MetricTypeName(family.type)) + "\", \"help\": \"" +
           JsonEscapeString(family.help) + "\", \"series\": [";
    bool first_series = true;
    for (const auto& [key, series] : family.series) {
      if (!first_series) out += ',';
      first_series = false;
      out += "\n      {\"labels\": ";
      out += JsonLabelObject(series.labels);
      switch (family.type) {
        case MetricType::kCounter:
          out += ", \"value\": " + JsonNumberOrNull(series.value) + "}";
          break;
        case MetricType::kGauge: {
          out += ", \"value\": " + JsonNumberOrNull(series.value);
          if (!series.history.empty()) {
            out += ", \"history\": [";
            bool first_sample = true;
            for (const TimeSeries::Sample& s : series.history.samples()) {
              if (!first_sample) out += ", ";
              first_sample = false;
              out += '[';
              out += JsonNumberOrNull(SimTimeToSeconds(s.time)) + ", " +
                     JsonNumberOrNull(s.value) + "]";
            }
            out += ']';
          }
          out += '}';
          break;
        }
        case MetricType::kHistogram: {
          const Histogram::Snapshot& snap = series.histogram;
          out += ", \"count\": " + std::to_string(snap.count) +
                 ", \"sum\": " + JsonNumberOrNull(snap.sum) +
                 ", \"min\": " + JsonNumberOrNull(snap.min) +
                 ", \"max\": " + JsonNumberOrNull(snap.max) +
                 ", \"buckets\": [";
          for (size_t i = 0; i < snap.counts.size(); ++i) {
            if (i > 0) out += ", ";
            std::string le = i < snap.bounds.size()
                                 ? JsonNumberOrNull(snap.bounds[i])
                                 : "\"+Inf\"";
            out += "{\"le\": " + le +
                   ", \"count\": " + std::to_string(snap.counts[i]) + "}";
          }
          out += "]}";
          break;
        }
      }
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  return RenderPrometheus(BuildView());
}

std::string MetricsRegistry::JsonSnapshot() const {
  return RenderJson(BuildView());
}

}  // namespace quasaq::obs
