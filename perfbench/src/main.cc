// QuaSAQ delivery benchmark driver.
//
//   quasaq_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-file <path>]
//
// Prints one line per metric ("name value unit"), then context notes,
// then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 records spans and reports the per-layer metrics.
// Exits non-zero when an operation fails or a check does not hold.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using quasaq::perfbench::Report;
using quasaq::perfbench::RunOptions;

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: quasaq_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\nworkloads:",
               message);
  for (const std::string& name : quasaq::perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    double number = 0.0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseNumber(value, &number) || number < 0 ||
          number != std::floor(number)) {
        return Usage("--seed takes a whole number");
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseNumber(value, &number) || number <= 0) {
        return Usage("--seconds takes a positive number");
      }
      options.seconds = number;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--trace-file") == 0) {
      options.trace_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : quasaq::perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown workload");

  const Report report = quasaq::perfbench::RunWorkload(options);

  std::printf("workload %s  seed %llu  %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced (per-layer metrics)"
                            : "untraced (end-to-end metrics)");
  for (const auto& metric : report.metrics) {
    std::printf("  %-36s %.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  # %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metric.name.c_str(), metric.value);
    json += buf;
    json += "\"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
