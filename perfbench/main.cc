/// \file main.cc
/// \brief dfbench: runs one benchmark workload and prints its metrics.
///
///   dfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--trace-out PATH]
///
/// Prints a human-readable table of every figure, then, as the last line
/// of standard output, one JSON object with the keys correct, attempted,
/// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
/// with --trace 1 they are the per-layer ones and the spans go to
/// --trace-out. Exits non-zero, printing no result, when set-up fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: dfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "workloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

/// A finite number with all its digits (JSON has no NaN or infinity).
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const perfbench::MetricMap& metrics) {
  std::printf("-- %s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("%-40s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      config.trace_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || config.seconds <= 0) {
    Usage();
    return 2;
  }

  auto outcome = perfbench::RunWorkload(config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "dfbench: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : outcome->notes) {
    std::fprintf(stderr, "dfbench: mismatch: %s\n", note.c_str());
  }
  std::printf("== %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  PrintTable(config.trace ? "per-layer" : "end-to-end", outcome->metrics);
  if (!outcome->extra.empty()) PrintTable("workload-specific", outcome->extra);

  std::string json = "{\"correct\": ";
  json += outcome->correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome->attempted);
  json += ", \"failed\": " + std::to_string(outcome->failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : outcome->metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
