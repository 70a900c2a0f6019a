/// \file workloads.h
/// \brief The benchmark's four workloads and the closed-loop load generator
/// that measures them.
///
///   paper_mix_wire  — the Section 3.2 ten-query mix as RAQL text over
///                     loopback DFW1 to an in-process net::Server, 4 clients.
///   events_rw       — 1M sessionized Zipfian events with a grid file:
///                     3 reader clients (prepared selective reads) beside
///                     1 writer client (appends and deletes), in-process
///                     through Scheduler::Submit.
///   paper_mix_dist  — the ten-query mix through dist::Coordinator over
///                     3 in-process workers, 1 client.
///   paper_mix_sim   — MachineSimulator::Run on the ten-query mix at page
///                     granularity, 1 thread.
///
/// Every read is checked exactly against the ReferenceExecutor (see
/// oracle.h); the events_rw writer is checked against a serial replay.

#ifndef DFDB_PERFBENCH_WORKLOADS_H_
#define DFDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured interval. The traced run splits it into alternating
  /// untraced/traced slices of a quarter each.
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
  /// Databases the run is spread over; 0 takes the workload's default.
  /// The self-test sets it to keep its runs short.
  int databases = 0;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricMap metrics;
  /// Workload-specific end-to-end figures that not every workload has
  /// (write latencies, simulated makespan, error rate). Printed in the
  /// human-readable table; the traced run also reports them as metrics.
  MetricMap extra;
  /// Descriptions of the first mismatches, for diagnosis.
  std::vector<std::string> notes;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Sets up, verifies and measures one workload.
dfdb::StatusOr<RunOutcome> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_WORKLOADS_H_
