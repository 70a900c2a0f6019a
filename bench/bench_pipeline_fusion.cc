/// \file bench_pipeline_fusion.cc
/// \brief FUSION — pipelined operator fusion on the ten-query mix.
///
/// Runs the paper's ten-query benchmark both ways on the machine simulator:
/// materialized (every operator is an instruction; restrict results ride
/// the outer ring to the consuming IC) vs fused (the optimizer's per-edge
/// marks fold restrict-over-base producers into the consumer's operand, so
/// the IC filters during staging compaction and the restrict never occupies
/// an IP). Q1/Q2 are restrict-only roots — nothing to fold — so the
/// pipelineable subset is Q3..Q10; the aggregate speedup over that subset
/// is the headline gauge (`pipeline.q3_q10_speedup_x`).
///
/// One engine batch run per policy rides along so the report also carries
/// the threads backend's `engine.pipeline.*` counter family.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/run.h"
#include "machine/simulator.h"
#include "ra/optimizer.h"

namespace dfdb {
namespace {

int Main(int argc, char** argv) {
  // Default scale 0.4: large enough that every query moves real pages,
  // small enough that the quadratic join page-pair work of Q9/Q10 does not
  // swamp the restrict edges being measured (at scale 1.0 the mix is
  // join-bound and no pipelining decision is visible in the makespan).
  const double scale = bench::FlagDouble(argc, argv, "scale", 0.4);
  // Fusion removes whole instructions, so its makespan win shows when IPs
  // are scarce enough that restricts compete with joins for processor time
  // — with spare IPs the restricts hide behind the join entirely. Default
  // to the paper's minimal configuration: one IP, 1 KB pages (Section 3.3
  // reasons about 1 KB pages; small pages maximize the per-page dispatch
  // overhead that folding eliminates).
  const int ips = bench::FlagInt(argc, argv, "ips", 1);
  const int page_bytes = bench::FlagInt(argc, argv, "pagebytes", 1000);
  std::printf("== FUSION: fused vs materialized pipeline edges ==\n");
  StorageEngine storage(page_bytes);
  bench::BuildDatabaseOrDie(&storage, scale);

  // Optimizer-marked plans: DecidePipelining chooses per edge from catalog
  // stats; the fused runs honor exactly those marks.
  Optimizer optimizer(&storage.catalog());
  std::vector<Query> queries = MakePaperBenchmarkQueries();
  std::vector<PlanNodePtr> optimized;
  std::vector<int> fused_edges;
  for (const Query& q : queries) {
    OptimizerReport report;
    auto plan = optimizer.Optimize(*q.root, &report);
    DFDB_CHECK(plan.ok()) << plan.status();
    optimized.push_back(std::move(*plan));
    fused_edges.push_back(report.edges_fused);
  }

  MachineOptions base;
  base.config.num_instruction_processors = ips;
  base.config.page_bytes = page_bytes;
  // Mode 0 materializes every edge, mode 1 honors the optimizer's marks.
  // Both isolate the fusion variable: near-data pushdown would pre-filter
  // the restricts during staging in both modes and mask the edge decision.
  const std::vector<PlanNodePtr> mode_plans[2] = {
      bench::WithPolicy(storage.catalog(), optimized,
                        {.pipeline = PipelinePolicy::kForceMaterialize,
                         .pushdown = PushdownPolicy::kForceOff}),
      bench::WithPolicy(storage.catalog(), optimized,
                        {.pushdown = PushdownPolicy::kForceOff}),
  };

  bench::Table table({"query", "fused_edges", "materialized_s", "fused_s",
                      "speedup_x", "pages_elided"});
  double subset_mat = 0.0, subset_fused = 0.0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    double secs[2];
    uint64_t elided = 0;
    for (int mode = 0; mode < 2; ++mode) {
      MachineSimulator sim(&storage, base);
      auto report = sim.Run({mode_plans[mode][qi].get()});
      DFDB_CHECK(report.ok()) << report.status();
      secs[mode] = report->makespan.ToSecondsF();
      if (mode == 1) elided = report->pipeline.pages_elided;
    }
    if (queries[qi].id >= 3) {
      subset_mat += secs[0];
      subset_fused += secs[1];
    }
    table.AddRow({queries[qi].name, StrFormat("%d", fused_edges[qi]),
                  StrFormat("%.3f", secs[0]), StrFormat("%.3f", secs[1]),
                  StrFormat("%.2fx", secs[0] / secs[1]),
                  StrFormat("%llu", static_cast<unsigned long long>(elided))});
  }
  table.Print("fusion");
  const double agg = subset_fused > 0 ? subset_mat / subset_fused : 1.0;
  std::printf("# Q3..Q10 aggregate: materialized %.3fs, fused %.3fs "
              "(%.2fx)\n",
              subset_mat, subset_fused, agg);

  // Whole-mix simulator runs: full counter snapshots for both modes, with
  // the headline gauges on the fused report.
  for (int mode = 0; mode < 2; ++mode) {
    MachineSimulator sim(&storage, base);
    auto report = sim.Run(bench::PlanPointers(mode_plans[mode]));
    DFDB_CHECK(report.ok()) << report.status();
    obs::RunReport run = report->ToReport();
    run.label = mode == 0 ? "sim materialized" : "sim fused";
    if (mode == 1) {
      run.gauges["pipeline.q3_q10_speedup_x"] = agg;
      run.gauges["pipeline.q3_q10_materialized_s"] = subset_mat;
      run.gauges["pipeline.q3_q10_fused_s"] = subset_fused;
    }
    bench::JsonReport::Global().AddRunReport(run);
    std::printf("# %s: %s\n", run.label.c_str(),
                report->ToString().c_str());
  }

  // Threads-engine batch, both policies: publishes engine.pipeline.*.
  for (int mode = 0; mode < 2; ++mode) {
    ExecStats stats;
    auto results = RunBatch(&storage, bench::PlanPointers(mode_plans[mode]),
                            ExecOptions{}, &stats);
    DFDB_CHECK(results.ok()) << results.status();
    obs::RunReport run = stats.ToReport();
    run.label = mode == 0 ? "engine materialized" : "engine fused";
    bench::JsonReport::Global().AddRunReport(run);
  }

  bench::WriteJson("bench_pipeline_fusion", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
