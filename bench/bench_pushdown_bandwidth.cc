/// \file bench_pushdown_bandwidth.cc
/// \brief PUSHDOWN — Section 3.3's arbitration-bandwidth measurement with
/// near-data predicate pushdown on vs off.
///
/// Section 3.3 shows the arbitration network is the machine's scarce
/// resource: every operand byte a processor consumes crosses it. For
/// selective restricts the near-data path attacks the numerator instead of
/// the packet overhead — the compiled predicate runs where the page lives
/// (engine: inside the buffer hierarchy; simulator: at the disk-cache port
/// during IC staging), so only surviving tuples are repacked into machine
/// units and cross the rings.
///
/// Runs a three-query selective mix (2% range, 1% point, count-only 5%
/// range) under PushdownPolicy::kForceOff vs kHonorPlan on BOTH backends,
/// asserting byte-identical tuple-set hashes across every policy x backend
/// cell and identical filtered-page counts across backends. Headline gauge
/// `pushdown.sec33_bytes_reduction_x` is the simulator's outer-ring byte
/// collapse, asserted >= 5x at scale >= 0.1.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/run.h"
#include "machine/simulator.h"
#include "ra/optimizer.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

/// Order-insensitive content hash: sum of per-tuple FNV-1a over raw bytes.
uint64_t HashResult(const QueryResult& result) {
  uint64_t sum = 0;
  for (const PagePtr& page : result.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      const std::string t = page->tuple(i).ToString();
      uint64_t h = 1469598103934665603ULL;
      for (char c : t) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
      sum += h;
    }
  }
  return sum;
}

int Main(int argc, char** argv) {
  const double scale = bench::FlagDouble(argc, argv, "scale", 0.5);
  const int page_bytes = bench::FlagInt(argc, argv, "pagebytes", 16384);
  const uint64_t n = static_cast<uint64_t>(scale * 1e6);
  std::printf("== PUSHDOWN: near-data restricts, Section 3.3 re-measured ==\n");
  std::printf("# scale %.2f: %llu tuples (%.2f GB), %d B pages\n", scale,
              static_cast<unsigned long long>(n),
              static_cast<double>(n) * 100 / 1e9, page_bytes);

  StorageEngine storage(page_bytes);
  {
    auto rel = GenerateRelation(&storage, "src", n, /*seed=*/7);
    DFDB_CHECK(rel.ok()) << rel.status();
  }
  DFDB_CHECK(storage.SyncAllStats().ok());
  DFDB_CHECK(storage.CommitRelation("src").ok());

  struct Bench {
    const char* name;
    PlanNodePtr root;
  };
  std::vector<Bench> queries;
  // ~2% uniform range: zone maps cannot prune (every page spans the full
  // k1000 domain), so the whole reduction comes from pushdown.
  queries.push_back({"range_2pct", MakeRestrict(MakeScan("src"),
                                                Lt(Col("k1000"), Lit(20)))});
  // 1% point restrict.
  queries.push_back(
      {"point_1pct", MakeRestrict(MakeScan("src"), Eq(Col("k100"), Lit(7)))});
  // Count-only scan: the aggregate consumes the pushed-down restrict, so
  // only the count — not the matching tuples — leaves the query.
  queries.push_back(
      {"count_5pct",
       MakeAggregate(
           MakeRestrict(MakeScan("src"), Lt(Col("k1000"), Lit(50))), {},
           {AggregateSpec{AggregateSpec::Func::kCount, "", "matches"}})});

  Optimizer optimizer(&storage.catalog());
  std::vector<PlanNodePtr> plans;
  int scans_pushdown = 0;
  for (const Bench& q : queries) {
    OptimizerReport report;
    auto p = optimizer.Optimize(*q.root, &report);
    DFDB_CHECK(p.ok()) << p.status();
    scans_pushdown += report.scans_pushdown;
    plans.push_back(std::move(*p));
  }
  DFDB_CHECK(scans_pushdown == static_cast<int>(queries.size()))
      << "optimizer should mark every selective scan pushable, got "
      << scans_pushdown;

  struct Mode {
    const char* name;
    std::vector<PlanNodePtr> plans;
  };
  const Mode modes[] = {
      {"off", bench::WithPolicy(storage.catalog(), plans,
                                {.pushdown = PushdownPolicy::kForceOff})},
      {"on", bench::WithPolicy(storage.catalog(), plans, {})},
  };

  bench::Table table({"query", "mode", "engine_arb_bytes", "engine_s",
                      "machine_outer_bytes", "machine_s", "tuples"});
  uint64_t engine_arb[2] = {0, 0};
  uint64_t machine_outer[2] = {0, 0};
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    uint64_t reference_hash = 0;
    uint64_t reference_tuples = 0;
    uint64_t engine_filtered = 0;
    for (int mi = 0; mi < 2; ++mi) {
      const Mode& mode = modes[mi];
      const PlanNode& plan = *mode.plans[qi];
      // Threads engine.
      ExecOptions eopts;
      eopts.page_bytes = page_bytes;
      ExecStats estats;
      auto eresult = RunQuery(&storage, plan, eopts, &estats);
      DFDB_CHECK(eresult.ok()) << eresult.status();
      // Ring simulator.
      MachineOptions mopts;
      mopts.config.page_bytes = page_bytes;
      MachineSimulator sim(&storage, mopts);
      auto mreport = sim.Run({&plan});
      DFDB_CHECK(mreport.ok()) << mreport.status();
      DFDB_CHECK(mreport->results.size() == 1);

      // Byte-identical results across policies and backends.
      const uint64_t ehash = HashResult(*eresult);
      const uint64_t mhash = HashResult(mreport->results[0]);
      DFDB_CHECK(ehash == mhash)
          << queries[qi].name << " " << mode.name
          << ": engine and machine disagree";
      if (mi == 0) {
        reference_hash = ehash;
        reference_tuples = eresult->num_tuples();
      } else {
        DFDB_CHECK(ehash == reference_hash)
            << queries[qi].name
            << ": pushed-down result differs from raw path";
        // Both backends must have filtered the same page set.
        engine_filtered = eresult->stats().pushdown.pages_filtered;
        DFDB_CHECK(engine_filtered > 0)
            << queries[qi].name << ": engine pushdown never engaged";
        DFDB_CHECK(mreport->pushdown.pages_filtered == engine_filtered)
            << queries[qi].name << ": backends filtered different page sets ("
            << mreport->pushdown.pages_filtered << " vs " << engine_filtered
            << ")";
      }
      engine_arb[mi] += eresult->stats().arbitration_bytes;
      machine_outer[mi] += mreport->bytes.outer_ring;
      table.AddRow(
          {queries[qi].name, mode.name,
           StrFormat("%llu", static_cast<unsigned long long>(
                                 eresult->stats().arbitration_bytes)),
           StrFormat("%.3f", eresult->stats().wall_seconds),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 mreport->bytes.outer_ring)),
           StrFormat("%.3f", mreport->makespan.ToSecondsF()),
           StrFormat("%llu",
                     static_cast<unsigned long long>(reference_tuples))});
    }
  }
  table.Print("pushdown_bandwidth");

  const double machine_reduction =
      machine_outer[1] > 0 ? static_cast<double>(machine_outer[0]) /
                                 static_cast<double>(machine_outer[1])
                           : 1.0;
  const double engine_reduction =
      engine_arb[1] > 0 ? static_cast<double>(engine_arb[0]) /
                              static_cast<double>(engine_arb[1])
                        : 1.0;
  std::printf("# outer-ring bytes: %llu raw, %llu pushed (%.1fx fewer); "
              "engine arbitration: %.1fx fewer\n",
              static_cast<unsigned long long>(machine_outer[0]),
              static_cast<unsigned long long>(machine_outer[1]),
              machine_reduction, engine_reduction);
  if (scale >= 0.1) {
    DFDB_CHECK(machine_reduction >= 5.0)
        << "acceptance: expected >=5x fewer arbitration-network bytes at "
        << "scale " << scale << ", got " << machine_reduction;
  }

  // Whole-mix runs per mode: full counter snapshots for the JSON report
  // (machine.pushdown.* / engine.pushdown.* observability contract), with
  // the headline gauges on the pushed-down runs.
  for (int mi = 0; mi < 2; ++mi) {
    const std::vector<const PlanNode*> mix = bench::PlanPointers(modes[mi].plans);
    MachineOptions mopts;
    mopts.config.page_bytes = page_bytes;
    MachineSimulator sim(&storage, mopts);
    auto mreport = sim.Run(mix);
    DFDB_CHECK(mreport.ok()) << mreport.status();
    obs::RunReport run = mreport->ToReport();
    run.label = StrFormat("machine pushdown=%s", modes[mi].name);
    if (mi == 1) {
      run.gauges["pushdown.sec33_bytes_reduction_x"] = machine_reduction;
      run.gauges["pushdown.outer_ring_bytes_raw"] =
          static_cast<double>(machine_outer[0]);
      run.gauges["pushdown.outer_ring_bytes_pushed"] =
          static_cast<double>(machine_outer[1]);
    }
    bench::JsonReport::Global().AddRunReport(run);
    std::printf("# %s: %s\n", run.label.c_str(), mreport->ToString().c_str());

    ExecOptions eopts;
    eopts.page_bytes = page_bytes;
    ExecStats estats;
    auto eresults = RunBatch(&storage, mix, eopts, &estats);
    DFDB_CHECK(eresults.ok()) << eresults.status();
    obs::RunReport erun = estats.ToReport();
    erun.label = StrFormat("engine pushdown=%s", modes[mi].name);
    if (mi == 1) {
      erun.gauges["pushdown.engine_arb_reduction_x"] = engine_reduction;
    }
    bench::JsonReport::Global().AddRunReport(erun);
  }

  bench::WriteJson("bench_pushdown_bandwidth", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
