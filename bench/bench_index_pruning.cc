/// \file bench_index_pruning.cc
/// \brief INDEX — page pruning via zone maps and grid files on a skewed
/// GB-scale event workload.
///
/// Builds a sessionized Zipfian event relation (scale 1.0 = 1M 100-byte
/// tuples), then runs three selective restricts — a ~2% time window, a
/// rare-user equality, and a user+device+time conjunction — under three
/// access-path modes: full scans forced (`off`), zone maps only (plans
/// optimized before CREATE INDEX), and grid file + zone maps (plans
/// optimized after). Every mode runs on both backends; the tuple-set hash
/// of every run must be identical (pruning is purely a page-read
/// optimization). Headline gauge `index.selective_restrict_speedup_x` is
/// the aggregate page-read reduction of the best mode over full scans,
/// asserted >= 5x at scale >= 2.0.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/run.h"
#include "index/index_manager.h"
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
  const double scale = bench::FlagDouble(argc, argv, "scale", 2.0);
  const int page_bytes = bench::FlagInt(argc, argv, "pagebytes", 16384);
  const uint64_t n = static_cast<uint64_t>(scale * 1e6);
  std::printf("== INDEX: zone-map / grid-file page pruning ==\n");
  std::printf("# scale %.2f: %llu tuples (%.2f GB), %d B pages\n", scale,
              static_cast<unsigned long long>(n),
              static_cast<double>(n) * 100 / 1e9, page_bytes);

  StorageEngine storage(page_bytes);
  {
    auto rel = GenerateSkewedRelation(&storage, "events", n, /*seed=*/42);
    DFDB_CHECK(rel.ok()) << rel.status();
  }
  DFDB_CHECK(storage.SyncAllStats().ok());
  DFDB_CHECK(storage.CommitRelation("events").ok());
  auto file = storage.GetHeapFile("events");
  DFDB_CHECK(file.ok()) << file.status();
  DFDB_CHECK((*file)->Flush().ok());
  const uint64_t total_pages = (*file)->PageIds().size();
  const int64_t users =
      static_cast<int64_t>(SkewedEventUserCount(n));

  struct Bench {
    const char* name;
    PlanNodePtr root;
  };
  std::vector<Bench> queries;
  // ~2% time window in the middle of the event stream: contiguous pages,
  // zone maps prune near-perfectly.
  queries.push_back(
      {"ts_window_2pct",
       MakeRestrict(MakeScan("events"),
                    And(Ge(Col("ts"), Lit(static_cast<int64_t>(n * 3 / 10))),
                        Lt(Col("ts"), Lit(static_cast<int64_t>(
                                          n * 3 / 10 + n / 50)))))});
  // Rare user: sessionized generation clusters the few sessions of a
  // cold Zipfian rank into a handful of pages; the grid file finds them.
  // Rank users/10 is cold enough to prune hard yet hot enough to return
  // tuples (a fully dead rank would make the differential vacuous).
  queries.push_back(
      {"rare_user_eq",
       MakeRestrict(MakeScan("events"),
                    Eq(Col("user"), Lit(static_cast<int32_t>(users / 10))))});
  // Conjunction over both grid dimensions plus a time bound.
  queries.push_back(
      {"user_device_ts",
       MakeRestrict(
           MakeScan("events"),
           And(And(Eq(Col("user"),
                      Lit(static_cast<int32_t>(users / 20))),
                   Eq(Col("device"), Lit(5))),
               Ge(Col("ts"), Lit(static_cast<int64_t>(n / 4)))))});

  // Zone-only plans: optimized before the index definition exists.
  Optimizer optimizer(&storage.catalog());
  std::vector<PlanNodePtr> zone_plans;
  for (const Bench& q : queries) {
    auto p = optimizer.Optimize(*q.root, nullptr);
    DFDB_CHECK(p.ok()) << p.status();
    zone_plans.push_back(std::move(*p));
  }
  // Grid plans: optimized with the (user, device) grid file in the catalog.
  Status created = GetIndexManager(&storage)->CreateIndex(
      "events_user_device", "events", {"user", "device"});
  DFDB_CHECK(created.ok()) << created;
  std::vector<PlanNodePtr> grid_plans;
  for (const Bench& q : queries) {
    auto p = optimizer.Optimize(*q.root, nullptr);
    DFDB_CHECK(p.ok()) << p.status();
    grid_plans.push_back(std::move(*p));
  }

  struct Mode {
    const char* name;
    IndexPolicy policy;
    const std::vector<PlanNodePtr>* plans;
  };
  // Full-scan baseline: the grid plans with every access-path mark cleared.
  const std::vector<PlanNodePtr> off_plans = bench::WithPolicy(
      storage.catalog(), grid_plans, {.index = IndexPolicy::kForceFullScan});
  const Mode modes[] = {
      {"off", IndexPolicy::kForceFullScan, &off_plans},
      {"zone", IndexPolicy::kHonorPlan, &zone_plans},
      {"grid", IndexPolicy::kHonorPlan, &grid_plans},
  };

  bench::Table table({"query", "mode", "engine_pages_read", "engine_s",
                      "machine_pages_read", "machine_s", "tuples"});
  uint64_t pages_off = 0, pages_best = 0;
  ExecStats grid_engine_stats;
  MachineReport grid_machine_report;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    uint64_t reference_hash = 0;
    uint64_t reference_tuples = 0;
    for (const Mode& mode : modes) {
      const PlanNode& plan = *(*mode.plans)[qi];
      // Threads engine.
      ExecOptions eopts;
      eopts.page_bytes = page_bytes;
      ExecStats estats;
      auto eresult = RunQuery(&storage, plan, eopts, &estats);
      DFDB_CHECK(eresult.ok()) << eresult.status();
      const uint64_t engine_read =
          total_pages - eresult->stats().index.pages_pruned;
      // Ring simulator.
      MachineOptions mopts;
      mopts.config.page_bytes = page_bytes;
      MachineSimulator sim(&storage, mopts);
      auto mreport = sim.Run({&plan});
      DFDB_CHECK(mreport.ok()) << mreport.status();
      DFDB_CHECK(mreport->results.size() == 1);
      const uint64_t machine_read =
          total_pages - mreport->index.pages_pruned;

      // Byte-identical results across modes and backends.
      const uint64_t ehash = HashResult(*eresult);
      const uint64_t mhash = HashResult(mreport->results[0]);
      DFDB_CHECK(ehash == mhash)
          << queries[qi].name << " " << mode.name
          << ": engine and machine disagree";
      if (mode.policy == IndexPolicy::kForceFullScan) {
        reference_hash = ehash;
        reference_tuples = eresult->num_tuples();
        pages_off += engine_read;
      } else {
        DFDB_CHECK(ehash == reference_hash)
            << queries[qi].name << " " << mode.name
            << ": pruned result differs from full scan";
      }
      DFDB_CHECK(mreport->index.pages_pruned ==
                 eresult->stats().index.pages_pruned)
          << queries[qi].name << " " << mode.name
          << ": backends pruned different page sets";
      if (std::string(mode.name) == "grid") {
        pages_best += engine_read;
        grid_engine_stats = eresult->stats();
        grid_machine_report = *std::move(mreport);
      }
      table.AddRow(
          {queries[qi].name, mode.name,
           StrFormat("%llu", static_cast<unsigned long long>(engine_read)),
           StrFormat("%.3f", eresult->stats().wall_seconds),
           StrFormat("%llu", static_cast<unsigned long long>(machine_read)),
           StrFormat("%.3f", mreport->makespan.ToSecondsF()),
           StrFormat("%llu",
                     static_cast<unsigned long long>(reference_tuples))});
    }
  }
  table.Print("index_pruning");

  const double speedup =
      pages_best > 0 ? static_cast<double>(pages_off) /
                           static_cast<double>(pages_best)
                     : 1.0;
  std::printf("# selective restricts: %llu pages full-scan, %llu pruned "
              "(%.1fx fewer page reads)\n",
              static_cast<unsigned long long>(pages_off),
              static_cast<unsigned long long>(pages_best), speedup);
  if (scale >= 2.0) {
    DFDB_CHECK(speedup >= 5.0)
        << "acceptance: expected >=5x page-read reduction at scale "
        << scale << ", got " << speedup;
  }

  obs::RunReport erun = grid_engine_stats.ToReport();
  erun.label = "engine grid";
  erun.gauges["index.selective_restrict_speedup_x"] = speedup;
  erun.gauges["index.pages_full_scan"] = static_cast<double>(pages_off);
  erun.gauges["index.pages_after_pruning"] = static_cast<double>(pages_best);
  bench::JsonReport::Global().AddRunReport(erun);
  obs::RunReport mrun = grid_machine_report.ToReport();
  mrun.label = "machine grid";
  bench::JsonReport::Global().AddRunReport(mrun);

  bench::WriteJson("bench_index_pruning", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
