/// \file pushdown_test.cc
/// \brief Near-data predicate pushdown: optimizer marking, the filtered
/// buffer read path, and the pushdown differential — pushed-down restricts
/// must be byte-identical to the raw path on both backends, compose with
/// access-path pruning and MVCC snapshots, and survive fault storms.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/run.h"
#include "index/index_manager.h"
#include "machine/simulator.h"
#include "ra/optimizer.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;
using ::dfdb::testing::WithPolicy;

// ---------------------------------------------------------------------------
// Optimizer marking
// ---------------------------------------------------------------------------

class PushdownPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    ASSERT_OK_AND_ASSIGN(RelationId rel,
                         GenerateRelation(storage_.get(), "r", 5000, 11));
    (void)rel;
    ASSERT_OK(storage_->SyncAllStats());
    ASSERT_OK(storage_->CommitRelation("r"));
  }
  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(PushdownPlanTest, MarksSelectiveRestrictScans) {
  Optimizer optimizer(&storage_->catalog());
  // 2% selectivity: well under the device breakeven.
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(20)));
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
  ASSERT_EQ(opt->child(0).op, PlanOp::kScan);
  EXPECT_TRUE(opt->child(0).pushdown);
  EXPECT_EQ(report.scans_pushdown, 1);
  EXPECT_EQ(report.pushdown_rejected, 0);
  // The mark is visible in EXPLAIN output.
  EXPECT_NE(opt->ToString().find("pushdown"), std::string::npos);
}

TEST_F(PushdownPlanTest, RejectsUnselectiveRestrict) {
  Optimizer optimizer(&storage_->catalog());
  // 90% selectivity: above kPushdownSelectivity — filtering at the device
  // would scan everything and still ship almost everything.
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(900)));
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
  EXPECT_FALSE(opt->child(0).pushdown);
  EXPECT_EQ(report.scans_pushdown, 0);
  EXPECT_EQ(report.pushdown_rejected, 1);
}

TEST_F(PushdownPlanTest, BareScanNeverMarked) {
  Optimizer optimizer(&storage_->catalog());
  auto plan = MakeScan("r");
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
  EXPECT_FALSE(opt->pushdown);
  EXPECT_EQ(report.scans_pushdown, 0);
}

TEST_F(PushdownPlanTest, MarkSurvivesClone) {
  Optimizer optimizer(&storage_->catalog());
  auto plan = MakeRestrict(MakeScan("r"), Eq(Col("k100"), Lit(3)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
  ASSERT_TRUE(opt->child(0).pushdown);
  PlanNodePtr copy = opt->Clone();
  EXPECT_TRUE(copy->child(0).pushdown);
}

TEST_F(PushdownPlanTest, ComposesWithAccessPathMarks) {
  // With a covering grid file the scan gets BOTH marks: pruning drops
  // whole pages, pushdown filters the residual pages' tuples.
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 20000, 7));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("ev"));
  ASSERT_OK(GetIndexManager(&storage)->CreateIndex("ev_u", "ev", {"user"}));
  Optimizer optimizer(&storage.catalog());
  auto plan = MakeRestrict(MakeScan("ev"), Eq(Col("user"), Lit(40)));
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
  EXPECT_EQ(opt->child(0).access_path, ScanAccessPath::kGridFile);
  EXPECT_TRUE(opt->child(0).pushdown);
  EXPECT_EQ(report.scans_pushdown, 1);
}

// ---------------------------------------------------------------------------
// Engine counters: the filtered read path engages and is policy-gated
// ---------------------------------------------------------------------------

TEST_F(PushdownPlanTest, EngineCountersTrackFilteredReads) {
  Optimizer optimizer(&storage_->catalog());
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(20)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));

  ExecOptions honor;
  honor.page_bytes = 2000;
  ASSERT_OK_AND_ASSIGN(QueryResult pushed,
                       RunQuery(storage_.get(), *opt, honor));
  const PushdownCounters& pc = pushed.stats().pushdown;
  EXPECT_GT(pc.pages_filtered, 0u);
  EXPECT_GT(pc.tuples_in, pc.tuples_out);
  EXPECT_GT(pc.bytes_elided, 0u);
  EXPECT_EQ(pc.fallbacks, 0u);
  EXPECT_EQ(pc.tuples_out, pushed.num_tuples());

  PlanNodePtr off = WithPolicy(storage_->catalog(), *opt,
                               {.pushdown = PushdownPolicy::kForceOff});
  ASSERT_OK_AND_ASSIGN(QueryResult raw, RunQuery(storage_.get(), *off, honor));
  EXPECT_EQ(raw.stats().pushdown.pages_filtered, 0u);
  EXPECT_EQ(raw.stats().pushdown.tuples_in, 0u);
  ExpectSameResult(raw, pushed);
  // The whole point: the restrict's operand traffic collapses.
  EXPECT_LT(pushed.stats().arbitration_bytes,
            raw.stats().arbitration_bytes / 5);
}

// ---------------------------------------------------------------------------
// Differential fuzz: policy x backend, mixed selectivities
// ---------------------------------------------------------------------------

class PushdownDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    ASSERT_OK_AND_ASSIGN(RelationId rel,
                         GenerateRelation(storage_.get(), "r", 20000, 13));
    (void)rel;
    ASSERT_OK(storage_->SyncAllStats());
    ASSERT_OK(storage_->CommitRelation("r"));
  }

  // Seeded random restricts over the benchmark columns, spanning
  // selectivities on both sides of the pushdown breakeven, plus count-only
  // aggregate shapes.
  PlanNodePtr RandomQuery(Random* rng) {
    ExprPtr pred;
    switch (rng->Uniform(5)) {
      case 0:  // Narrow range (pushable).
        pred = Lt(Col("k1000"),
                  Lit(static_cast<int32_t>(1 + rng->Uniform(100))));
        break;
      case 1:  // Point restrict (pushable).
        pred = Eq(Col("k100"), Lit(static_cast<int32_t>(rng->Uniform(100))));
        break;
      case 2:  // Wide range (rejected: above breakeven).
        pred = Lt(Col("k1000"),
                  Lit(static_cast<int32_t>(800 + rng->Uniform(200))));
        break;
      case 3:  // Conjunction across columns.
        pred = And(Lt(Col("k1000"),
                      Lit(static_cast<int32_t>(1 + rng->Uniform(300)))),
                   Lt(Col("val"), Lit(rng->NextDouble())));
        break;
      default:  // Double comparison.
        pred = Lt(Col("val"), Lit(rng->NextDouble() * 0.2));
        break;
    }
    auto filtered = MakeRestrict(MakeScan("r"), std::move(pred));
    if (rng->Bernoulli(0.25)) {
      // Count-only scan: only the count leaves the query.
      return MakeAggregate(std::move(filtered), {},
                           {AggregateSpec{AggregateSpec::Func::kCount, "",
                                          "matches"}});
    }
    return filtered;
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(PushdownDifferentialTest, EngineHonorMatchesForceOffFuzz) {
  Optimizer optimizer(&storage_->catalog());
  Random rng(123);
  ExecOptions honor;
  honor.page_bytes = 2000;

  uint64_t total_filtered = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto plan = RandomQuery(&rng);
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
    PlanNodePtr off = WithPolicy(storage_->catalog(), *opt,
                                 {.pushdown = PushdownPolicy::kForceOff});
    ASSERT_OK_AND_ASSIGN(QueryResult pushed,
                         RunQuery(storage_.get(), *opt, honor));
    ASSERT_OK_AND_ASSIGN(QueryResult raw,
                         RunQuery(storage_.get(), *off, honor));
    ExpectSameResult(raw, pushed);
    total_filtered += pushed.stats().pushdown.pages_filtered;
    EXPECT_EQ(raw.stats().pushdown.pages_filtered, 0u);
  }
  EXPECT_GT(total_filtered, 0u)
      << "no query ever pushed down — differential vacuous";
}

TEST_F(PushdownDifferentialTest, MachineMatchesEngineWithPageParity) {
  Optimizer optimizer(&storage_->catalog());
  Random rng(321);
  MachineOptions honor;
  ExecOptions engine_honor;
  engine_honor.page_bytes = 2000;

  uint64_t total_filtered = 0;
  for (int trial = 0; trial < 12; ++trial) {
    auto plan = RandomQuery(&rng);
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
    MachineSimulator sim_honor(storage_.get(), honor);
    ASSERT_OK_AND_ASSIGN(MachineReport pushed, sim_honor.Run({opt.get()}));
    PlanNodePtr off = WithPolicy(storage_->catalog(), *opt,
                                 {.pushdown = PushdownPolicy::kForceOff});
    MachineSimulator sim_off(storage_.get(), honor);
    ASSERT_OK_AND_ASSIGN(MachineReport raw, sim_off.Run({off.get()}));
    ASSERT_EQ(pushed.results.size(), 1u);
    ASSERT_EQ(raw.results.size(), 1u);
    ExpectSameResult(raw.results[0], pushed.results[0]);
    EXPECT_EQ(raw.pushdown.pages_filtered, 0u);
    ASSERT_OK_AND_ASSIGN(QueryResult engine,
                         RunQuery(storage_.get(), *opt, engine_honor));
    ExpectSameResult(engine, pushed.results[0]);
    // Both backends must run the filter over the same raw-page set. The
    // engine may serve some pages straight from its local buffer level,
    // but pages_filtered counts filter executions, not residency.
    EXPECT_EQ(pushed.pushdown.pages_filtered,
              engine.stats().pushdown.pages_filtered)
        << "trial " << trial << ": backends filtered different page sets";
    total_filtered += pushed.pushdown.pages_filtered;
  }
  EXPECT_GT(total_filtered, 0u);
}

// ---------------------------------------------------------------------------
// Composition: access-path pruning + pushdown on the residual pages
// ---------------------------------------------------------------------------

TEST(PushdownIndexTest, ComposedPruningAndPushdownMatchRawPath) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 30000, 7));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("ev"));
  ASSERT_OK(GetIndexManager(&storage)
                ->CreateIndex("ev_ud", "ev", {"user", "device"}));
  Optimizer optimizer(&storage.catalog());
  Random rng(77);
  const uint64_t users = SkewedEventUserCount(30000);

  ExecOptions both;
  both.page_bytes = 2000;
  const PlanPolicy neither{.index = IndexPolicy::kForceFullScan,
                           .pushdown = PushdownPolicy::kForceOff};
  const PlanPolicy prune_only{.pushdown = PushdownPolicy::kForceOff};
  const PlanPolicy push_only{.index = IndexPolicy::kForceFullScan};

  uint64_t composed_filtered = 0, composed_pruned = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto plan = MakeRestrict(
        MakeScan("ev"),
        And(Eq(Col("user"), Lit(static_cast<int32_t>(rng.Uniform(users)))),
            Eq(Col("device"), Lit(static_cast<int32_t>(rng.Uniform(16))))));
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
    ASSERT_OK_AND_ASSIGN(QueryResult r_both, RunQuery(&storage, *opt, both));
    ASSERT_OK_AND_ASSIGN(
        QueryResult r_neither,
        RunQuery(&storage, *WithPolicy(storage.catalog(), *opt, neither), both));
    ASSERT_OK_AND_ASSIGN(
        QueryResult r_prune,
        RunQuery(&storage, *WithPolicy(storage.catalog(), *opt, prune_only),
                 both));
    ASSERT_OK_AND_ASSIGN(
        QueryResult r_push,
        RunQuery(&storage, *WithPolicy(storage.catalog(), *opt, push_only),
                 both));
    ExpectSameResult(r_neither, r_both);
    ExpectSameResult(r_neither, r_prune);
    ExpectSameResult(r_neither, r_push);
    // Composed run: pruning first, pushdown on the residual pages only.
    EXPECT_LE(r_both.stats().pushdown.pages_filtered,
              r_push.stats().pushdown.pages_filtered);
    composed_filtered += r_both.stats().pushdown.pages_filtered;
    composed_pruned += r_both.stats().index.pages_pruned;
  }
  EXPECT_GT(composed_filtered, 0u);
  EXPECT_GT(composed_pruned, 0u);
}

// ---------------------------------------------------------------------------
// MVCC: pushed-down reads see their snapshot, not the rewritten head
// ---------------------------------------------------------------------------

TEST(PushdownMvccTest, PushedReadsUnchangedAcrossDelete) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 20000, 3));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("r"));
  Optimizer optimizer(&storage.catalog());
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(50)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
  ASSERT_TRUE(opt->child(0).pushdown);

  ExecOptions honor;
  honor.page_bytes = 2000;
  PlanNodePtr off = WithPolicy(storage.catalog(), *opt,
                               {.pushdown = PushdownPolicy::kForceOff});

  ASSERT_OK_AND_ASSIGN(QueryResult before, RunQuery(&storage, *opt, honor));
  ASSERT_GT(before.num_tuples(), 0u);

  // CoW-delete half the matching tuples and commit a new version.
  {
    auto del = MakeDelete("r", Lt(Col("k1000"), Lit(25)));
    ASSERT_OK_AND_ASSIGN(PlanNodePtr del_opt, optimizer.Optimize(*del, nullptr));
    ASSERT_OK_AND_ASSIGN(QueryResult del_result,
                         RunQuery(&storage, *del_opt, honor));
    (void)del_result;
    ASSERT_OK(storage.CommitRelation("r"));
  }

  // Post-delete, pushed-down and raw reads agree with each other and both
  // see strictly fewer tuples than the pre-delete version.
  ASSERT_OK_AND_ASSIGN(QueryResult after_pushed,
                       RunQuery(&storage, *opt, honor));
  ASSERT_OK_AND_ASSIGN(QueryResult after_raw, RunQuery(&storage, *off, honor));
  ExpectSameResult(after_raw, after_pushed);
  EXPECT_LT(after_pushed.num_tuples(), before.num_tuples());
  EXPECT_GT(after_pushed.stats().pushdown.pages_filtered, 0u);

  // Same picture on the simulator (it stamps its own snapshot per query).
  MachineOptions mhonor;
  MachineSimulator sim(&storage, mhonor);
  ASSERT_OK_AND_ASSIGN(MachineReport mreport, sim.Run({opt.get()}));
  ASSERT_EQ(mreport.results.size(), 1u);
  ExpectSameResult(after_raw, mreport.results[0]);
}

// Concurrent pushed-down readers against a deleting/committing writer with
// snapshot GC churning page ids. Run under tsan via pushdown_test_tsan.
TEST(PushdownMvccTest, ConcurrentPushedReadsUnderGc) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 10000, 9));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("r"));
  Optimizer optimizer(&storage.catalog());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(2000 + t);
      ExecOptions honor;
      honor.page_bytes = 2000;
      honor.num_processors = 2;
      while (!stop.load(std::memory_order_relaxed)) {
        auto plan = MakeRestrict(
            MakeScan("r"),
            Lt(Col("k1000"), Lit(static_cast<int32_t>(1 + rng.Uniform(100)))));
        auto opt = optimizer.Optimize(*plan, nullptr);
        if (!opt.ok()) { ++failures; break; }
        // Each run snapshots independently while the writer commits, so
        // only success (no torn reads under GC) is asserted here; result
        // equality is covered by the differential tests above.
        PlanNodePtr off = WithPolicy(storage.catalog(), **opt,
                                     {.pushdown = PushdownPolicy::kForceOff});
        auto a = RunQuery(&storage, **opt, honor);
        auto b = RunQuery(&storage, *off, honor);
        if (!a.ok() || !b.ok()) { ++failures; break; }
      }
    });
  }
  std::thread writer([&] {
    Random rng(5);
    for (int round = 0; round < 8; ++round) {
      auto del = MakeDelete(
          "r", Eq(Col("k100"), Lit(static_cast<int32_t>(rng.Uniform(100)))));
      auto opt = optimizer.Optimize(*del, nullptr);
      if (!opt.ok()) { ++failures; break; }
      ExecOptions opts;
      opts.page_bytes = 2000;
      auto r = RunQuery(&storage, **opt, opts);
      if (!r.ok()) { ++failures; break; }
      if (!storage.CommitRelation("r").ok()) { ++failures; break; }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Fault storms: pushed-down staging under failing hardware
// ---------------------------------------------------------------------------

TEST(PushdownFaultTest, StormRecoveryKeepsPushedResultsExact) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 12000, 21));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("r"));
  Optimizer optimizer(&storage.catalog());
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(100)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
  ASSERT_TRUE(opt->child(0).pushdown);

  MachineOptions healthy;
  healthy.config.num_instruction_processors = 8;
  MachineSimulator sim(&storage, healthy);
  ASSERT_OK_AND_ASSIGN(MachineReport baseline, sim.Run({opt.get()}));
  ASSERT_EQ(baseline.results.size(), 1u);
  EXPECT_GT(baseline.pushdown.pages_filtered, 0u);

  // Contract (fault_injection_test): under any seeded storm the machine
  // either recovers — bit-identical results — or fails cleanly with
  // Unavailable. Pushed-down staging must never turn a fault into a wrong
  // (tuple-dropping or tuple-duplicating) answer.
  int recovered = 0;
  for (uint64_t seed : {7u, 8u, 9u}) {
    FaultPlan fp = FaultPlan::RandomStorm(seed, /*ip_kills=*/2,
                                          /*packet_faults=*/2,
                                          baseline.makespan);
    fp.detection_timeout = SimTime::Micros(500);
    fp.retry_backoff = SimTime::Micros(100);
    MachineOptions faulted = healthy;
    faulted.fault_plan = fp;
    MachineSimulator storm(&storage, faulted);
    auto report = storm.Run({opt.get()});
    if (!report.ok()) {
      EXPECT_EQ(report.status().code(), StatusCode::kUnavailable)
          << "storm " << seed << ": " << report.status().ToString();
      continue;
    }
    ++recovered;
    ASSERT_EQ(report->results.size(), 1u);
    // The answer is exactly the fault-free answer — no survivor tuple lost
    // in a pushed-down staging read, none duplicated by re-dispatch.
    ExpectSameResult(baseline.results[0], report->results[0]);
    EXPECT_GT(report->faults.injected, 0u) << "storm " << seed << " vacuous";
    EXPECT_GT(report->pushdown.pages_filtered, 0u);
  }
  EXPECT_GT(recovered, 0) << "every storm failed cleanly — recovery vacuous";
}

TEST(PushdownFaultTest, CacheStallDelaysButDoesNotCorruptFilteredStaging) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 8000, 17));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("r"));
  Optimizer optimizer(&storage.catalog());
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(50)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));

  MachineOptions healthy;
  MachineSimulator sim(&storage, healthy);
  ASSERT_OK_AND_ASSIGN(MachineReport baseline, sim.Run({opt.get()}));

  // Stall the disk cache mid-staging: the filtered read is delayed by the
  // stall penalty (the watchdog path that covers a failing pushed-down
  // read), but every survivor still arrives exactly once.
  FaultPlan fp = FaultPlan::StallCache(
      SimTime::Nanos(baseline.makespan.nanos() / 4), SimTime::Millis(30));
  MachineOptions faulted;
  faulted.fault_plan = fp;
  MachineSimulator stalled(&storage, faulted);
  ASSERT_OK_AND_ASSIGN(MachineReport report, stalled.Run({opt.get()}));
  ExpectSameResult(baseline.results[0], report.results[0]);
  EXPECT_EQ(report.faults.cache_stalls, 1u);
  EXPECT_GT(report.makespan.nanos(), baseline.makespan.nanos());
  EXPECT_EQ(report.pushdown.pages_filtered, baseline.pushdown.pages_filtered);
  EXPECT_EQ(report.pushdown.tuples_out, baseline.pushdown.tuples_out);
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds, identical pushdown measurements
// ---------------------------------------------------------------------------

TEST(PushdownDeterminismTest, SimulatorBytesAreReproducible) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 10000, 31));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("r"));
  Optimizer optimizer(&storage.catalog());
  auto plan = MakeRestrict(MakeScan("r"), Lt(Col("k1000"), Lit(30)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));

  auto run = [&] {
    MachineOptions opts;
    MachineSimulator sim(&storage, opts);
    auto report = sim.Run({opt.get()});
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return *std::move(report);
  };
  MachineReport r1 = run();
  MachineReport r2 = run();
  EXPECT_EQ(r1.makespan.nanos(), r2.makespan.nanos());
  EXPECT_EQ(r1.bytes.outer_ring, r2.bytes.outer_ring);
  EXPECT_EQ(r1.bytes.cache_to_ic, r2.bytes.cache_to_ic);
  EXPECT_EQ(r1.pushdown.pages_filtered, r2.pushdown.pages_filtered);
  EXPECT_EQ(r1.pushdown.tuples_out, r2.pushdown.tuples_out);
  EXPECT_EQ(r1.pushdown.bytes_elided, r2.pushdown.bytes_elided);
  EXPECT_EQ(ResultMultiset(r1.results[0]), ResultMultiset(r2.results[0]));
}

}  // namespace
}  // namespace dfdb
