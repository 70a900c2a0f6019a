#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dist/coordinator.h"
#include "engine/reference.h"
#include "engine/scheduler.h"
#include "index/index_manager.h"
#include "machine/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "operators/kernels.h"
#include "operators/page_sink.h"
#include "oracle.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "ra/parser.h"
#include "ra/raql.h"
#include "spans.h"
#include "workload/generator.h"
#include "workload/paper_benchmark.h"

namespace perfbench {
namespace {

using dfdb::ExecStats;
using dfdb::PlanNode;
using dfdb::PlanNodePtr;
using dfdb::QueryResult;
using dfdb::Status;
using dfdb::StatusOr;
using dfdb::StorageEngine;
using dfdb::StrFormat;

/// Client threads and engine threads per workload stay within this many
/// cores (the benchmark host has 4).
constexpr int kCores = 4;
constexpr int kPageBytes = 16384;
/// The paper's database at scale 1.0 is 5.5 MB.
constexpr double kPaperScale = 1.0;
/// The work and memory of the ten-query mix vary by up to half between
/// generated databases (join fan-outs); a run spreads over this many.
constexpr int kPaperDatabases = 32;
/// One pass of the mix loads the whole database into the buffer hierarchy.
constexpr double kPaperWarmupSeconds = 0.1;
/// Set-ups per run, and per database; setup_s is the median over all of
/// them, since one set-up's time varies by 30% with the host. A database's
/// first set-up after its predecessor's memory went back to the system pays
/// page faults the later ones do not, so there are at least two.
constexpr int kMinSetupsPerRun = 15;
constexpr int kMinSetupsPerDatabase = 2;

enum class OpKind { kRead, kAppend, kDelete };

struct Sample {
  std::string cls;  ///< Query class; outlives the workload instance.
  OpKind kind;
  double ms;
};

/// What one client measured during one phase.
struct PhaseData {
  Tally tally;
  std::vector<Sample> samples;
  /// Per-operation counters, summed (traced phases only).
  std::map<std::string, double> counters;
  /// Per-operation values whose median is reported (traced phases only).
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> notes;

  void Merge(PhaseData&& other) {
    tally.Add(other.tally);
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    for (const auto& [k, v] : other.counters) counters[k] += v;
    for (auto& [k, v] : other.series) {
      series[k].insert(series[k].end(), v.begin(), v.end());
    }
    for (std::string& n : other.notes) {
      if (notes.size() < 8) notes.push_back(std::move(n));
    }
  }
};

/// One load-generating client, persistent across phases.
struct Client {
  int index = 0;
  uint64_t seq = 0;          ///< Operations issued so far.
  SpanLog* spans = nullptr;  ///< Non-null during traced phases.
  PhaseData* data = nullptr;

  /// Counts one operation and, if it succeeded, its latency. Returns ok.
  bool Record(bool ok, const char* cls, OpKind kind, double ms) {
    if (data->tally.Record(ok)) data->samples.push_back({cls, kind, ms});
    return ok;
  }
  void Note(std::string note) {
    if (data->notes.size() < 8) data->notes.push_back(std::move(note));
  }
};

struct SetupTimes {
  double total_s = 0;
  double build_s = 0;  ///< Data generation.
  double index_s = 0;  ///< CreateIndex.
};

/// Phase results merged across the traced slices.
struct Traced {
  PhaseData data;
  double wall_s = 0;
  /// Deltas of the workload's global counters over the traced slices.
  std::map<std::string, double> deltas;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  /// Databases a run is spread over, each generated from its own seed with
  /// its own set-up, oracle and equal share of the measured time, so that
  /// no single generated database decides the figures.
  virtual int databases() const = 0;
  /// Slices each database's measured time is split into; see Slice.
  virtual int slices_per_database() const { return 1; }
  /// Untimed load before each database's measurement, so lazy set-up
  /// (buffer hierarchy, grid-file builds, allocator) is not measured.
  virtual double warmup_seconds() const = 0;
  /// Builds data and indexes and starts servers (the timed set-up).
  virtual Status Setup(uint64_t seed, SetupTimes* times) = 0;
  /// Computes every expected result, untimed, after the last set-up.
  virtual Status BuildOracle() = 0;
  /// One closed-loop operation of client \p c.
  virtual void Op(Client* c) = 0;
  /// Lifetime counters of the layers, read around each traced slice.
  virtual std::map<std::string, double> GlobalCounters() const { return {}; }
  /// Checks that run after the load stops.
  virtual Status Verify(Tally*, std::vector<std::string>*) {
    return Status::OK();
  }
  /// Per-layer metrics from the traced slices.
  virtual void LayerMetrics(const Traced& t, MetricMap* out) = 0;
  /// Times the operator kernels on the workload's own pages (and, on the
  /// wire, the planning calls), on one thread after the load.
  virtual Status Calibrate(SpanLog* log, MetricMap* out) = 0;
  /// Workload-specific end-to-end figures.
  virtual void Extra(MetricMap*) {}
};

// --- Helpers ---------------------------------------------------------------

double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0; }

/// A seeded permutation of 0..n-1: client \p client's order of classes.
std::vector<int> ClientOrder(uint64_t seed, int client, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  dfdb::Random rng(dfdb::HashCombine(seed, static_cast<uint64_t>(client) + 1));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

/// The ReferenceExecutor's result for \p plan. Equi-joins may use its
/// sort-merge flavour, which is far faster on the paper mix than nested
/// loops and returns the same multiset (the self-test checks both).
StatusOr<Fingerprint> ReferenceFingerprint(StorageEngine* storage,
                                           const PlanNode& plan,
                                           bool sort_merge = false) {
  dfdb::ReferenceExecutor ref(storage);
  DFDB_ASSIGN_OR_RETURN(QueryResult result, ref.Execute(plan, sort_merge));
  return FingerprintOf(result);
}

std::string Mismatch(const char* cls, const Fingerprint& want,
                     const Fingerprint& got) {
  return StrFormat("%s: expected %s got %s", cls, want.ToString().c_str(),
                   got.ToString().c_str());
}

int64_t AsInt(const dfdb::Value& v) {
  switch (v.type()) {
    case dfdb::ColumnType::kInt32:
      return v.as_int32();
    case dfdb::ColumnType::kInt64:
      return v.as_int64();
    default:
      return 0;
  }
}

/// Sums one query's counters into \p c. The names are the dotted ones
/// RegisterMetrics(ExecStats) writes, which the DFW1 stats frame carries.
void AddCounters(const std::map<std::string, uint64_t>& counters,
                 std::map<std::string, double>* c) {
  for (const auto& [name, value] : counters) {
    (*c)[name] += static_cast<double>(value);
  }
}

void AddCounters(const ExecStats& stats, std::map<std::string, double>* c) {
  dfdb::obs::MetricsRegistry registry;
  dfdb::RegisterMetrics(stats, &registry);
  AddCounters(registry.counters(), c);
}

/// Engine, kernel, pipeline and queue metrics from summed per-op counters.
void EngineLayerMetrics(const std::map<std::string, double>& c, double ops,
                        MetricMap* out) {
  auto get = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  auto& m = *out;
  m["engine.tasks_per_query"] = {PerOp(get("engine.tasks_executed"), ops),
                                 "count"};
  m["engine.packets_per_query"] = {PerOp(get("engine.packets"), ops), "count"};
  m["engine.pipeline.fused_pages"] = {
      PerOp(get("engine.pipeline.fused_pages"), ops), "count"};
  m["engine.pipeline.pages_elided"] = {
      PerOp(get("engine.pipeline.pages_elided"), ops), "count"};
  m["engine.queue_wait_ms"] = {
      PerOp(get("engine.sched.queue_wait_ns"), ops) / 1e6, "ms"};
  m["storage.arbitration_mb_per_query"] = {
      PerOp(get("engine.arbitration_bytes"), ops) / 1e6, "MB"};
  for (const char* k : {"compiled_pages", "interpreted_pages",
                        "compile_fallbacks", "hash_joins", "nested_joins"}) {
    m[StrFormat("operators.kernel.%s", k)] = {
        PerOp(get(StrFormat("engine.kernel.%s", k).c_str()), ops), "count"};
  }
}

/// Buffer-hierarchy metrics from AggregateStats deltas.
std::map<std::string, double> BufferCounters(const ExecStats& s) {
  return {{"buffer.local_hits", static_cast<double>(s.buffer.local_hits)},
          {"buffer.cache_reads", static_cast<double>(s.buffer.cache_reads)},
          {"buffer.disk_reads", static_cast<double>(s.buffer.disk_reads)}};
}

void StorageLayerMetrics(const std::map<std::string, double>& d, double ops,
                         MetricMap* out) {
  auto get = [&](const char* k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const double hits = get("buffer.local_hits");
  const double reads = get("buffer.cache_reads");
  const double disk = get("buffer.disk_reads");
  auto& m = *out;
  m["storage.cache_hits_per_query"] = {PerOp(hits, ops), "count"};
  m["storage.cache_reads_per_query"] = {PerOp(reads, ops), "count"};
  m["storage.disk_reads_per_query"] = {PerOp(disk, ops), "count"};
  // Counter ratio: page requests served without a disk read.
  m["storage.hit_ratio"] = {
      hits + reads > 0 ? (hits + reads - disk) / (hits + reads) : 0,
      "ratio"};
}

/// Median latency of every read class seen in \p samples.
void ClassLatencies(const std::vector<Sample>& samples, MetricMap* out) {
  std::map<std::string, std::vector<double>> by_class;
  for (const Sample& s : samples) {
    if (s.kind == OpKind::kRead) by_class[s.cls].push_back(s.ms);
  }
  for (auto& [cls, ms] : by_class) {
    (*out)[StrFormat("engine.q.%s_p50_ms", cls.c_str())] = {Median(ms), "ms"};
  }
}

double SeriesMedian(const PhaseData& d, const char* name) {
  auto it = d.series.find(name);
  return it == d.series.end() ? 0 : Median(it->second);
}

// --- Kernel calibration ----------------------------------------------------

class CountingSink final : public dfdb::PageSink {
 public:
  Status Emit(dfdb::Slice) override {
    ++tuples_;
    return Status::OK();
  }
  Status EmitParts(const dfdb::Slice*, size_t) override {
    ++tuples_;
    return Status::OK();
  }
  uint64_t tuples() const { return tuples_; }

 private:
  uint64_t tuples_ = 0;
};

StatusOr<PlanNodePtr> ResolvedPlan(StorageEngine* storage,
                                   const std::string& text) {
  DFDB_ASSIGN_OR_RETURN(PlanNodePtr plan, dfdb::ParseQuery(text));
  DFDB_RETURN_IF_ERROR(
      dfdb::Analyzer(&storage->catalog()).Resolve(plan.get()).status());
  return plan;
}

StatusOr<std::vector<dfdb::PagePtr>> FirstPages(StorageEngine* storage,
                                                const std::string& relation,
                                                size_t max_pages) {
  DFDB_ASSIGN_OR_RETURN(dfdb::HeapFile * file, storage->GetHeapFile(relation));
  std::vector<dfdb::PagePtr> pages;
  for (dfdb::PageId id : file->PageIds()) {
    if (pages.size() == max_pages) break;
    DFDB_ASSIGN_OR_RETURN(dfdb::PagePtr page, storage->page_store().Get(id));
    pages.push_back(std::move(page));
  }
  return pages;
}

/// Repeats \p pass (recorded as span \p name) for at least 9 passes and
/// 50 ms, and returns the median pass time in nanoseconds.
template <typename Fn>
double MedianPassNs(SpanLog* log, const char* name, Fn&& pass) {
  const uint64_t request = log->NewRequest();
  ScopedSpan root(log, "bench.calibrate", request, 0);
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 9 || SecondsSince(start) < 0.05) {
    const int64_t a = NowNs();
    pass();
    const int64_t b = NowNs();
    log->Add(name, request, root.id(), a, b);
    ns.push_back(static_cast<double>(b - a));
  }
  return Median(ns);
}

/// Compiled restrict over the first 64 pages of the restrict's relation:
/// nanoseconds per input tuple.
StatusOr<double> TimeRestrict(StorageEngine* storage, const std::string& text,
                              SpanLog* log) {
  DFDB_ASSIGN_OR_RETURN(PlanNodePtr plan, ResolvedPlan(storage, text));
  const PlanNode& scan = plan->child(0);
  DFDB_ASSIGN_OR_RETURN(
      dfdb::CompiledPredicate pred,
      dfdb::CompiledPredicate::Compile(*plan->predicate, scan.output_schema));
  DFDB_ASSIGN_OR_RETURN(std::vector<dfdb::PagePtr> pages,
                        FirstPages(storage, scan.relation, 64));
  uint64_t tuples = 0;
  for (const auto& p : pages) tuples += static_cast<uint64_t>(p->num_tuples());
  if (tuples == 0) return Status::FailedPrecondition("empty relation");
  Status status = Status::OK();
  const double ns = MedianPassNs(log, "operators.restrict_page", [&] {
    CountingSink sink;
    for (const auto& p : pages) {
      Status s = dfdb::RestrictPage(pred, *p, &sink);
      if (!s.ok()) status = s;
    }
  });
  DFDB_RETURN_IF_ERROR(status);
  return ns / static_cast<double>(tuples);
}

/// Compiled join of the first 4 pages of each input, all 16 page pairs:
/// microseconds per page pair.
StatusOr<double> TimeJoin(StorageEngine* storage, const std::string& text,
                          SpanLog* log) {
  DFDB_ASSIGN_OR_RETURN(PlanNodePtr plan, ResolvedPlan(storage, text));
  const PlanNode& outer = plan->child(0);
  const PlanNode& inner = plan->child(1);
  DFDB_ASSIGN_OR_RETURN(dfdb::CompiledJoinPredicate pred,
                        dfdb::CompiledJoinPredicate::Compile(
                            *plan->predicate, outer.output_schema,
                            inner.output_schema));
  DFDB_ASSIGN_OR_RETURN(std::vector<dfdb::PagePtr> outer_pages,
                        FirstPages(storage, outer.relation, 4));
  DFDB_ASSIGN_OR_RETURN(std::vector<dfdb::PagePtr> inner_pages,
                        FirstPages(storage, inner.relation, 4));
  const double pairs =
      static_cast<double>(outer_pages.size() * inner_pages.size());
  if (pairs == 0) return Status::FailedPrecondition("empty relation");
  dfdb::JoinScratch scratch;
  Status status = Status::OK();
  const double ns = MedianPassNs(log, "operators.join_pages", [&] {
    CountingSink sink;
    for (const auto& o : outer_pages) {
      for (const auto& i : inner_pages) {
        Status s = dfdb::JoinPages(pred, *o, *i, &scratch, &sink);
        if (!s.ok()) status = s;
      }
    }
  });
  DFDB_RETURN_IF_ERROR(status);
  return ns / pairs / 1e3;
}

/// Kernel timings on the paper database: Q1's restrict and Q3's join key.
Status CalibratePaper(StorageEngine* storage, SpanLog* log, MetricMap* out) {
  DFDB_ASSIGN_OR_RETURN(
      double restrict_ns,
      TimeRestrict(storage, "restrict(r01, k1000 < 100)", log));
  DFDB_ASSIGN_OR_RETURN(
      double join_us, TimeJoin(storage, "join(r02, r06, k100 = right.k100)",
                               log));
  (*out)["operators.restrict_ns_per_tuple"] = {restrict_ns, "ns"};
  (*out)["operators.join_us_per_page_pair"] = {join_us, "us"};
  return Status::OK();
}

// --- The paper's ten-query mix ---------------------------------------------

struct PaperMix {
  std::vector<dfdb::Query> queries;
  std::vector<std::string> texts;  ///< RAQL, as the wire carries it.
  std::vector<Fingerprint> expected;

  /// Builds the queries and their expected results over \p storage, which
  /// must hold the full (unpartitioned) database.
  Status Init(StorageEngine* storage) {
    queries = dfdb::MakePaperBenchmarkQueries();
    for (const dfdb::Query& q : queries) {
      DFDB_ASSIGN_OR_RETURN(std::string text, dfdb::PlanToRaql(*q.root));
      texts.push_back(std::move(text));
      DFDB_ASSIGN_OR_RETURN(
          Fingerprint fp,
          ReferenceFingerprint(storage, *q.root, /*sort_merge=*/true));
      if (fp.tuples == 0) {
        return Status::FailedPrecondition(q.name + " is empty: vacuous check");
      }
      expected.push_back(fp);
    }
    return Status::OK();
  }
  int size() const { return static_cast<int>(queries.size()); }
  const char* name(int q) const {
    return queries[static_cast<size_t>(q)].name.c_str();
  }
};

// --- paper_mix_wire --------------------------------------------------------

class WireWorkload final : public Workload {
 public:
  int clients() const override { return kCores; }
  int databases() const override { return kPaperDatabases; }
  double warmup_seconds() const override { return kPaperWarmupSeconds; }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    seed_ = seed;
    const auto start = Clock::now();
    storage_ = std::make_unique<StorageEngine>(kPageBytes);
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(storage_.get(), kPaperScale, seed).status());
    times->build_s = SecondsSince(start);
    dfdb::net::ServerOptions options;
    options.scheduler.exec.num_processors = kCores;
    server_ = std::make_unique<dfdb::net::Server>(storage_.get(), options);
    DFDB_RETURN_IF_ERROR(server_->Start());
    for (int c = 0; c < clients(); ++c) {
      DFDB_ASSIGN_OR_RETURN(dfdb::net::Client conn, Connect());
      conns_.push_back(std::move(conn));
    }
    times->total_s = SecondsSince(start);
    return Status::OK();
  }

  Status BuildOracle() override {
    DFDB_RETURN_IF_ERROR(mix_.Init(storage_.get()));
    for (int c = 0; c < clients(); ++c) {
      orders_.push_back(ClientOrder(seed_, c, mix_.size()));
    }
    return Status::OK();
  }

  void Op(Client* c) override {
    const auto& order = orders_[static_cast<size_t>(c->index)];
    const int q = order[c->seq % order.size()];
    const std::string& text = mix_.texts[static_cast<size_t>(q)];
    SpanLog* log = c->spans;
    const uint64_t request = log ? log->NewRequest() : 0;
    ScopedSpan root(log, "bench.request", request, 0);

    dfdb::net::Client& conn = conns_[static_cast<size_t>(c->index)];
    StatusOr<dfdb::net::RemoteResult> result =
        Status::Unavailable("not connected");
    const auto t0 = Clock::now();
    {
      ScopedSpan call(log, "net.execute", request, root.id());
      if (!conn.connected()) {
        auto fresh = Connect();
        if (fresh.ok()) conn = std::move(*fresh);
      }
      if (conn.connected()) result = conn.Execute(text);
      if (log != nullptr && result.ok()) {
        const int64_t end = NowNs();
        log->Add("engine.server", request, call.id(),
                 end - static_cast<int64_t>(result->server_seconds * 1e9),
                 end);
      }
    }
    const double ms = Millis(t0, Clock::now());
    if (!result.ok()) {
      c->Record(false, mix_.name(q), OpKind::kRead, ms);
      c->Note(StrFormat("%s: %s", mix_.name(q),
                        result.status().ToString().c_str()));
      return;
    }
    const Fingerprint got = FingerprintOf(*result);
    const Fingerprint& want = mix_.expected[static_cast<size_t>(q)];
    if (!c->Record(got == want, mix_.name(q), OpKind::kRead, ms)) {
      c->Note(Mismatch(mix_.name(q), want, got));
      return;
    }
    if (log != nullptr) {
      AddCounters(result->counters, &c->data->counters);
      const double server_ms = result->server_seconds * 1e3;
      c->data->series["engine.server_ms"].push_back(server_ms);
      c->data->series["net.overhead_ms"].push_back(ms - server_ms);
    }
  }

  std::map<std::string, double> GlobalCounters() const override {
    const auto& n = server_->counters();
    std::map<std::string, double> out =
        BufferCounters(server_->AggregateStats());
    out["net.requests"] = static_cast<double>(n.requests.load());
    out["net.bytes_in"] = static_cast<double>(n.bytes_in.load());
    out["net.bytes_out"] = static_cast<double>(n.bytes_out.load());
    out["net.rejected"] = static_cast<double>(n.rejected.load());
    return out;
  }

  void LayerMetrics(const Traced& t, MetricMap* out) override {
    const double ops = static_cast<double>(t.data.samples.size());
    const double requests = t.deltas.at("net.requests");
    auto& m = *out;
    m["net.overhead_p50_ms"] = {SeriesMedian(t.data, "net.overhead_ms"),
                                "ms"};
    m["net.bytes_in_per_query"] = {PerOp(t.deltas.at("net.bytes_in"), requests),
                                   "B"};
    m["net.bytes_out_per_query"] = {
        PerOp(t.deltas.at("net.bytes_out"), requests), "B"};
    m["net.rejected"] = {PerOp(t.deltas.at("net.rejected"), requests),
                         "count"};
    m["engine.server_p50_ms"] = {SeriesMedian(t.data, "engine.server_ms"),
                                 "ms"};
    EngineLayerMetrics(t.data.counters, ops, out);
    StorageLayerMetrics(t.deltas, ops, out);
    ClassLatencies(t.data.samples, out);
  }

  Status Calibrate(SpanLog* log, MetricMap* out) override {
    DFDB_RETURN_IF_ERROR(CalibratePaper(storage_.get(), log, out));
    return TimePlanning(log, out);
  }

 private:
  StatusOr<dfdb::net::Client> Connect() const {
    return dfdb::net::Client::Connect("127.0.0.1", server_->port());
  }

  /// The server parses and optimizes every request inside the round trip.
  /// The benchmark cannot time that without instrumenting the server, so it
  /// times the same public calls on each text of the mix here, on one
  /// thread and outside the load. Each figure is the mean over the ten
  /// queries of the call's median time. Optimize is given the analyzed
  /// plan; it still resolves its own copies, as it does in the server.
  Status TimePlanning(SpanLog* log, MetricMap* out) {
    const dfdb::Analyzer analyzer(&storage_->catalog());
    const dfdb::Optimizer optimizer(&storage_->catalog());
    double parse_ns = 0, analyze_ns = 0, optimize_ns = 0;
    Status status = Status::OK();
    for (const std::string& text : mix_.texts) {
      DFDB_ASSIGN_OR_RETURN(PlanNodePtr plan, dfdb::ParseQuery(text));
      parse_ns += MedianPassNs(log, "ra.parse", [&] {
        auto parsed = dfdb::ParseQuery(text);
        if (!parsed.ok()) status = parsed.status();
      });
      // Resolving a resolved tree redoes the same work; the optimizer
      // itself re-resolves its trees between rewrite passes.
      analyze_ns += MedianPassNs(log, "ra.analyze", [&] {
        auto analysis = analyzer.Resolve(plan.get());
        if (!analysis.ok()) status = analysis.status();
      });
      optimize_ns += MedianPassNs(log, "ra.optimize", [&] {
        auto optimized = optimizer.Optimize(*plan);
        if (!optimized.ok()) status = optimized.status();
      });
      DFDB_RETURN_IF_ERROR(status);
    }
    const double n = static_cast<double>(mix_.texts.size()) * 1e3;
    (*out)["ra.parse_us"] = {parse_ns / n, "us"};
    (*out)["ra.analyze_us"] = {analyze_ns / n, "us"};
    (*out)["ra.optimize_us"] = {optimize_ns / n, "us"};
    return Status::OK();
  }

  uint64_t seed_ = 0;
  std::unique_ptr<StorageEngine> storage_;
  std::unique_ptr<dfdb::net::Server> server_;
  std::vector<dfdb::net::Client> conns_;
  PaperMix mix_;
  std::vector<std::vector<int>> orders_;
};

// --- events_rw -------------------------------------------------------------

/// 1M 100-byte events: 100 MB, about 12x the 512-page disk cache.
constexpr uint64_t kEvents = 1000000;
/// Events older than this form the churned region: the writer appends and
/// deletes only there, and every reader predicate excludes it, so reader
/// results do not depend on which snapshot a read sees.
constexpr int64_t kChurnTs = static_cast<int64_t>(kEvents / 64);
/// Backfill batch the writer appends (ts 0..1023, inside the churned region).
constexpr uint64_t kBackfill = 1024;
constexpr int kReaders = kCores - 1;

class EventsWorkload final : public Workload {
 public:
  int clients() const override { return kCores; }
  // Each database costs a 100 MB build and a reference pass; its work
  // depends less on the data than the joins of the paper mix do.
  int databases() const override { return 3; }
  int slices_per_database() const override { return 3; }
  double warmup_seconds() const override { return 0.5; }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    seed_ = seed;
    const auto start = Clock::now();
    storage_ = std::make_unique<StorageEngine>(kPageBytes);
    DFDB_RETURN_IF_ERROR(
        dfdb::GenerateSkewedRelation(storage_.get(), "events", kEvents, seed)
            .status());
    DFDB_RETURN_IF_ERROR(dfdb::GenerateSkewedRelation(storage_.get(),
                                                      "events_in", kBackfill,
                                                      BackfillSeed())
                             .status());
    times->build_s = SecondsSince(start);
    const auto index_start = Clock::now();
    DFDB_RETURN_IF_ERROR(dfdb::GetIndexManager(storage_.get())
                             ->CreateIndex("events_user_device", "events",
                                           {"user", "device"}));
    times->index_s = SecondsSince(index_start);
    dfdb::SchedulerOptions options;
    options.exec.num_processors = kCores;
    scheduler_ = std::make_unique<dfdb::Scheduler>(storage_.get(), options);
    times->total_s = SecondsSince(start);
    return Status::OK();
  }

  Status BuildOracle() override {
    DFDB_RETURN_IF_ERROR(ChooseReads());
    dfdb::Optimizer optimizer(&storage_->catalog());
    for (Read& r : reads_) {
      DFDB_ASSIGN_OR_RETURN(r.expected,
                            ReferenceFingerprint(storage_.get(), *r.plan));
      if (r.expected.tuples == 0) {
        return Status::FailedPrecondition(std::string(r.name) +
                                          " is empty: vacuous check");
      }
      DFDB_ASSIGN_OR_RETURN(r.prepared, optimizer.Optimize(*r.plan));
    }
    append_ = dfdb::MakeAppend(dfdb::MakeScan("events_in"), "events");
    DFDB_ASSIGN_OR_RETURN(append_prepared_, optimizer.Optimize(*append_));
    for (int32_t d = 0; d < 16; ++d) {
      deletes_.push_back(dfdb::MakeDelete(
          "events", dfdb::And(dfdb::Lt(dfdb::Col("ts"), dfdb::Lit(kChurnTs)),
                              dfdb::Eq(dfdb::Col("device"), dfdb::Lit(d)))));
      DFDB_ASSIGN_OR_RETURN(PlanNodePtr p,
                            optimizer.Optimize(*deletes_.back()));
      deletes_prepared_.push_back(std::move(p));
    }
    churn_ = ChurnRead();
    dfdb::ReferenceExecutor ref(storage_.get());
    DFDB_ASSIGN_OR_RETURN(churn_initial_, ref.Execute(*churn_));
    for (int c = 0; c < kReaders; ++c) {
      orders_.push_back(
          ClientOrder(seed_, c, static_cast<int>(reads_.size())));
    }
    return Status::OK();
  }

  void Op(Client* c) override {
    if (c->index >= kReaders) {
      Write(c);
      return;
    }
    const auto& order = orders_[static_cast<size_t>(c->index)];
    const Read& read =
        reads_[static_cast<size_t>(order[c->seq % order.size()])];
    double ms = 0;
    StatusOr<QueryResult> result = Run(c, *read.prepared, &ms);
    if (!result.ok()) {
      c->Record(false, read.name, OpKind::kRead, ms);
      c->Note(StrFormat("%s: %s", read.name,
                        result.status().ToString().c_str()));
      return;
    }
    const Fingerprint got = FingerprintOf(*result);
    if (!c->Record(got == read.expected, read.name, OpKind::kRead, ms)) {
      c->Note(Mismatch(read.name, read.expected, got));
      return;
    }
    if (c->spans != nullptr) {
      AddCounters(result->stats(), &c->data->counters);
    }
  }

  std::map<std::string, double> GlobalCounters() const override {
    std::map<std::string, double> out =
        BufferCounters(scheduler_->AggregateStats());
    const dfdb::MvccStats mvcc = storage_->mvcc_stats();
    out["mvcc.pages_copied"] = static_cast<double>(mvcc.pages_copied);
    out["mvcc.gc_reclaimed"] = static_cast<double>(mvcc.gc_reclaimed);
    out["mvcc.commits"] = static_cast<double>(mvcc.commits);
    return out;
  }

  /// The writer's statements, replayed serially by the ReferenceExecutor on
  /// a copy of the churned region, must leave the same region behind.
  Status Verify(Tally* tally, std::vector<std::string>* notes) override {
    StatusOr<dfdb::QueryHandle> handle = scheduler_->Submit(*churn_);
    StatusOr<QueryResult> final_region =
        handle.ok() ? handle->Wait() : StatusOr<QueryResult>(handle.status());
    if (!final_region.ok()) {
      tally->Record(false);
      notes->push_back("churned region read: " +
                       final_region.status().ToString());
      return Status::OK();
    }
    StorageEngine replica(kPageBytes);
    DFDB_RETURN_IF_ERROR(
        replica.CreateRelation("events", dfdb::SkewedEventSchema()).status());
    DFDB_ASSIGN_OR_RETURN(dfdb::HeapFile * file,
                          replica.GetHeapFile("events"));
    for (const dfdb::PagePtr& page : churn_initial_.pages()) {
      DFDB_RETURN_IF_ERROR(file->AppendPage(*page));
    }
    DFDB_RETURN_IF_ERROR(replica.SyncStats("events"));
    DFDB_RETURN_IF_ERROR(dfdb::GenerateSkewedRelation(&replica, "events_in",
                                                      kBackfill, BackfillSeed())
                             .status());
    dfdb::ReferenceExecutor ref(&replica);
    for (int statement : applied_) {
      const PlanNode& plan = statement < 0
                                 ? *append_
                                 : *deletes_[static_cast<size_t>(statement)];
      DFDB_RETURN_IF_ERROR(ref.Execute(plan).status());
    }
    DFDB_ASSIGN_OR_RETURN(QueryResult replayed, ref.Execute(*churn_));
    const Fingerprint want = FingerprintOf(replayed);
    const Fingerprint got = FingerprintOf(*final_region);
    if (!tally->Record(want == got)) {
      notes->push_back(StrFormat(
          "writer replay of %zu statements: %s", applied_.size(),
          Mismatch("churned region", want, got).c_str()));
    }
    return Status::OK();
  }

  void LayerMetrics(const Traced& t, MetricMap* out) override {
    const double ops = static_cast<double>(t.data.samples.size());
    std::vector<double> reads;
    for (const Sample& s : t.data.samples) {
      if (s.kind == OpKind::kRead) reads.push_back(s.ms);
    }
    auto& m = *out;
    auto counter = [&](const char* k) {
      auto it = t.data.counters.find(k);
      return it == t.data.counters.end() ? 0.0 : it->second;
    };
    m["engine.exec_p50_ms"] = {Median(reads), "ms"};
    ClassLatencies(t.data.samples, out);
    EngineLayerMetrics(t.data.counters, ops, out);
    StorageLayerMetrics(t.deltas, ops, out);
    for (const char* k : {"tuples_in", "tuples_out", "bytes_elided"}) {
      m[StrFormat("storage.pushdown.%s", k)] = {
          PerOp(counter(StrFormat("engine.pushdown.%s", k).c_str()), ops),
          k == std::string("bytes_elided") ? "B" : "count"};
    }
    for (const char* k : {"pages_copied", "gc_reclaimed", "commits"}) {
      m[StrFormat("storage.mvcc.%s", k)] = {
          PerOp(t.deltas.at(StrFormat("mvcc.%s", k)), ops), "count"};
    }
    m["storage.mvcc.versions_live"] = {
        static_cast<double>(storage_->mvcc_stats().versions_live), "count"};
    for (const char* k : {"pages_pruned", "zonemap_hits", "gridfile_probes",
                          "fallback_scans"}) {
      m[StrFormat("index.%s", k)] = {
          PerOp(counter(StrFormat("engine.index.%s", k).c_str()), ops),
          "count"};
    }
  }

  Status Calibrate(SpanLog* log, MetricMap* out) override {
    DFDB_ASSIGN_OR_RETURN(
        double ns, TimeRestrict(storage_.get(), "restrict(events, val < 0.02)",
                                log));
    (*out)["operators.restrict_ns_per_tuple"] = {ns, "ns"};
    return Status::OK();
  }

 private:
  struct Read {
    const char* name;
    PlanNodePtr plan;      ///< As written; the reference executes this.
    PlanNodePtr prepared;  ///< Optimized once; the clients submit this.
    Fingerprint expected;
  };

  uint64_t BackfillSeed() const { return dfdb::HashCombine(seed_, 0xbac4f111); }

  static PlanNodePtr ChurnRead() {
    return dfdb::MakeRestrict(dfdb::MakeScan("events"),
                              dfdb::Lt(dfdb::Col("ts"), dfdb::Lit(kChurnTs)));
  }

  static dfdb::ExprPtr Stable() {
    return dfdb::Ge(dfdb::Col("ts"), dfdb::Lit(kChurnTs));
  }

  /// Picks the read parameters from the seed and the generated data, so
  /// every read returns tuples and every check means something.
  Status ChooseReads() {
    using namespace dfdb;  // NOLINT(build/namespaces): plan builders.
    Random rng(HashCombine(seed_, 0x5eed));
    const int64_t n = static_cast<int64_t>(kEvents);
    const int64_t users = static_cast<int64_t>(SkewedEventUserCount(kEvents));

    // Per-(user, device) counts above a seeded time bound.
    const int64_t since =
        kChurnTs + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
                       n / 2 - kChurnTs)));
    ReferenceExecutor ref(storage_.get());
    DFDB_ASSIGN_OR_RETURN(
        QueryResult groups,
        ref.Execute(*MakeAggregate(
            MakeRestrict(MakeScan("events"), Ge(Col("ts"), Lit(since))),
            {"user", "device"},
            {AggregateSpec{AggregateSpec::Func::kCount, "", "n"}})));
    DFDB_ASSIGN_OR_RETURN(auto rows, groups.ToRows());
    // Rare users: a Zipfian rank past users/20 holding a session or two.
    std::map<int64_t, int64_t> per_user;
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const auto& row : rows) {
      const int64_t user = AsInt(row[0]);
      per_user[user] += AsInt(row[2]);
      if (user >= users / 50 && user < users / 5) {
        pairs.emplace_back(user, AsInt(row[1]));
      }
    }
    std::vector<int64_t> rare;
    for (const auto& [user, count] : per_user) {
      if (user >= users / 20 && count <= 400) rare.push_back(user);
    }
    if (rare.empty() || pairs.empty()) {
      return Status::FailedPrecondition("no rare user or mid-rank user/device");
    }
    const int64_t rare_user = rare[rng.Uniform(rare.size())];
    const auto [pair_user, pair_device] = pairs[rng.Uniform(pairs.size())];
    const int64_t window = n / 50;
    const int64_t window_start =
        kChurnTs + static_cast<int64_t>(rng.Uniform(
                       static_cast<uint64_t>(n - kChurnTs - window)));

    auto add = [&](const char* name, PlanNodePtr plan) {
      reads_.push_back(Read{name, std::move(plan), nullptr, {}});
    };
    // A 2% time window: contiguous pages, zone maps prune the rest.
    add("ts_window",
        MakeRestrict(MakeScan("events"),
                     And(Ge(Col("ts"), Lit(window_start)),
                         Lt(Col("ts"), Lit(window_start + window)))));
    // A rare user's events: the grid file finds its few pages.
    add("rare_user",
        MakeRestrict(MakeScan("events"),
                     And(Eq(Col("user"), Lit(static_cast<int32_t>(rare_user))),
                         Stable())));
    // Both grid dimensions plus a time bound.
    add("user_device_ts",
        MakeRestrict(
            MakeScan("events"),
            And(And(Eq(Col("user"), Lit(static_cast<int32_t>(pair_user))),
                    Eq(Col("device"), Lit(static_cast<int32_t>(pair_device)))),
                Ge(Col("ts"), Lit(since)))));
    // 2% on a column no index or page order helps with: pushdown only.
    add("val_2pct", MakeRestrict(MakeScan("events"),
                                 And(Lt(Col("val"), Lit(0.02)), Stable())));
    // Count-only scan: only the count leaves the storage hierarchy.
    add("count_5pct",
        MakeAggregate(MakeRestrict(MakeScan("events"),
                                   And(Ge(Col("val"), Lit(0.95)), Stable())),
                      {},
                      {AggregateSpec{AggregateSpec::Func::kCount, "", "n"}}));
    return Status::OK();
  }

  /// Submits \p plan and waits; the span tree is request → submit, wait.
  /// \p ms receives the Submit→Wait latency.
  StatusOr<QueryResult> Run(Client* c, const PlanNode& plan, double* ms) {
    SpanLog* log = c->spans;
    const uint64_t request = log ? log->NewRequest() : 0;
    ScopedSpan root(log, "bench.request", request, 0);
    const auto t0 = Clock::now();
    StatusOr<QueryResult> out = Status::Unavailable("not submitted");
    StatusOr<dfdb::QueryHandle> handle = Status::Unavailable("not submitted");
    {
      ScopedSpan submit(log, "engine.submit", request, root.id());
      handle = scheduler_->Submit(plan);
    }
    if (handle.ok()) {
      ScopedSpan wait(log, "engine.wait", request, root.id());
      out = handle->Wait();
    } else {
      out = handle.status();
    }
    *ms = Millis(t0, Clock::now());
    return out;
  }

  /// The writer alternates a backfill append with a delete of one device's
  /// events in the churned region, cycling through the 16 devices.
  void Write(Client* c) {
    const bool append = c->seq % 2 == 0;
    const int device = static_cast<int>((seed_ + c->seq / 2) % 16);
    const PlanNode& plan =
        append ? *append_prepared_
               : *deletes_prepared_[static_cast<size_t>(device)];
    double ms = 0;
    StatusOr<QueryResult> result = Run(c, plan, &ms);
    const char* cls = append ? "append" : "delete";
    if (!c->Record(result.ok(), cls,
                   append ? OpKind::kAppend : OpKind::kDelete, ms)) {
      c->Note(StrFormat("%s: %s", cls, result.status().ToString().c_str()));
      return;
    }
    applied_.push_back(append ? -1 : device);
    if (c->spans != nullptr) {
      AddCounters(result->stats(), &c->data->counters);
    }
  }

  uint64_t seed_ = 0;
  std::unique_ptr<StorageEngine> storage_;
  std::unique_ptr<dfdb::Scheduler> scheduler_;
  std::vector<Read> reads_;
  std::vector<std::vector<int>> orders_;
  PlanNodePtr append_;
  PlanNodePtr append_prepared_;
  std::vector<PlanNodePtr> deletes_;
  std::vector<PlanNodePtr> deletes_prepared_;
  PlanNodePtr churn_;
  QueryResult churn_initial_;
  /// Statements the writer completed, in order: -1 append, else the device
  /// whose churned events were deleted. Only the writer thread appends.
  std::vector<int> applied_;
};

// --- paper_mix_dist --------------------------------------------------------

constexpr int kWorkers = 3;

class DistWorkload final : public Workload {
 public:
  // The coordinator runs one query at a time.
  int clients() const override { return 1; }
  int databases() const override { return kPaperDatabases; }
  double warmup_seconds() const override { return kPaperWarmupSeconds; }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    seed_ = seed;
    const auto start = Clock::now();
    std::vector<dfdb::dist::WorkerAddress> addrs;
    for (int w = 0; w < kWorkers; ++w) {
      const auto build_start = Clock::now();
      auto storage = std::make_unique<StorageEngine>(kPageBytes);
      DFDB_RETURN_IF_ERROR(dfdb::BuildPartitionedPaperDatabase(
                               storage.get(), w, kWorkers, kPaperScale, seed)
                               .status());
      times->build_s += SecondsSince(build_start);
      // One engine thread per worker: three in all, within the 4 cores.
      dfdb::net::ServerOptions options;
      options.scheduler.exec.num_processors = 1;
      auto server =
          std::make_unique<dfdb::net::Server>(storage.get(), options);
      DFDB_RETURN_IF_ERROR(server->Start());
      addrs.push_back({"127.0.0.1", server->port()});
      storages_.push_back(std::move(storage));
      servers_.push_back(std::move(server));
    }
    catalog_ = std::make_unique<dfdb::Catalog>();
    DFDB_RETURN_IF_ERROR(dfdb::BuildPaperCatalog(catalog_.get(), kPaperScale));
    dfdb::dist::CoordinatorOptions options;
    options.workers = std::move(addrs);
    options.partition_column = std::string(dfdb::kPartitionColumn);
    coordinator_ =
        std::make_unique<dfdb::dist::Coordinator>(catalog_.get(), options);
    DFDB_RETURN_IF_ERROR(coordinator_->Connect());
    times->total_s = SecondsSince(start);
    return Status::OK();
  }

  Status BuildOracle() override {
    // The union of the partitions is byte-identical to the full build.
    full_ = std::make_unique<StorageEngine>(kPageBytes);
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(full_.get(), kPaperScale, seed_).status());
    DFDB_RETURN_IF_ERROR(mix_.Init(full_.get()));
    order_ = ClientOrder(seed_, 0, mix_.size());
    return Status::OK();
  }

  void Op(Client* c) override {
    const int q = order_[c->seq % order_.size()];
    SpanLog* log = c->spans;
    const uint64_t request = log ? log->NewRequest() : 0;
    ScopedSpan root(log, "bench.request", request, 0);
    const auto t0 = Clock::now();
    StatusOr<dfdb::net::RemoteResult> result =
        Status::Unavailable("not executed");
    {
      ScopedSpan call(log, "dist.execute", request, root.id());
      result = coordinator_->Execute(mix_.texts[static_cast<size_t>(q)]);
    }
    const double ms = Millis(t0, Clock::now());
    if (!result.ok()) {
      c->Record(false, mix_.name(q), OpKind::kRead, ms);
      c->Note(StrFormat("%s: %s", mix_.name(q),
                        result.status().ToString().c_str()));
      // A failed query may leave worker connections closed.
      (void)coordinator_->Connect();
      return;
    }
    const Fingerprint got = FingerprintOf(*result);
    const Fingerprint& want = mix_.expected[static_cast<size_t>(q)];
    if (!c->Record(got == want, mix_.name(q), OpKind::kRead, ms)) {
      c->Note(Mismatch(mix_.name(q), want, got));
    }
  }

  std::map<std::string, double> GlobalCounters() const override {
    const dfdb::dist::DistCounters& d = coordinator_->counters();
    return {
        {"dist.queries", static_cast<double>(d.queries.load())},
        {"dist.bytes_shuffled", static_cast<double>(d.bytes_shuffled.load())},
        {"dist.batches_routed", static_cast<double>(d.batches_routed.load())},
        {"dist.fragments",
         static_cast<double>(d.fragments_dispatched.load())},
        {"dist.credit_waits", static_cast<double>(d.credit_waits.load())},
        {"dist.shuffle_micros", static_cast<double>(d.shuffle_micros.load())},
    };
  }

  void LayerMetrics(const Traced& t, MetricMap* out) override {
    const double ops = static_cast<double>(t.data.samples.size());
    auto& m = *out;
    for (const char* k :
         {"bytes_shuffled", "batches_routed", "fragments", "credit_waits"}) {
      m[StrFormat("dist.%s_per_query", k)] = {
          PerOp(t.deltas.at(StrFormat("dist.%s", k)), ops),
          k == std::string("bytes_shuffled") ? "B" : "count"};
    }
    m["dist.shuffle_ms_per_query"] = {
        PerOp(t.deltas.at("dist.shuffle_micros"), ops) / 1e3, "ms"};
    ClassLatencies(t.data.samples, out);
  }

  Status Calibrate(SpanLog* log, MetricMap* out) override {
    return CalibratePaper(full_.get(), log, out);
  }

 private:
  uint64_t seed_ = 0;
  std::vector<std::unique_ptr<StorageEngine>> storages_;
  std::vector<std::unique_ptr<dfdb::net::Server>> servers_;
  std::unique_ptr<dfdb::Catalog> catalog_;
  std::unique_ptr<dfdb::dist::Coordinator> coordinator_;
  std::unique_ptr<StorageEngine> full_;
  PaperMix mix_;
  std::vector<int> order_;
};

// --- paper_mix_sim ---------------------------------------------------------

class SimWorkload final : public Workload {
 public:
  int clients() const override { return 1; }
  int databases() const override { return kPaperDatabases; }
  double warmup_seconds() const override { return kPaperWarmupSeconds; }

  Status Setup(uint64_t seed, SetupTimes* times) override {
    const auto start = Clock::now();
    storage_ = std::make_unique<StorageEngine>(kPageBytes);
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(storage_.get(), kPaperScale, seed).status());
    times->build_s = SecondsSince(start);
    // Figure 3.1's machine: 16 IPs, 8 ICs, 16 KB pages, page granularity.
    dfdb::MachineOptions options;
    options.granularity = dfdb::Granularity::kPage;
    options.config.num_instruction_processors = 16;
    options.config.num_instruction_controllers = 8;
    options.config.page_bytes = kPageBytes;
    sim_ = std::make_unique<dfdb::MachineSimulator>(storage_.get(), options);
    times->total_s = SecondsSince(start);
    return Status::OK();
  }

  Status BuildOracle() override {
    DFDB_RETURN_IF_ERROR(mix_.Init(storage_.get()));
    for (const dfdb::Query& q : mix_.queries) plans_.push_back(q.root.get());
    // Simulated time is deterministic: every run must reproduce this one.
    DFDB_ASSIGN_OR_RETURN(dfdb::MachineReport report, sim_->Run(plans_));
    makespan_s_ = report.makespan.ToSecondsF();
    return Status::OK();
  }

  void Op(Client* c) override {
    SpanLog* log = c->spans;
    const uint64_t request = log ? log->NewRequest() : 0;
    ScopedSpan root(log, "bench.request", request, 0);
    const auto t0 = Clock::now();
    StatusOr<dfdb::MachineReport> report = Status::Unavailable("not run");
    {
      ScopedSpan call(log, "machine.run", request, root.id());
      report = sim_->Run(plans_);
    }
    const double ms = Millis(t0, Clock::now());
    if (!report.ok() || report->results.size() != plans_.size()) {
      for (int q = 0; q < mix_.size(); ++q) {
        c->data->tally.Record(false);
      }
      c->Note(report.ok() ? std::string("wrong result count")
                          : report.status().ToString());
      return;
    }
    // A run whose simulated time differs from the first run's fails every
    // query in it: the simulator's output is not reproducible.
    const double makespan = report->makespan.ToSecondsF();
    const bool deterministic = makespan == makespan_s_;
    if (!deterministic) {
      c->Note(StrFormat("makespan %.9f s differs from first run %.9f s",
                        makespan, makespan_s_));
    }
    bool all_ok = deterministic;
    for (int q = 0; q < mix_.size(); ++q) {
      const Fingerprint got =
          FingerprintOf(report->results[static_cast<size_t>(q)]);
      const Fingerprint& want = mix_.expected[static_cast<size_t>(q)];
      if (!c->data->tally.Record(deterministic && got == want)) {
        all_ok = false;
        if (got != want) c->Note(Mismatch(mix_.name(q), want, got));
      }
    }
    if (!all_ok) return;
    c->data->samples.push_back({"mix", OpKind::kRead, ms});
    if (log != nullptr) {
      auto& s = c->data->series;
      const double events = static_cast<double>(report->events);
      s["events"].push_back(events);
      s["events_per_wall_s"].push_back(events / (ms / 1e3));
      s["ip_utilization"].push_back(report->IpUtilization());
      s["outer_ring_mbit_s"].push_back(report->OuterRingBps() / 1e6);
      s["instruction_packets"].push_back(
          static_cast<double>(report->instruction_packets));
      s["result_packets"].push_back(
          static_cast<double>(report->result_packets));
      s["pushdown_bytes_elided"].push_back(
          static_cast<double>(report->pushdown.bytes_elided));
    }
  }

  void LayerMetrics(const Traced& t, MetricMap* out) override {
    auto& m = *out;
    m["machine.events_per_run"] = {SeriesMedian(t.data, "events"), "count"};
    m["machine.events_per_wall_s"] = {
        SeriesMedian(t.data, "events_per_wall_s"), "1/s"};
    m["machine.ip_utilization"] = {SeriesMedian(t.data, "ip_utilization"),
                                   "ratio"};
    m["machine.outer_ring_mbit_s"] = {
        SeriesMedian(t.data, "outer_ring_mbit_s"), "Mbit/s"};
    m["machine.instruction_packets"] = {
        SeriesMedian(t.data, "instruction_packets"), "count"};
    m["machine.result_packets"] = {SeriesMedian(t.data, "result_packets"),
                                   "count"};
    m["machine.pushdown.bytes_elided"] = {
        SeriesMedian(t.data, "pushdown_bytes_elided"), "B"};
  }

  Status Calibrate(SpanLog* log, MetricMap* out) override {
    return CalibratePaper(storage_.get(), log, out);
  }

  void Extra(MetricMap* out) override {
    (*out)["sim_makespan_s"] = {makespan_s_, "sim_s"};
  }

 private:
  std::unique_ptr<StorageEngine> storage_;
  std::unique_ptr<dfdb::MachineSimulator> sim_;
  PaperMix mix_;
  std::vector<const PlanNode*> plans_;
  double makespan_s_ = 0;
};

// --- Measurement loop ------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_mix_wire") return std::make_unique<WireWorkload>();
  if (name == "events_rw") return std::make_unique<EventsWorkload>();
  if (name == "paper_mix_dist") return std::make_unique<DistWorkload>();
  if (name == "paper_mix_sim") return std::make_unique<SimWorkload>();
  return nullptr;
}

struct PhaseResult {
  PhaseData data;
  double wall_s = 0;
  double steal = 0;  ///< Share of the host's CPU time stolen meanwhile.
};

/// Runs every client closed-loop for \p seconds: each sends its next
/// operation only after the previous one completed.
PhaseResult RunPhase(Workload* w, std::vector<Client>* clients,
                     std::vector<std::unique_ptr<SpanLog>>* logs,
                     double seconds, bool traced) {
  std::vector<PhaseData> data(clients->size());
  const CpuTicks ticks = ReadCpuTicks();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    Client* c = &(*clients)[i];
    c->data = &data[i];
    c->spans = traced ? (*logs)[i].get() : nullptr;
    threads.emplace_back([w, c, deadline] {
      while (Clock::now() < deadline) {
        w->Op(c);
        ++c->seq;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.wall_s = SecondsSince(start);
  out.steal = StealShare(ticks, ReadCpuTicks());
  for (PhaseData& d : data) out.data.Merge(std::move(d));
  return out;
}

double Qps(const PhaseData& d, double wall_s) {
  return wall_s > 0 ? static_cast<double>(d.tally.attempted - d.tally.failed) /
                          wall_s
                    : 0;
}

/// Write latencies (events_rw only), from one phase's samples.
void WriteMetrics(const PhaseData& d, MetricMap* out) {
  std::vector<double> appends, deletes, writes;
  for (const Sample& s : d.samples) {
    if (s.kind == OpKind::kRead) continue;
    (s.kind == OpKind::kAppend ? appends : deletes).push_back(s.ms);
    writes.push_back(s.ms);
  }
  if (writes.empty()) return;
  (*out)["append_p50_ms"] = {Median(appends), "ms"};
  (*out)["delete_p50_ms"] = {Median(deletes), "ms"};
  (*out)["write_p95_ms"] = {Percentile(writes, 0.95), "ms"};
}

/// One measured slice of a run: a phase of its own, with its host steal.
struct Slice {
  double queries = 0;  ///< Completed without error.
  double wall_s = 0;
  double steal = 0;
  std::vector<double> reads_ms;

  explicit Slice(const PhaseResult& p)
      : queries(static_cast<double>(p.data.tally.attempted -
                                    p.data.tally.failed)),
        wall_s(p.wall_s),
        steal(p.steal) {
    for (const Sample& s : p.data.samples) {
      if (s.kind == OpKind::kRead) reads_ms.push_back(s.ms);
    }
  }
};

/// Host steal below this share of the wanted CPU time barely moves any
/// workload's figures.
constexpr double kNegligibleSteal = 0.05;

/// The slices the end-to-end figures are computed from: those whose host
/// steal is negligible or at most the median slice's. On a shared virtual
/// machine a stretch of stolen CPU time can halve a latency-bound
/// workload's throughput for seconds. At least half the slices are kept,
/// and all of them when steal is negligible throughout (or unknown).
std::vector<Slice> LeastStolen(std::vector<Slice> slices) {
  std::vector<double> steal;
  for (const Slice& s : slices) steal.push_back(s.steal);
  const double limit = std::max(kNegligibleSteal, Median(std::move(steal)));
  std::erase_if(slices, [&](const Slice& s) { return s.steal > limit; });
  return slices;
}

/// Sets \p prefix + qps, read_p50_ms and read_p95_ms pooled over \p slices.
/// With \p unstolen, each slice's times are scaled by the share of wanted
/// CPU time the hypervisor did not steal: the time the slice would have
/// taken had the host given it every cycle it asked for. Steal that stays
/// high for a whole run (it did for minutes at a time) slows every slice
/// alike, which LeastStolen cannot remove.
void ThroughputMetrics(const std::vector<Slice>& slices, bool unstolen,
                       const std::string& prefix, MetricMap* out) {
  double queries = 0, wall_s = 0;
  std::vector<double> reads;
  for (const Slice& s : slices) {
    const double scale = unstolen ? 1 - s.steal : 1;
    queries += s.queries;
    wall_s += s.wall_s * scale;
    for (double ms : s.reads_ms) reads.push_back(ms * scale);
  }
  (*out)[prefix + "qps"] = {wall_s > 0 ? queries / wall_s : 0, "queries/s"};
  (*out)[prefix + "read_p50_ms"] = {Percentile(reads, 0.5), "ms"};
  (*out)[prefix + "read_p95_ms"] = {Percentile(std::move(reads), 0.95), "ms"};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_mix_wire", "events_rw", "paper_mix_dist", "paper_mix_sim"};
  return names;
}

StatusOr<RunOutcome> RunWorkload(const RunConfig& config) {
  std::unique_ptr<Workload> w = MakeWorkload(config.workload);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  const int databases =
      config.databases > 0 ? config.databases : w->databases();
  const double share = config.seconds / databases;

  RunOutcome out;
  Tally tally;
  auto account = [&](const PhaseData& d) {
    tally.Add(d.tally);
    for (const std::string& note : d.notes) {
      if (out.notes.size() < 8) out.notes.push_back(note);
    }
  };
  std::vector<double> setup_s, build_s, index_s, peak_rss, heap;
  // Host CPU counters summed over the set-ups alone: one set-up is too
  // short to measure its own steal.
  CpuTicks setup_ticks;
  std::map<std::string, std::vector<double>> extras;
  // Span ids are unique per log, so one log per client serves every
  // database.
  std::vector<std::unique_ptr<SpanLog>> logs;
  PhaseData measured;  // the untraced run's measurement
  std::vector<Slice> slices;
  PhaseData untraced;  // the traced run's untraced slices
  double untraced_s = 0;
  Traced traced;

  for (int db = 0; db < databases; ++db) {
    const uint64_t db_seed =
        dfdb::HashCombine(config.seed, static_cast<uint64_t>(db));
    // Hand the previous database's freed memory back to the system, so each
    // database starts from the heap a fresh process would have.
    w.reset();
    malloc_trim(0);
    MemorySampler memory;
    // Set up several times per database; setup_s is the median of all.
    const int setups = std::max(kMinSetupsPerDatabase,
                                (kMinSetupsPerRun + databases - 1) / databases);
    for (int r = 0; r < setups; ++r) {
      w.reset();
      w = MakeWorkload(config.workload);
      SetupTimes times;
      const CpuTicks before = ReadCpuTicks();
      DFDB_RETURN_IF_ERROR(w->Setup(db_seed, &times));
      const CpuTicks after = ReadCpuTicks();
      setup_ticks.steal += after.steal - before.steal;
      setup_ticks.wanted += after.wanted - before.wanted;
      setup_s.push_back(times.total_s);
      build_s.push_back(times.build_s);
      index_s.push_back(times.index_s);
    }
    DFDB_RETURN_IF_ERROR(w->BuildOracle());

    const int n = w->clients();
    std::vector<Client> clients(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) clients[static_cast<size_t>(i)].index = i;
    while (static_cast<int>(logs.size()) < n) {
      logs.push_back(
          std::make_unique<SpanLog>(static_cast<uint32_t>(logs.size())));
    }
    account(RunPhase(w.get(), &clients, &logs, w->warmup_seconds(), false)
                .data);
    MemorySampler measured_memory;

    if (!config.trace) {
      const int n_slices = w->slices_per_database();
      for (int slice = 0; slice < n_slices; ++slice) {
        PhaseResult p =
            RunPhase(w.get(), &clients, &logs, share / n_slices, false);
        account(p.data);
        slices.emplace_back(p);
        measured.Merge(std::move(p.data));
      }
    } else {
      // Untraced and traced slices alternate, so drift affects both alike.
      for (int slice = 0; slice < 4; ++slice) {
        const bool on = slice % 2 == 1;
        const auto before =
            on ? w->GlobalCounters() : std::map<std::string, double>{};
        PhaseResult p = RunPhase(w.get(), &clients, &logs, share / 4, on);
        account(p.data);
        if (on) {
          for (const auto& [k, v] : w->GlobalCounters()) {
            traced.deltas[k] += v - before.at(k);
          }
          traced.wall_s += p.wall_s;
          traced.data.Merge(std::move(p.data));
        } else {
          untraced_s += p.wall_s;
          untraced.Merge(std::move(p.data));
        }
      }
    }
    measured_memory.Stop();
    DFDB_RETURN_IF_ERROR(w->Verify(&tally, &out.notes));
    MetricMap extra;
    w->Extra(&extra);
    for (const auto& [k, m] : extra) extras[k].push_back(m.value);
    memory.Stop();
    peak_rss.push_back(memory.peak_rss_mb());
    heap.push_back(measured_memory.mean_heap_mb());
  }

  // Workload-specific figures: the mean over the databases.
  MetricMap& specific = config.trace ? out.metrics : out.extra;
  MetricMap extra_units;
  w->Extra(&extra_units);
  for (const auto& [k, values] : extras) {
    double sum = 0;
    for (double v : values) sum += v;
    specific[k] = {sum / static_cast<double>(values.size()),
                   extra_units[k].unit};
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0;
  specific["error_rate"] = {
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 1.0,
      "fraction"};

  if (!config.trace) {
    MetricMap& m = out.metrics;
    const std::vector<Slice> kept = LeastStolen(slices);
    ThroughputMetrics(kept, /*unstolen=*/true, "", &m);
    // The same figures as measured, over every slice.
    ThroughputMetrics(slices, /*unstolen=*/false, "wall_", &out.extra);
    double steal = 0;
    for (const Slice& s : slices) steal += s.steal;
    out.extra["host_steal_pct"] = {
        100 * steal / static_cast<double>(slices.size()), "%"};
    out.extra["slices_kept"] = {static_cast<double>(kept.size()), "count"};
    WriteMetrics(measured, &out.extra);
    // Scaled like the slices' times: by the share of the CPU time the
    // set-ups wanted that was not stolen.
    m["setup_s"] = {Median(setup_s) * (1 - StealShare({}, setup_ticks)), "s"};
    out.extra["wall_setup_s"] = {Median(setup_s), "s"};
    m["heap_mb"] = {Median(heap), "MB"};
    out.extra["peak_rss_mb"] = {Median(peak_rss), "MB"};
    return out;
  }

  MetricMap& m = out.metrics;
  const double qps_off = Qps(untraced, untraced_s);
  const double qps_on = Qps(traced.data, traced.wall_s);
  m["obs.trace_overhead_pct"] = {
      qps_off > 0 ? (qps_off - qps_on) / qps_off * 100 : 0, "%"};
  WriteMetrics(traced.data, &m);
  w->LayerMetrics(traced, &m);
  m["workload.build_s"] = {Median(build_s), "s"};
  m["index.create_s"] = {Median(index_s), "s"};
  m["peak_rss_mb"] = {Median(peak_rss), "MB"};

  std::vector<Span> spans;
  for (const auto& log : logs) {
    spans.insert(spans.end(), log->spans().begin(), log->spans().end());
  }
  const double requests = static_cast<double>(std::count_if(
      spans.begin(), spans.end(), [](const Span& s) { return s.parent == 0; }));
  const std::map<std::string, double> self = LayerSelfNs(spans);
  for (const char* layer : {"bench", "net", "engine", "dist", "machine"}) {
    auto it = self.find(layer);
    m[StrFormat("%s.self_ms_per_op", layer)] = {
        it == self.end() ? 0 : PerOp(it->second, requests) / 1e6, "ms"};
  }
  SpanLog calibration(static_cast<uint32_t>(logs.size()));
  DFDB_RETURN_IF_ERROR(w->Calibrate(&calibration, &m));
  spans.insert(spans.end(), calibration.spans().begin(),
               calibration.spans().end());
  if (!config.trace_path.empty() && !WriteSpansJson(spans, config.trace_path)) {
    return Status::IOError("cannot write " + config.trace_path);
  }
  return out;
}

}  // namespace perfbench
