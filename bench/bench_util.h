/// \file bench_util.h
/// \brief Shared helpers for the experiment harnesses.
///
/// Each bench binary regenerates one table or figure of the paper (see
/// DESIGN.md's experiment index) and prints it as an aligned text table plus
/// a CSV block for plotting.

#ifndef DFDB_BENCH_BENCH_UTIL_H_
#define DFDB_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "ra/plan.h"
#include "storage/storage_engine.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace bench {

/// Parses "--name=value" style flags.
inline double FlagDouble(int argc, char** argv, const char* name,
                         double def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return def;
}

inline int FlagInt(int argc, char** argv, const char* name, int def) {
  return static_cast<int>(FlagDouble(argc, argv, name, def));
}

inline std::string FlagString(int argc, char** argv, const char* name,
                              const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

/// Builds the paper database; aborts on failure (bench setup).
inline void BuildDatabaseOrDie(StorageEngine* storage, double scale,
                               uint64_t seed = 42) {
  auto bytes = BuildPaperDatabase(storage, scale, seed);
  DFDB_CHECK(bytes.ok()) << bytes.status();
  std::printf("# database: 15 relations, %.2f MB (scale %.2f)\n",
              static_cast<double>(*bytes) / 1e6, scale);
}

/// Raw pointers to the benchmark query roots (the sim/engine APIs take
/// const PlanNode*).
inline std::vector<const PlanNode*> QueryPointers(
    const std::vector<Query>& queries) {
  std::vector<const PlanNode*> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(q.root.get());
  return out;
}

/// Raw pointers to owned plans.
inline std::vector<const PlanNode*> PlanPointers(
    const std::vector<PlanNodePtr>& plans) {
  std::vector<const PlanNode*> out;
  out.reserve(plans.size());
  for (const PlanNodePtr& p : plans) out.push_back(p.get());
  return out;
}

/// Resolved copies of \p plans with their marks rewritten per \p policy:
/// the plans an ablation bench submits for one side of a comparison.
inline std::vector<PlanNodePtr> WithPolicy(
    const Catalog& catalog, const std::vector<PlanNodePtr>& plans,
    const PlanPolicy& policy) {
  Analyzer analyzer(&catalog);
  std::vector<PlanNodePtr> out;
  out.reserve(plans.size());
  for (const PlanNodePtr& p : plans) {
    out.push_back(p->Clone());
    auto resolved = analyzer.Resolve(out.back().get());
    DFDB_CHECK(resolved.ok()) << resolved.status();
    ApplyPlanPolicy(out.back().get(), policy);
  }
  return out;
}

/// Accumulates everything one bench binary measured — printed tables and
/// raw obs::RunReports — and writes it as one JSON document. Every bench
/// calls WriteJson() (below) before exiting, so `results/<bench>.json`
/// exists for each binary; `--json=PATH` overrides the destination.
class JsonReport {
 public:
  static JsonReport& Global() {
    static JsonReport* r = new JsonReport();
    return *r;
  }

  /// Registers a printed table (tag + headers + string rows). Called by
  /// Table::Print, so benches get their tables exported for free.
  void AddTable(const char* tag, const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("tag");
    w.String(tag);
    w.Key("headers");
    w.BeginArray();
    for (const auto& h : headers) w.String(h);
    w.EndArray();
    w.Key("rows");
    w.BeginArray();
    for (const auto& row : rows) {
      w.BeginArray();
      for (const auto& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    tables_.push_back(w.TakeString());
  }

  /// Registers one run's full RunReport (either backend).
  void AddRunReport(const obs::RunReport& report) {
    runs_.push_back(report.ToJson());
  }

  /// Writes `{"bench":..,"schema_version":1,"tables":[..],"runs":[..]}` to
  /// `--json=PATH` or `results/<bench>.json`. Best-effort: a bench never
  /// fails because its report directory is unwritable.
  void Write(const std::string& bench, int argc, char** argv) {
    std::string path = FlagString(argc, argv, "json", "");
    if (path.empty()) path = "results/" + bench + ".json";
    const size_t slash = path.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      ::mkdir(path.substr(0, slash).c_str(), 0755);  // Best effort.
    }
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String(bench);
    w.Key("schema_version");
    w.Uint(1);
    w.Key("tables");
    w.BeginArray();
    for (const auto& t : tables_) w.Raw(t);
    w.EndArray();
    w.Key("runs");
    w.BeginArray();
    for (const auto& r : runs_) w.Raw(r);
    w.EndArray();
    w.EndObject();
    const std::string doc = w.TakeString();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("# json: %s\n", path.c_str());
  }

 private:
  JsonReport() = default;

  std::vector<std::string> tables_;
  std::vector<std::string> runs_;
};

/// Writes the bench's collected JSON document (call last in main()).
inline void WriteJson(const std::string& bench, int argc, char** argv) {
  JsonReport::Global().Write(bench, argc, argv);
}

/// Simple aligned table writer with a trailing CSV block.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print(const char* csv_tag) const {
    JsonReport::Global().AddTable(csv_tag, headers_, rows_);
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (const auto& row : rows_) print_row(row);
    // CSV block for downstream plotting.
    std::printf("\n#CSV %s\n", csv_tag);
    auto csv_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%s%s", c ? "," : "", row[c].c_str());
      }
      std::printf("\n");
    };
    csv_row(headers_);
    for (const auto& row : rows_) csv_row(row);
    std::printf("#END\n\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One reporting path for both backends: a table whose rows come from
/// obs::RunReports (ExecStats::ToReport() or MachineReport::ToReport()),
/// with optional leading key columns (the sweep parameters). Every added
/// report is also registered with JsonReport, so the bench's JSON document
/// carries the full counter snapshots behind the printed summary.
class RunTable {
 public:
  explicit RunTable(std::vector<std::string> key_headers)
      : table_([&] {
          std::vector<std::string> h = std::move(key_headers);
          const char* fixed[] = {"backend", "seconds",  "MB",
                                 "Mbit/s",  "packets", "faults"};
          h.insert(h.end(), std::begin(fixed), std::end(fixed));
          return h;
        }()) {}

  void Add(std::vector<std::string> keys, const obs::RunReport& report) {
    std::vector<std::string> row = std::move(keys);
    row.push_back(report.backend);
    row.push_back(StrFormat("%.4f", report.seconds));
    row.push_back(
        StrFormat("%.2f", static_cast<double>(report.data_bytes) / 1e6));
    row.push_back(StrFormat("%.1f", report.bits_per_second() / 1e6));
    row.push_back(StrFormat("%llu", static_cast<unsigned long long>(
                                        report.packets)));
    row.push_back(StrFormat("%llu", static_cast<unsigned long long>(
                                        report.faults)));
    table_.AddRow(std::move(row));
    JsonReport::Global().AddRunReport(report);
  }

  void Print(const char* csv_tag) const { table_.Print(csv_tag); }

 private:
  Table table_;
};

}  // namespace bench
}  // namespace dfdb

#endif  // DFDB_BENCH_BENCH_UTIL_H_
