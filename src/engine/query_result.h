/// \file query_result.h
/// \brief Materialized result of one query execution.

#ifndef DFDB_ENGINE_QUERY_RESULT_H_
#define DFDB_ENGINE_QUERY_RESULT_H_

#include <functional>
#include <vector>

#include "catalog/schema.h"
#include "common/macros.h"
#include "engine/engine_stats.h"
#include "storage/page.h"
#include "storage/tuple.h"

namespace dfdb {

/// \brief The pages produced by a query's root node, with helpers to read
/// them back as typed rows.
class QueryResult {
 public:
  QueryResult() = default;
  explicit QueryResult(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  void set_schema(Schema schema) { schema_ = std::move(schema); }

  void AddPage(PagePtr page) {
    num_tuples_ += static_cast<uint64_t>(page->num_tuples());
    pages_.push_back(std::move(page));
  }

  const std::vector<PagePtr>& pages() const { return pages_; }
  uint64_t num_tuples() const { return num_tuples_; }
  bool empty() const { return num_tuples_ == 0; }

  /// Per-query execution statistics, attached by the engine when the query
  /// completes, so work is attributed to its query even within a batch.
  /// Default-constructed for results the simulator builds.
  const ExecStats& stats() const { return stats_; }
  void set_stats(ExecStats stats) { stats_ = std::move(stats); }

  /// Event trace of the run that produced this result (shared across the
  /// batch; filter by TraceEvent::query). Null unless
  /// ExecOptions::enable_trace was set.
  const std::shared_ptr<const obs::Trace>& trace() const {
    return stats_.trace;
  }

  /// Invokes \p fn for every tuple; stops at the first non-OK status.
  Status ForEachTuple(const std::function<Status(const TupleView&)>& fn) const {
    for (const PagePtr& page : pages_) {
      for (int i = 0; i < page->num_tuples(); ++i) {
        TupleView view(&schema_, page->tuple(i));
        DFDB_RETURN_IF_ERROR(fn(view));
      }
    }
    return Status::OK();
  }

  /// Materializes every row as Values (test/diagnostic convenience).
  StatusOr<std::vector<std::vector<Value>>> ToRows() const {
    std::vector<std::vector<Value>> rows;
    rows.reserve(num_tuples_);
    Status status = ForEachTuple([&](const TupleView& t) -> Status {
      std::vector<Value> row;
      row.reserve(static_cast<size_t>(schema_.num_columns()));
      for (int c = 0; c < schema_.num_columns(); ++c) {
        DFDB_ASSIGN_OR_RETURN(Value v, t.GetValue(c));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
      return Status::OK();
    });
    if (!status.ok()) return status;
    return rows;
  }

 private:
  Schema schema_;
  std::vector<PagePtr> pages_;
  uint64_t num_tuples_ = 0;
  ExecStats stats_;
};

}  // namespace dfdb

#endif  // DFDB_ENGINE_QUERY_RESULT_H_
