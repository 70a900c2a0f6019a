/// \file aggregator.h
/// \brief Grouped aggregation over a page stream (extension operator).

#ifndef DFDB_OPERATORS_AGGREGATOR_H_
#define DFDB_OPERATORS_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "operators/page_sink.h"
#include "ra/plan.h"
#include "storage/page.h"
#include "storage/tuple.h"

namespace dfdb {

/// \brief Accumulates grouped aggregates across pages, then emits one tuple
/// per group in group-key order (deterministic output).
class Aggregator {
 public:
  /// \p input_schema and \p output_schema must be the analyzer-resolved
  /// schemas of the aggregate node's child and of the node itself.
  static StatusOr<Aggregator> Create(const Schema& input_schema,
                                     const Schema& output_schema,
                                     const std::vector<std::string>& group_by,
                                     std::vector<AggregateSpec> specs);

  /// Folds every tuple of \p page into the running groups.
  Status Consume(const Page& page);

  /// Emits one encoded output tuple per group. After Finish() the
  /// aggregator is reset and reusable.
  Status Finish(PageSink* out);

  size_t num_groups() const { return groups_.size(); }

 private:
  /// Exact, order-independent sum of doubles: a two's-complement fixed-point
  /// integer whose unit is 2^-1074 (the smallest subnormal) and whose width
  /// covers every finite double plus 64 bits of carry headroom, so adding is
  /// exact and commutative. Read() rounds once, to nearest with ties to even.
  /// Non-finite inputs follow IEEE addition: any NaN, or +inf with -inf,
  /// reads NaN; otherwise an infinity reads as itself.
  class ExactSum {
   public:
    void Add(double d);
    double Read() const;

   private:
    static constexpr int kLimbs = 34;  // 2176 bits >= 2098 + 64 + sign.
    uint64_t limbs_[kLimbs] = {};      // Little-endian limbs.
    bool nan_ = false;
    bool pos_inf_ = false;
    bool neg_inf_ = false;
  };

  struct AggState {
    int64_t count = 0;
    /// SUM/AVG over DOUBLE only (null for every other aggregate): the sum
    /// must not depend on page arrival order, which differs between the
    /// engine's workers, the simulator's IPs, the reference executor and
    /// distributed fragments.
    std::unique_ptr<ExactSum> sum_double;
    int64_t sum_int = 0;
    std::optional<Value> min;
    std::optional<Value> max;
  };
  struct GroupState {
    std::vector<Value> group_values;
    std::vector<AggState> aggs;
  };

  /// SUM/AVG numerator: the exact double sum rounded once, or the integer
  /// sum for integer columns.
  static double SumAsDouble(const AggState& agg);

  Aggregator(Schema input_schema, Schema output_schema,
             std::vector<int> group_indices, std::vector<AggregateSpec> specs,
             std::vector<int> agg_indices)
      : input_schema_(std::move(input_schema)),
        output_schema_(std::move(output_schema)),
        group_indices_(std::move(group_indices)),
        specs_(std::move(specs)),
        agg_indices_(std::move(agg_indices)) {}

  Schema input_schema_;
  Schema output_schema_;
  std::vector<int> group_indices_;
  std::vector<AggregateSpec> specs_;
  /// Input column index per spec (-1 for COUNT).
  std::vector<int> agg_indices_;
  /// Keyed by the encoded group-column bytes for deterministic ordering.
  std::map<std::string, GroupState> groups_;
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_AGGREGATOR_H_
