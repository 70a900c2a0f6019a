/// \file physical_plan.h
/// \brief The per-query lowering both backends consume.
///
/// The optimizer leaves its physical decisions as marks on the resolved
/// tree (PlanNode::pipeline_fused, access_path, pushdown). Everything the
/// backends derive from those marks that does not depend on the execution
/// model lives here, built once per query: the compiled predicate of every
/// restrict, delete and join, the pushdown program of every marked scan,
/// the input-column indices of every projection, and the count of
/// predicates that refused compilation. The threads engine and the ring
/// simulator then only decide *how* to run the programs, never *which*
/// programs to run.

#ifndef DFDB_RA_PHYSICAL_PLAN_H_
#define DFDB_RA_PHYSICAL_PLAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/counter_family.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"

namespace dfdb {

/// \brief Pipeline-fusion outcomes (engine.pipeline.* / machine.pipeline.*).
/// The engine's per-query counters embed the atomic PipelineStats.
#define DFDB_PIPELINE_COUNTERS(X)                                          \
  /* Edges run fused (engine: streamed or collapsed; machine: folded */    \
  /* into a consumer operand). */                                          \
  X(fused_edges, "fused_edges")                                            \
  X(materialized_edges, "materialized_edges")                              \
  /* Intermediate pages (engine) or operand units (machine) the fused */   \
  /* edges never built, shipped or repacked. */                            \
  X(pages_elided, "pages_elided")                                          \
  /* Input pages run through a fused program. */                           \
  X(fused_pages, "fused_pages")                                            \
  /* Edges the plan marked fused that the backend had to materialize. */   \
  X(runtime_fallbacks, "runtime_fallbacks")
DFDB_COUNTERS(PipelineCounters, DFDB_PIPELINE_COUNTERS);
DFDB_ATOMIC_COUNTERS(PipelineStats, PipelineCounters, DFDB_PIPELINE_COUNTERS);

/// \brief Compiled programs of one resolved query, keyed by PlanNode::id.
class PhysicalPlan {
 public:
  /// Compiles every predicate of \p root's resolved tree once. A refusal
  /// (division, CHAR/numeric mixing, ...) is not an error: the node then
  /// has no program and interprets its Expr tree per tuple, preserving
  /// exact runtime-error semantics.
  explicit PhysicalPlan(const PlanNode& root);
  PhysicalPlan() = default;
  // Move-only: backends hold pointers to the programs, which moves keep
  // in place.
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;
  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;

  /// kRestrict / kDelete: the predicate program; null when compilation
  /// was refused or the node has no predicate.
  const CompiledPredicate* predicate(const PlanNode& n) const;
  /// kJoin: the join program; null when compilation was refused.
  const CompiledJoinPredicate* join(const PlanNode& n) const;
  /// kScan marked PlanNode::pushdown: the consuming restrict's program,
  /// run inside the storage hierarchy so only survivors leave it (the
  /// restrict's input schema is the scan's, so the program is shared).
  /// Null = raw path.
  const CompiledPredicate* pushdown(const PlanNode& scan) const;
  /// kProject: the input-column index of every output column, resolved
  /// once here (the analyzer already proved every column exists).
  const std::vector<int>& project_indices(const PlanNode& project) const;

  /// Restrict, delete and join predicates that refused compilation
  /// (the kernel.compile_fallbacks counter).
  uint64_t compile_fallbacks() const { return compile_fallbacks_; }
  /// Marked scans left on the raw path: the consumer is not a restrict or
  /// its predicate refused compilation (the pushdown.fallbacks counter).
  uint64_t pushdown_fallbacks() const { return pushdown_fallbacks_; }

 private:
  struct Node {
    std::optional<CompiledPredicate> pred;
    std::optional<CompiledJoinPredicate> join;
    int pushdown_from = -1;  ///< kScan: id of the restrict whose program runs.
    std::vector<int> project;  ///< kProject: input column per output column.
  };

  void Lower(const PlanNode& n, const PlanNode* parent);
  const Node* At(const PlanNode& n) const;

  std::vector<Node> nodes_;
  uint64_t compile_fallbacks_ = 0;
  uint64_t pushdown_fallbacks_ = 0;
};

}  // namespace dfdb

#endif  // DFDB_RA_PHYSICAL_PLAN_H_
