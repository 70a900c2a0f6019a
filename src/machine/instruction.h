/// \file instruction.h
/// \brief Compilation of query trees into machine instructions.
///
/// In the Section 4 machine, scans are not separate instructions: "If the
/// instruction's operand(s) are source relations in the database, then the
/// instruction is ready to be executed. In this case the MC will also send
/// to the IC a page table describing each operand." Each non-scan plan node
/// therefore becomes one MachineInstruction whose operands are either base
/// relations (page tables) or the outputs of other instructions.

#ifndef DFDB_MACHINE_INSTRUCTION_H_
#define DFDB_MACHINE_INSTRUCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/statusor.h"
#include "ra/analyzer.h"
#include "ra/physical_plan.h"
#include "ra/plan.h"

namespace dfdb {

/// \brief One operand of a machine instruction.
struct MachineOperand {
  bool is_base = false;
  /// Base relation name (is_base).
  std::string base_relation;
  /// Producing instruction index in the program (!is_base).
  int producer = -1;
  /// Operand tuple schema.
  Schema schema;
  /// Base operands: the plan scan staged (its access-path mark prunes the
  /// pages). A kDelete's target operand points at the delete node itself,
  /// which is never marked. Points into the program's plan clones.
  const PlanNode* scan = nullptr;
  /// Pipeline fusion: the program of a restrict folded into this operand.
  /// The IC applies it while compacting staged pages into machine units, so
  /// the restrict never occupies an IP and its result pages never ride the
  /// ring. Null = unfiltered operand.
  const CompiledPredicate* filter = nullptr;
  /// Near-data pushdown: the program run at the disk-cache port during
  /// staging, so only surviving tuples cross into IC memory. Null = raw
  /// staging.
  const CompiledPredicate* pushdown = nullptr;
};

/// \brief One relational-algebra instruction as the machine executes it.
struct MachineInstruction {
  int id = -1;
  uint64_t query_id = 0;
  /// Position of the query in the submitted batch.
  size_t query_index = 0;
  PlanOp op = PlanOp::kRestrict;
  /// The resolved plan node (predicates, columns, schemas). Owned by the
  /// program's plan clones.
  const PlanNode* node = nullptr;
  /// Compiled predicate (kRestrict / kDelete) or join program (kJoin) from
  /// the query's PhysicalPlan; null = interpret the node's Expr tree.
  const CompiledPredicate* pred = nullptr;
  const CompiledJoinPredicate* join = nullptr;
  /// kProject: input column per output column, from the PhysicalPlan.
  const std::vector<int>* project = nullptr;
  std::vector<MachineOperand> operands;
  /// Consuming instruction (-1 = results go to the host via the MC).
  int consumer = -1;
  /// Operand slot at the consumer.
  int consumer_slot = 0;
  Schema output_schema;
  /// Stateful operators (dedup project, aggregate, difference, set union)
  /// run as barriers on a single IP regardless of granularity — the paper
  /// explicitly leaves parallel project/duplicate elimination as future
  /// work (Section 5.0).
  bool barrier = false;
};

/// \brief A compiled batch of queries.
struct MachineProgram {
  std::vector<std::unique_ptr<PlanNode>> plans;  ///< Resolved clones (owned).
  std::vector<QueryAnalysis> analyses;           ///< Per query.
  /// Per query: the compiled programs the instructions point into.
  std::vector<PhysicalPlan> physical;
  std::vector<MachineInstruction> instructions;
  /// Root instruction id per query (results to host).
  std::vector<int> roots;
  /// Edge decisions taken at compile time (fused_edges,
  /// materialized_edges, runtime_fallbacks).
  PipelineCounters pipeline;
};

/// \brief Compiles \p queries (cloned and resolved against \p catalog).
///
/// A bare-scan query is wrapped in an always-true restrict so that it is an
/// instruction. Queries are numbered by position.
///
/// A marked edge (PlanNode::pipeline_fused) from a kRestrict producer over a
/// base relation whose predicate compiled is folded into the consumer's
/// operand (MachineOperand::filter); any other marked edge materializes and
/// counts a runtime fallback.
StatusOr<MachineProgram> CompileProgram(
    const Catalog& catalog, const std::vector<const PlanNode*>& queries);

}  // namespace dfdb

#endif  // DFDB_MACHINE_INSTRUCTION_H_
