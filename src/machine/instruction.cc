#include "machine/instruction.h"

#include "common/macros.h"

namespace dfdb {

namespace {

bool IsBarrierOp(const PlanNode& n) {
  switch (n.op) {
    case PlanOp::kAggregate:
    case PlanOp::kDifference:
      return true;
    case PlanOp::kProject:
      return n.dedup;
    case PlanOp::kUnion:
      return !n.bag_semantics;
    default:
      return false;
  }
}

/// Compiles the subtree rooted at \p n; returns the producing instruction
/// id. \p n must not be a scan.
int CompileNode(const PlanNode* n, uint64_t query_id, size_t query_index,
                const PhysicalPlan& physical, MachineProgram* prog) {
  MachineInstruction instr;
  instr.query_id = query_id;
  instr.query_index = query_index;
  instr.op = n->op;
  instr.node = n;
  instr.pred = physical.predicate(*n);
  instr.join = physical.join(*n);
  if (n->op == PlanOp::kProject) instr.project = &physical.project_indices(*n);
  instr.output_schema = n->output_schema;
  instr.barrier = IsBarrierOp(*n);
  for (int i = 0; i < n->num_children(); ++i) {
    const PlanNode& child = n->child(i);
    MachineOperand operand;
    operand.schema = child.output_schema;
    if (child.op == PlanOp::kScan) {
      operand.is_base = true;
      operand.base_relation = child.relation;
      operand.scan = &child;
      operand.pushdown = physical.pushdown(child);
    } else {
      // A marked edge from a compiled restrict directly over a base
      // relation folds: the IC filters during staging compaction and the
      // restrict needs no instruction at all.
      if (child.pipeline_fused && child.op == PlanOp::kRestrict &&
          child.child(0).op == PlanOp::kScan &&
          physical.predicate(child) != nullptr) {
        const PlanNode& scan = child.child(0);
        operand.is_base = true;
        operand.base_relation = scan.relation;
        operand.scan = &scan;
        operand.filter = physical.predicate(child);
        operand.pushdown = physical.pushdown(scan);
        prog->pipeline.fused_edges++;
        instr.operands.push_back(std::move(operand));
        continue;
      }
      if (child.pipeline_fused) prog->pipeline.runtime_fallbacks++;
      prog->pipeline.materialized_edges++;
      operand.producer =
          CompileNode(&child, query_id, query_index, physical, prog);
      prog->instructions[static_cast<size_t>(operand.producer)].consumer_slot =
          i;
    }
    instr.operands.push_back(std::move(operand));
  }
  // kDelete has no children but reads its target relation as an operand.
  if (n->op == PlanOp::kDelete) {
    MachineOperand operand;
    operand.is_base = true;
    operand.base_relation = n->relation;
    operand.scan = n;
    operand.schema = n->output_schema;
    instr.operands.push_back(std::move(operand));
  }
  instr.id = static_cast<int>(prog->instructions.size());
  prog->instructions.push_back(std::move(instr));
  const int id = prog->instructions.back().id;
  // Children compiled above recorded their slots; now set their consumer.
  for (int i = 0; i < n->num_children(); ++i) {
    const MachineOperand& operand =
        prog->instructions[static_cast<size_t>(id)].operands[static_cast<size_t>(
            i)];
    if (!operand.is_base) {
      prog->instructions[static_cast<size_t>(operand.producer)].consumer = id;
    }
  }
  return id;
}

}  // namespace

StatusOr<MachineProgram> CompileProgram(
    const Catalog& catalog, const std::vector<const PlanNode*>& queries) {
  MachineProgram prog;
  Analyzer analyzer(&catalog);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (queries[qi] == nullptr) {
      return Status::InvalidArgument("null query plan");
    }
    std::unique_ptr<PlanNode> plan = queries[qi]->Clone();
    // Bare scans become an always-true restrict so every query has at least
    // one instruction.
    if (plan->op == PlanOp::kScan) {
      plan = MakeRestrict(std::move(plan), Eq(Lit(1), Lit(1)));
    }
    DFDB_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          analyzer.Resolve(plan.get()));
    prog.analyses.push_back(std::move(analysis));
    prog.physical.emplace_back(*plan);
    const uint64_t query_id = static_cast<uint64_t>(qi) + 1;
    const int root =
        CompileNode(plan.get(), query_id, qi, prog.physical.back(), &prog);
    prog.roots.push_back(root);
    prog.plans.push_back(std::move(plan));
  }
  return prog;
}

}  // namespace dfdb
