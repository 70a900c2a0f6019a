#include "ra/physical_plan.h"

#include <string>

#include "common/logging.h"

namespace dfdb {

PhysicalPlan::PhysicalPlan(const PlanNode& root) { Lower(root, nullptr); }

void PhysicalPlan::Lower(const PlanNode& n, const PlanNode* parent) {
  DFDB_CHECK(n.resolved && n.id >= 0) << "lowering needs a resolved plan";
  if (nodes_.size() <= static_cast<size_t>(n.id)) {
    nodes_.resize(static_cast<size_t>(n.id) + 1);
  }
  Node& node = nodes_[static_cast<size_t>(n.id)];
  if (n.predicate != nullptr &&
      (n.op == PlanOp::kRestrict || n.op == PlanOp::kDelete)) {
    const Schema& in =
        n.num_children() > 0 ? n.child(0).output_schema : n.output_schema;
    auto compiled = CompiledPredicate::Compile(*n.predicate, in);
    if (compiled.ok()) {
      node.pred.emplace(*std::move(compiled));
    } else {
      ++compile_fallbacks_;
    }
  } else if (n.predicate != nullptr && n.op == PlanOp::kJoin) {
    auto compiled = CompiledJoinPredicate::Compile(
        *n.predicate, n.child(0).output_schema, n.child(1).output_schema);
    if (compiled.ok()) {
      node.join.emplace(*std::move(compiled));
    } else {
      ++compile_fallbacks_;
    }
  } else if (n.op == PlanOp::kProject) {
    const Schema& in = n.child(0).output_schema;
    for (const std::string& name : n.columns) {
      auto idx = in.ColumnIndex(name);
      DFDB_CHECK(idx.ok()) << "resolved project lost column " << name;
      node.project.push_back(*idx);
    }
  } else if (n.op == PlanOp::kScan && n.pushdown) {
    // The parent was lowered first (pre-order), so its program exists.
    if (parent != nullptr && parent->op == PlanOp::kRestrict &&
        predicate(*parent) != nullptr) {
      node.pushdown_from = parent->id;
    } else {
      ++pushdown_fallbacks_;
    }
  }
  for (int i = 0; i < n.num_children(); ++i) Lower(n.child(i), &n);
}

const PhysicalPlan::Node* PhysicalPlan::At(const PlanNode& n) const {
  return n.id >= 0 && static_cast<size_t>(n.id) < nodes_.size()
             ? &nodes_[static_cast<size_t>(n.id)]
             : nullptr;
}

const CompiledPredicate* PhysicalPlan::predicate(const PlanNode& n) const {
  const Node* node = At(n);
  return node != nullptr && node->pred.has_value() ? &*node->pred : nullptr;
}

const CompiledJoinPredicate* PhysicalPlan::join(const PlanNode& n) const {
  const Node* node = At(n);
  return node != nullptr && node->join.has_value() ? &*node->join : nullptr;
}

const CompiledPredicate* PhysicalPlan::pushdown(const PlanNode& scan) const {
  const Node* node = At(scan);
  if (node == nullptr || node->pushdown_from < 0) return nullptr;
  const Node& from = nodes_[static_cast<size_t>(node->pushdown_from)];
  return from.pred.has_value() ? &*from.pred : nullptr;
}

const std::vector<int>& PhysicalPlan::project_indices(
    const PlanNode& project) const {
  const Node* node = At(project);
  DFDB_CHECK(node != nullptr && project.op == PlanOp::kProject)
      << "project_indices of a node outside the lowered plan";
  return node->project;
}

}  // namespace dfdb
