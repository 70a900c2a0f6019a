#include "ra/physical_plan.h"

#include <string>

#include "common/logging.h"

namespace dfdb {

void RegisterPipelineMetrics(const PipelineCounters& counters,
                             const char* prefix,
                             obs::MetricsRegistry* registry) {
  const std::string p(prefix);
  registry->Set(p + "fused_edges", counters.fused_edges);
  registry->Set(p + "materialized_edges", counters.materialized_edges);
  registry->Set(p + "pages_elided", counters.pages_elided);
  registry->Set(p + "fused_pages", counters.fused_pages);
  registry->Set(p + "runtime_fallbacks", counters.runtime_fallbacks);
}

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

}  // namespace dfdb
