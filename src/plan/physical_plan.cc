#include "plan/physical_plan.h"

#include <functional>
#include <sstream>

namespace ghostdb::plan {

std::string_view PhysicalOpName(PhysicalOp op) {
  switch (op) {
    case PhysicalOp::kVisSelect: return "VisSelect";
    case PhysicalOp::kBloomBuild: return "BloomBuild";
    case PhysicalOp::kMerge: return "Merge";
    case PhysicalOp::kSJoin: return "SJoin";
    case PhysicalOp::kPostSelect: return "PostSelect";
    case PhysicalOp::kProject: return "Project";
    case PhysicalOp::kBruteForceProject: return "BruteForceProject";
    case PhysicalOp::kAggregate: return "Aggregate";
    case PhysicalOp::kGroupAggregate: return "GroupAggregate";
    case PhysicalOp::kDistinct: return "Distinct";
    case PhysicalOp::kSort: return "Sort";
    case PhysicalOp::kLimit: return "Limit";
    case PhysicalOp::kTopKSort: return "TopKSort";
    case PhysicalOp::kVolumePad: return "VolumePad";
  }
  return "?";
}

PhysicalPlan BuildPhysicalPlan(const sql::BoundQuery& query,
                               PlanChoice choice, bool pad_volume) {
  PhysicalPlan plan;
  plan.choice = std::move(choice);
  auto add = [&](PhysicalOp op, int child) {
    PhysicalNode node;
    node.op = op;
    if (child >= 0) node.children.push_back(child);
    plan.nodes.push_back(std::move(node));
    return static_cast<int>(plan.nodes.size()) - 1;
  };

  int node = add(PhysicalOp::kVisSelect, -1);
  bool any_bloom = false, any_post_select = false;
  for (const auto& [t, strategy] : plan.choice.vis) {
    (void)t;
    any_bloom |= strategy == VisStrategy::kPostFilter ||
                 strategy == VisStrategy::kCrossPostFilter;
    any_post_select |= strategy == VisStrategy::kPostSelect ||
                       strategy == VisStrategy::kCrossPostSelect;
  }
  if (any_bloom) node = add(PhysicalOp::kBloomBuild, node);
  node = add(PhysicalOp::kMerge, node);
  node = add(PhysicalOp::kSJoin, node);
  if (any_post_select) node = add(PhysicalOp::kPostSelect, node);
  node = add(plan.choice.project == ProjectAlgo::kBruteForce
                 ? PhysicalOp::kBruteForceProject
                 : PhysicalOp::kProject,
             node);
  // GROUP BY subsumes the whole-result Aggregate; which one runs is shape
  // information (the clause is part of the cached query shape), like
  // kTopKSort below.
  if (query.grouped()) {
    node = add(PhysicalOp::kGroupAggregate, node);
  } else if (query.HasAggregates()) {
    node = add(PhysicalOp::kAggregate, node);
  }
  if (query.distinct) node = add(PhysicalOp::kDistinct, node);
  if (!query.order_by.empty() && query.limit.has_value()) {
    // Sort -> Limit k fuses into a bounded top-K heap. The decision keys
    // on shape only (both clauses present), so fused plans cache like any
    // other; k is re-bound from the live query at build time.
    node = add(PhysicalOp::kTopKSort, node);
    plan.nodes.back().limit = *query.limit;
  } else {
    if (!query.order_by.empty()) node = add(PhysicalOp::kSort, node);
    if (query.limit.has_value()) {
      node = add(PhysicalOp::kLimit, node);
      plan.nodes.back().limit = *query.limit;
    }
  }
  // The volume defense pads *observed* volume, so it must sit above every
  // row-count-changing operator — including LIMIT.
  if (pad_volume) node = add(PhysicalOp::kVolumePad, node);
  plan.root = node;
  return plan;
}

std::string PhysicalPlan::ToString(const catalog::Schema& schema) const {
  std::ostringstream out;
  // Recursive indent-render from the root down.
  std::function<void(int, int)> render = [&](int idx, int depth) {
    const PhysicalNode& node = nodes[idx];
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << "-> "
        << PhysicalOpName(node.op);
    if (node.op == PhysicalOp::kLimit) out << " " << node.limit;
    if (node.op == PhysicalOp::kTopKSort) {
      out << " " << node.limit << " (fused Sort+Limit)";
    }
    if (node.op == PhysicalOp::kVisSelect) {
      for (const auto& [t, strategy] : choice.vis) {
        out << " " << schema.table(t).name << ":"
            << VisStrategyName(strategy);
      }
    }
    if (node.op == PhysicalOp::kProject ||
        node.op == PhysicalOp::kBruteForceProject) {
      out << " (" << ProjectAlgoName(choice.project) << ")";
    }
    out << "\n";
    for (int c : node.children) render(c, depth + 1);
  };
  if (root >= 0) render(root, 0);
  return out.str();
}

}  // namespace ghostdb::plan
