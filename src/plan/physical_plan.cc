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
    case PhysicalOp::kHashGroup: return "HashGroup";
    case PhysicalOp::kSort: return "Sort";
    case PhysicalOp::kLimit: return "Limit";
    case PhysicalOp::kVolumePad: return "VolumePad";
    case PhysicalOp::kVisProject: return "VisProject";
    case PhysicalOp::kVisResult: return "VisResult";
  }
  return "?";
}

bool IsProjectionBoundary(PhysicalOp op) {
  return op == PhysicalOp::kProject || op == PhysicalOp::kBruteForceProject ||
         op == PhysicalOp::kVisProject || op == PhysicalOp::kVisResult;
}

namespace {

/// Appends `op` over `child` (-1: a leaf) and returns its index.
int AddNode(PhysicalPlan* plan, PhysicalOp op, int child) {
  PhysicalNode node;
  node.op = op;
  if (child >= 0) node.children.push_back(child);
  plan->nodes.push_back(std::move(node));
  return static_cast<int>(plan->nodes.size()) - 1;
}

/// Appends the relational tail of `query` over the projection `node`
/// and returns the tail's top.
int AddTail(const sql::BoundQuery& query, PhysicalPlan* plan, int node) {
  // The binder admits at most one of GROUP BY, whole-result aggregates and
  // DISTINCT, so one grouping node serves them all.
  if (query.grouped() || query.HasAggregates() || query.distinct) {
    node = AddNode(plan, PhysicalOp::kHashGroup, node);
  }
  if (!query.order_by.empty()) {
    // Sort -> Limit k fuses into a bounded top-K heap. The decision keys
    // on shape only (both clauses present); the node carries k.
    node = AddNode(plan, PhysicalOp::kSort, node);
    plan->nodes.back().limit = query.limit;
  } else if (query.limit.has_value()) {
    node = AddNode(plan, PhysicalOp::kLimit, node);
    plan->nodes.back().limit = query.limit;
  }
  return node;
}

}  // namespace

PhysicalPlan BuildPhysicalPlan(const sql::BoundQuery& query,
                               PlanChoice choice, bool pad_volume) {
  PhysicalPlan plan;
  plan.choice = std::move(choice);
  int node = AddNode(&plan, PhysicalOp::kVisSelect, -1);
  bool any_bloom = false, any_post_select = false;
  for (const auto& [t, strategy] : plan.choice.vis) {
    (void)t;
    any_bloom |= strategy == VisStrategy::kPostFilter ||
                 strategy == VisStrategy::kCrossPostFilter;
    any_post_select |= strategy == VisStrategy::kPostSelect ||
                       strategy == VisStrategy::kCrossPostSelect;
  }
  if (any_bloom) node = AddNode(&plan, PhysicalOp::kBloomBuild, node);
  node = AddNode(&plan, PhysicalOp::kMerge, node);
  node = AddNode(&plan, PhysicalOp::kSJoin, node);
  if (any_post_select) node = AddNode(&plan, PhysicalOp::kPostSelect, node);
  node = AddNode(&plan,
                 plan.choice.project == ProjectAlgo::kBruteForce
                     ? PhysicalOp::kBruteForceProject
                     : PhysicalOp::kProject,
                 node);
  node = AddTail(query, &plan, node);
  // The volume defense pads *observed* volume, so it must sit above every
  // row-count-changing operator — including LIMIT.
  if (pad_volume) node = AddNode(&plan, PhysicalOp::kVolumePad, node);
  plan.root = node;
  return plan;
}

PhysicalPlan BuildVisibleOnlyPlan(const sql::BoundQuery& query) {
  PhysicalPlan plan;
  int node = AddTail(query, &plan,
                     AddNode(&plan, PhysicalOp::kVisProject, -1));
  for (PhysicalNode& n : plan.nodes) n.on_untrusted = true;
  plan.root = AddNode(&plan, PhysicalOp::kVisResult, node);
  return plan;
}

bool PhysicalPlan::result_keyed_by_id() const {
  for (const PhysicalNode& node : nodes) {
    if (node.op != PhysicalOp::kVisProject &&
        node.op != PhysicalOp::kLimit && node.op != PhysicalOp::kVisResult) {
      return false;
    }
  }
  return true;
}

std::string PhysicalPlan::ToString(const catalog::Schema& schema) const {
  std::ostringstream out;
  // Recursive indent-render from the root down.
  std::function<void(int, int)> render = [&](int idx, int depth) {
    const PhysicalNode& node = nodes[idx];
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << "-> "
        << PhysicalOpName(node.op);
    if (node.op == PhysicalOp::kLimit) out << " " << *node.limit;
    if (node.op == PhysicalOp::kSort && node.limit.has_value()) {
      out << " top " << *node.limit;
    }
    if (node.op == PhysicalOp::kVisSelect) {
      for (const auto& [t, strategy] : choice.vis) {
        out << " " << schema.table(t).name << ":"
            << VisStrategyName(strategy);
      }
    }
    // A visible-only plan has no projection algorithm to show.
    if (IsProjectionBoundary(node.op) && !visible_only()) {
      out << " (" << ProjectAlgoName(choice.project) << ")";
    }
    if (node.on_untrusted) out << " [Untrusted]";
    out << "\n";
    for (int c : node.children) render(c, depth + 1);
  };
  if (root >= 0) render(root, 0);
  return out.str();
}

}  // namespace ghostdb::plan
