// The physical operator tree the planner hands to the execution engine.
//
// A PhysicalPlan lowers a decided PlanChoice (per-table Visible strategies +
// projection algorithm) into an explicit pipeline of physical operators:
//
//   VisSelect -> BloomBuild -> Merge -> SJoin [-> PostSelect]
//     -> Project | BruteForceProject
//     [-> Aggregate | GroupAggregate | Distinct]
//     [-> TopKSort | [-> Sort] [-> Limit]] [-> VolumePad]
//
// A visible-only statement (sql::BoundQuery::TouchesHidden is false) is
// lowered instead to
//
//   VisProject -> [the same tail, without VolumePad] -> VisResult
//
// where everything below VisResult runs on Untrusted: the PC projects its
// visible rows and runs the tail operators over them, and the key's one
// operator receives the final rows as a `vis-result:<T>` message.
//
// Aggregate, GroupAggregate and Distinct all run as exec::HashGroupOp;
// Sort and TopKSort (Sort -> Limit k, always fused) as exec::SortOp. The
// kinds stay distinct for EXPLAIN.
//
// Nodes are stored flat (children by index) so plans are cheap to build and
// copy. Everything in a PhysicalPlan derives from the query text and
// Visible statistics only — never from Hidden data — so an explained plan
// is safe to show Untrusted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "exec/column_batch.h"
#include "plan/strategy.h"
#include "sql/binder.h"

namespace ghostdb::plan {

/// Physical operator kinds (the grouping and sort kinds share one
/// exec-layer Operator class each).
enum class PhysicalOp : uint8_t {
  kVisSelect,          ///< serve Vis ids, apply per-table strategy prep
  kBloomBuild,         ///< BuildBF for (Cross)Post-Filter tables
  kMerge,              ///< anchor-level intersection of unions
  kSJoin,              ///< semi-join against the anchor SKT (ProbeBF fused)
  kPostSelect,         ///< exact Post-Select passes over F'
  kProject,            ///< section 4 Project (BF-filtered MJoin)
  kBruteForceProject,  ///< Figs 12-13 baseline
  kAggregate,          ///< fold rows into aggregate values
  kGroupAggregate,     ///< GROUP BY: per-group aggregate folding
  kDistinct,           ///< drop duplicate rows (first occurrence wins)
  kSort,               ///< ORDER BY over select-list columns
  kLimit,              ///< truncate the stream after N rows
  kTopKSort,           ///< fused Sort -> Limit k: bounded k-row heap
  /// Volume defense root: forwards the stream, then emits dummy rows until
  /// the observed volume hits the padding mode's target (quantized or
  /// visible-worst-case). Dummies are stripped at the QueryResult boundary.
  kVolumePad,
  /// Visible-only plans, on Untrusted: the anchor's rows passing its
  /// visible predicates, one column per SELECT item, ascending anchor id.
  kVisProject,
  /// Visible-only plans, on the key: receives the final rows the PC
  /// computed below it as one `vis-result:<T>` message.
  kVisResult,
};

std::string_view PhysicalOpName(PhysicalOp op);

/// One node of the flat operator tree.
struct PhysicalNode {
  PhysicalOp op;
  std::vector<int> children;  ///< indices into PhysicalPlan::nodes
  uint64_t limit = 0;         ///< kLimit / kTopKSort: row cap
  /// Runs on Untrusted (the nodes below a kVisResult), not on the key.
  bool on_untrusted = false;
};

/// \brief A fully lowered plan: strategy decisions plus the operator tree.
struct PhysicalPlan {
  PlanChoice choice;
  std::vector<PhysicalNode> nodes;
  int root = -1;
  /// Rows per ColumnBatch through the value-space operators, sized by the
  /// planner from the output row width (exec::SizeBatchRows). Derived from
  /// schema widths and the visible query shape only.
  uint32_t batch_rows = 0;
  /// The projection-output column layout the sizing was computed from,
  /// kept so the executor doesn't rebuild it.
  exec::BatchLayout value_layout;

  /// Indented tree rendering (EXPLAIN); Untrusted's nodes are marked.
  std::string ToString(const catalog::Schema& schema) const;

  /// True for a visible-only plan (its root is kVisResult).
  bool visible_only() const {
    return root >= 0 && nodes[root].op == PhysicalOp::kVisResult;
  }
  /// Visible-only plans: true when the final rows are keyed by their anchor
  /// id — the tail is at most a LIMIT, so they are a prefix of the
  /// projection rows — and false when they are keyed by position 0..n-1.
  bool result_keyed_by_id() const;
};

/// Lowers `choice` into the operator tree for `query`. Pure function of the
/// bound (visible) query and the choice. A Sort -> Limit k tail is always
/// one fused TopKSort node — O(k) secure memory instead of a full
/// materialized sort when k fits the budget. The fusion keys on the
/// *presence* of ORDER BY and LIMIT; the node carries k.
///
/// With `pad_volume` (ExecConfig::volume_padding != kOff) a VolumePad node
/// caps the tree: config is visible information, like the query. Called
/// only through Planner::LowerPlan, which derives the flag from the one
/// ExecConfig every plan is lowered under.
PhysicalPlan BuildPhysicalPlan(const sql::BoundQuery& query,
                               PlanChoice choice, bool pad_volume);

/// Lowers a visible-only `query` (sql::BoundQuery::TouchesHidden false):
/// VisProject and the relational tail on Untrusted under one key-side
/// VisResult. No VolumePad: the statement's volume is visible-derived, so
/// padding it would hide nothing. Called only through Planner::LowerPlan.
PhysicalPlan BuildVisibleOnlyPlan(const sql::BoundQuery& query);

}  // namespace ghostdb::plan
