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
// Aggregate, GroupAggregate and Distinct all run as exec::HashGroupOp;
// Sort and TopKSort (Sort -> Limit k, always fused) as exec::SortOp. The
// kinds stay distinct for EXPLAIN.
//
// Nodes are stored flat (children by index) so plans are cheap to copy and
// cache: the plan cache in core::GhostDB keys them by query shape.
// Everything in a PhysicalPlan derives from the query text and Visible
// statistics only — never from Hidden data — so a cached or explained plan
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
};

std::string_view PhysicalOpName(PhysicalOp op);

/// One node of the flat operator tree.
struct PhysicalNode {
  PhysicalOp op;
  std::vector<int> children;  ///< indices into PhysicalPlan::nodes
  uint64_t limit = 0;         ///< kLimit / kTopKSort: row cap
};

/// \brief A fully lowered plan: strategy decisions plus the operator tree.
struct PhysicalPlan {
  PlanChoice choice;
  std::vector<PhysicalNode> nodes;
  int root = -1;
  /// Rows per ColumnBatch through the value-space operators, sized by the
  /// planner from the output row width (exec::SizeBatchRows). Derived from
  /// schema widths and the visible query shape only, so caching it is as
  /// safe as caching the tree.
  uint32_t batch_rows = 0;
  /// The projection-output column layout the sizing was computed from,
  /// kept so cached executions don't rebuild it per statement.
  exec::BatchLayout value_layout;

  /// Indented tree rendering (EXPLAIN).
  std::string ToString(const catalog::Schema& schema) const;
};

/// Lowers `choice` into the operator tree for `query`. Pure function of the
/// bound query's visible shape and the choice. A Sort -> Limit k tail is
/// always one fused TopKSort node — O(k) secure memory instead of a full
/// materialized sort when k fits the budget. The fusion keys on the
/// *presence* of ORDER BY and LIMIT (shape information); k itself stays a
/// literal the executor re-binds.
///
/// With `pad_volume` (ExecConfig::volume_padding != kOff) a VolumePad node
/// caps the tree: config is visible information, so padded plans cache
/// like any other. Called only through Planner::LowerPlan, which derives
/// the flag from the one ExecConfig every plan is lowered under.
PhysicalPlan BuildPhysicalPlan(const sql::BoundQuery& query,
                               PlanChoice choice, bool pad_volume);

}  // namespace ghostdb::plan
