// Strategy selection by the paper's observed decision rules (section 6.4):
// prefer Cross variants whenever applicable; Pre-filtering when the Vis ids
// left to climb are few (a selective Visible selection, a small crossed
// fraction sV x sH, or the anchor's own ids), Post-filtering otherwise,
// degrading to NoFilter when the Bloom filter cannot be made effective
// (Fig 10). The cost-based optimizer the paper leaves as future work is not
// implemented.
#pragma once

#include <map>
#include <string>

#include "catalog/schema.h"
#include "core/secure_store.h"
#include "exec/executor.h"
#include "plan/physical_plan.h"
#include "plan/strategy.h"
#include "sql/binder.h"

namespace ghostdb::plan {

struct PlannerConfig {
  /// Devices in the fleet (GhostDBConfig::shard_count; core::GhostDB::Build
  /// constructs the planner with it). > 1 makes root-anchored statements
  /// fan out (Planner::FansOut).
  uint32_t shard_count = 1;
};

/// \brief Chooses Visible-selection strategies and the projection
/// algorithm for a bound query.
class Planner {
 public:
  Planner(const catalog::Schema* schema, const core::SecureStore* store,
          PlannerConfig config)
      : schema_(schema), store_(store), config_(config) {}

  /// The one decision rule next to the paper's: a visible-only statement
  /// (sql::BoundQuery::TouchesHidden false) is answered by Untrusted, which
  /// runs the whole statement and ships only its final rows. A pure
  /// function of the visible query shape.
  bool VisibleOnly(const sql::BoundQuery& query) const {
    return !query.TouchesHidden(*schema_);
  }

  /// Chooses strategies and lowers them into the physical operator tree —
  /// the unit the execution engine runs, built afresh per statement. A
  /// visible-only statement needs no strategy (and no `vis_counts`).
  PhysicalPlan PlanQuery(
      const sql::BoundQuery& query,
      const std::map<catalog::TableId, uint64_t>& vis_counts,
      const exec::ExecConfig& exec_config) const;

  /// Lowers a decided `choice` (the planner's own, or one a caller pins)
  /// into the executable plan: the operator tree with top-K fusion and
  /// volume padding as `exec_config` sets them, and the batch layout and
  /// size. Every plan the engine runs comes
  /// from here, so a pinned plan is padded exactly like a planned one, and
  /// a visible-only statement gets the visible-only plan whatever is
  /// pinned (BuildVisibleOnlyPlan).
  PhysicalPlan LowerPlan(const sql::BoundQuery& query, PlanChoice choice,
                         const exec::ExecConfig& exec_config) const;

  /// True when `query` scatter-gathers across the fleet: the subtree at or
  /// below the plan's fan-out boundary runs once per shard and the tail
  /// runs on the coordinator over the combined streams. Only statements
  /// anchored at the partitioned (root) table fan out — every other anchor
  /// reads fully replicated tables, so shard 0 alone holds the answer. A
  /// pure function of the visible query shape and the fleet size.
  bool FansOut(const sql::BoundQuery& query) const;

  /// Estimated combined selectivity of the hidden predicates on tables in
  /// `subtree_root`'s subtree (1.0 when none).
  double HiddenSubtreeSelectivity(const sql::BoundQuery& query,
                                  catalog::TableId subtree_root) const;

  /// Human-readable plan description (EXPLAIN).
  std::string Explain(const sql::BoundQuery& query, const PlanChoice& plan,
                      const std::map<catalog::TableId, uint64_t>& vis_counts)
      const;

  /// EXPLAIN for a lowered plan: strategy summary plus the operator
  /// pipeline.
  std::string Explain(const sql::BoundQuery& query, const PhysicalPlan& plan,
                      const std::map<catalog::TableId, uint64_t>& vis_counts)
      const;

 private:
  /// The strategy rule, per table with visible predicates (thresholds in
  /// planner.cc). `vis_counts`: per such table, the Vis result count
  /// (supplied by Untrusted; visible information).
  PlanChoice Choose(const sql::BoundQuery& query,
                    const std::map<catalog::TableId, uint64_t>& vis_counts,
                    const exec::ExecConfig& exec_config) const;

  const catalog::Schema* schema_;
  const core::SecureStore* store_;
  PlannerConfig config_;
};

}  // namespace ghostdb::plan
