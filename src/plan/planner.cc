#include "plan/planner.h"

#include <sstream>

#include "exec/bloom.h"

namespace ghostdb::plan {

using catalog::TableId;

namespace {

/// The Pre/Post rule (`Planner::Choose`) reads only fractions: a table's
/// visible selectivity sV (its vis-count over its row count) and sH, the
/// estimated selectivity of the hidden predicates in its subtree. The
/// measured crossovers on Query Q (bench/strategy_gap, scales 0.02-0.1):
///
/// Without Cross, Post-Filter beats Pre-Filter above sV ~ 0.1 (Fig 10).
constexpr double kPreFilterThreshold = 0.1;
/// With Cross, Cross-Pre-Filter stays ahead of Cross-Post-Filter up to
/// sV ~ 0.25 at every sH (Fig 9, sH 0.1, scale 0.05: Cross-Pre over
/// Cross-Post is 0.78 at sV 0.1, 0.97 at 0.2, 1.00 at 0.25, 1.06 at 0.5).
constexpr double kCrossPreFilterThreshold = 0.25;
/// ... and not at all while the crossed fraction sV x sH (the Vis ids left
/// to climb after the intersection) stays at or below this: at sV 0.5
/// Cross-Pre wins up to sH 0.02 and loses from sH 0.05.
constexpr double kCrossedPreFilterFraction = 0.02;

}  // namespace

double Planner::HiddenSubtreeSelectivity(const sql::BoundQuery& query,
                                         TableId subtree_root) const {
  double sel = 1.0;
  for (const auto& p : query.predicates) {
    if (!p.hidden || p.on_id) continue;
    if (!schema_->IsAncestorOrSelf(p.table, subtree_root)) continue;
    const auto& stats = store_->tables[p.table].hidden_stats;
    auto it = stats.find(p.column);
    if (it == stats.end()) {
      sel *= 0.1;  // no statistics: assume a selective predicate
    } else {
      sel *= it->second.EstimateSelectivity(p.op, p.value);
    }
  }
  return sel;
}

PlanChoice Planner::Choose(const sql::BoundQuery& query,
                          const std::map<TableId, uint64_t>& vis_counts,
                          const exec::ExecConfig& exec_config) const {
  PlanChoice plan;
  plan.project = ProjectAlgo::kProject;

  for (TableId t : query.tables) {
    if (!query.HasVisiblePredicateOn(t)) continue;
    uint64_t table_rows = store_->tables[t].row_count;
    auto cnt = vis_counts.find(t);
    uint64_t vis_count =
        cnt != vis_counts.end() ? cnt->second : table_rows;
    double sv = table_rows == 0
                    ? 0.0
                    : static_cast<double>(vis_count) /
                          static_cast<double>(table_rows);
    double subtree_sel = HiddenSubtreeSelectivity(query, t);
    bool cross = subtree_sel < 1.0;  // hidden predicates exist in subtree

    // Pre-filter when the Vis ids are few enough to climb: the anchor's
    // own ids need no climbing at all.
    bool pre = t == query.anchor ||
               (cross ? sv <= kCrossPreFilterThreshold ||
                            sv * subtree_sel <= kCrossedPreFilterFraction
                      : sv <= kPreFilterThreshold);
    if (pre) {
      plan.vis[t] = cross ? VisStrategy::kCrossPreFilter
                          : VisStrategy::kPreFilter;
      continue;
    }
    // Feasibility of a Bloom filter within the device RAM.
    uint64_t n = static_cast<uint64_t>(
        static_cast<double>(vis_count) * (cross ? subtree_sel : 1.0));
    double ram_bits = static_cast<double>(exec::kBloomMaxBuffers) * 2048.0 *
                      8.0;
    bool feasible =
        n == 0 ||
        ram_bits / static_cast<double>(n) >= exec_config.bloom_min_bpe;
    if (feasible) {
      plan.vis[t] = cross ? VisStrategy::kCrossPostFilter
                          : VisStrategy::kPostFilter;
    } else if (cross) {
      plan.vis[t] = VisStrategy::kCrossPreFilter;
    } else {
      plan.vis[t] = VisStrategy::kNoFilter;
    }
  }
  return plan;
}

PhysicalPlan Planner::PlanQuery(const sql::BoundQuery& query,
                                const std::map<TableId, uint64_t>& vis_counts,
                                const exec::ExecConfig& exec_config) const {
  if (VisibleOnly(query)) return LowerPlan(query, PlanChoice{}, exec_config);
  return LowerPlan(query, Choose(query, vis_counts, exec_config),
                   exec_config);
}

PhysicalPlan Planner::LowerPlan(const sql::BoundQuery& query,
                                PlanChoice choice,
                                const exec::ExecConfig& exec_config) const {
  PhysicalPlan plan =
      VisibleOnly(query)
          ? BuildVisibleOnlyPlan(query)
          : BuildPhysicalPlan(
                query, std::move(choice),
                exec_config.volume_padding != exec::VolumePadding::kOff);
  // Batch sizing: a byte budget over the output row width. Widths are
  // schema metadata (visible), so the sized plan (and the layout it was
  // derived from) stays a function of visible inputs.
  plan.value_layout = exec::BatchLayout::Projection(*schema_, query);
  plan.batch_rows = exec::SizeBatchRows(plan.value_layout);
  return plan;
}

bool Planner::FansOut(const sql::BoundQuery& query) const {
  return config_.shard_count > 1 && query.anchor == schema_->root();
}

std::string Planner::Explain(
    const sql::BoundQuery& query, const PhysicalPlan& plan,
    const std::map<TableId, uint64_t>& vis_counts) const {
  std::string out;
  if (plan.visible_only()) {
    out = "GhostDB plan (anchor " + schema_->table(query.anchor).name +
          ", visible-only)\n";
    for (const auto& p : query.predicates) {
      out += "  visible predicate: " + p.ToString(*schema_) + "\n";
    }
    out += "  answered on Untrusted -> vis-result keyed by " +
           std::string(plan.result_keyed_by_id() ? "anchor id" : "position") +
           "\n";
  } else {
    out = Explain(query, plan.choice, vis_counts);
  }
  out += "  batch: " + std::to_string(plan.batch_rows) + " rows\n";
  out += "  pipeline:\n";
  std::istringstream tree(plan.ToString(*schema_));
  for (std::string line; std::getline(tree, line);) {
    out += "    " + line + "\n";
  }
  return out;
}

std::string Planner::Explain(
    const sql::BoundQuery& query, const PlanChoice& plan,
    const std::map<TableId, uint64_t>& vis_counts) const {
  std::ostringstream out;
  out << "GhostDB plan (anchor " << schema_->table(query.anchor).name
      << ")\n";
  for (const auto& p : query.predicates) {
    out << "  " << (p.hidden ? "hidden " : "visible") << " predicate: "
        << p.ToString(*schema_) << "\n";
  }
  for (const auto& [t, strategy] : plan.vis) {
    out << "  " << schema_->table(t).name << " visible selection -> "
        << VisStrategyName(strategy);
    auto it = vis_counts.find(t);
    if (it != vis_counts.end() && store_->tables[t].row_count > 0) {
      out << "  (sV=" <<
          static_cast<double>(it->second) /
              static_cast<double>(store_->tables[t].row_count)
          << ")";
    }
    out << "\n";
  }
  for (const auto& p : query.predicates) {
    if (p.hidden && !p.on_id) {
      out << "  hidden selection " << p.ToString(*schema_)
          << " -> climbing index to "
          << schema_->table(query.anchor).name << "\n";
    }
  }
  out << "  projection -> " << ProjectAlgoName(plan.project) << "\n";
  return out.str();
}

}  // namespace ghostdb::plan
