#include "reference/oracle.h"

#include <algorithm>
#include <map>
#include <set>

namespace ghostdb::reference {

using catalog::ColumnId;
using catalog::RowId;
using catalog::TableId;
using catalog::Value;

Result<std::vector<std::vector<Value>>> Evaluate(
    const catalog::Schema& schema,
    const std::vector<core::TableData>& staged,
    const sql::BoundQuery& query) {
  TableId anchor = query.anchor;

  // Path from the anchor to each query table (fk chain).
  // id_of(t, anchor_row): follow parent fks downward.
  auto id_of = [&](TableId t, RowId anchor_row) -> RowId {
    // Build the chain anchor -> ... -> t using tree parents.
    std::vector<TableId> chain;  // from t up to anchor (exclusive)
    TableId walk = t;
    while (walk != anchor) {
      chain.push_back(walk);
      walk = schema.tree(walk).parent;
    }
    RowId row = anchor_row;
    TableId at = anchor;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      ColumnId fk = schema.tree(*it).parent_fk;
      row = staged[at].GetFk(row, fk);
      at = *it;
    }
    return row;
  };

  std::vector<std::vector<Value>> out;
  uint64_t anchor_rows = staged[anchor].row_count();
  for (RowId a = 0; a < anchor_rows; ++a) {
    bool pass = true;
    std::map<TableId, RowId> ids;
    for (TableId t : query.tables) ids[t] = id_of(t, a);
    for (const auto& p : query.predicates) {
      Value v = p.on_id
                    ? Value::Int32(static_cast<int32_t>(ids[p.table]))
                    : staged[p.table].Get(ids[p.table], p.column);
      if (!catalog::EvalCompare(v, p.op, p.value)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    std::vector<Value> row;
    row.reserve(query.select.size());
    for (const auto& item : query.select) {
      if (item.is_id) {
        row.push_back(Value::Int32(static_cast<int32_t>(ids[item.table])));
      } else {
        row.push_back(staged[item.table].Get(ids[item.table], item.column));
      }
    }
    out.push_back(std::move(row));
  }

  auto make_aggregators = [&] {
    std::vector<exec::Aggregator> aggs;
    for (const auto& item : query.select) {
      catalog::DataType input_type =
          item.is_id ? catalog::DataType::kInt32
                     : schema.table(item.table).columns[item.column].type;
      aggs.emplace_back(item.agg, input_type);
    }
    return aggs;
  };
  auto fold_row = [&](std::vector<exec::Aggregator>* aggs,
                      const std::vector<Value>& row) -> Status {
    for (size_t i = 0; i < query.select.size(); ++i) {
      if (query.select[i].agg == exec::AggFunc::kCountStar) {
        (*aggs)[i].AccumulateRow();
      } else if (query.select[i].agg != exec::AggFunc::kNone) {
        GHOSTDB_RETURN_NOT_OK((*aggs)[i].Accumulate(row[i]));
      }
    }
    return Status::OK();
  };

  if (query.grouped()) {
    // GROUP BY: partition the per-row values by the plain (key) select
    // items, fold aggregates per group, emit one row per group in
    // first-arrival order showing the group's first-row key values —
    // exactly HashGroupOp's semantics. Empty input: zero groups.
    std::map<std::vector<Value>, size_t> index;
    std::vector<std::vector<Value>> first_rows;
    std::vector<std::vector<exec::Aggregator>> groups;
    for (const auto& row : out) {
      std::vector<Value> key;
      for (size_t i = 0; i < query.select.size(); ++i) {
        if (query.select[i].agg == exec::AggFunc::kNone) {
          key.push_back(row[i]);
        }
      }
      auto [it, fresh] = index.emplace(std::move(key), groups.size());
      if (fresh) {
        first_rows.push_back(row);
        groups.push_back(make_aggregators());
      }
      GHOSTDB_RETURN_NOT_OK(fold_row(&groups[it->second], row));
    }
    std::vector<std::vector<Value>> grouped;
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<Value> row;
      for (size_t i = 0; i < query.select.size(); ++i) {
        if (query.select[i].agg == exec::AggFunc::kNone) {
          row.push_back(first_rows[g][i]);
        } else {
          GHOSTDB_ASSIGN_OR_RETURN(Value v, groups[g][i].Finish());
          row.push_back(std::move(v));
        }
      }
      grouped.push_back(std::move(row));
    }
    out = std::move(grouped);
  } else if (query.HasAggregates()) {
    // Whole-result aggregates: fold the per-row values exactly as the
    // device does. GhostDB has no NULLs: value aggregates (SUM/AVG/MIN/
    // MAX) over an empty input yield an empty result instead of SQL's
    // NULL row; COUNT-only selects keep their zero row (HashGroupOp
    // applies the same rule).
    bool needs_input = false;
    for (const auto& item : query.select) {
      needs_input |= exec::AggRequiresInput(item.agg);
    }
    if (out.empty() && needs_input) {
      out.clear();
    } else {
      std::vector<exec::Aggregator> aggs = make_aggregators();
      for (const auto& row : out) {
        GHOSTDB_RETURN_NOT_OK(fold_row(&aggs, row));
      }
      std::vector<Value> agg_row;
      for (auto& a : aggs) {
        GHOSTDB_ASSIGN_OR_RETURN(Value v, a.Finish());
        agg_row.push_back(std::move(v));
      }
      out = {std::move(agg_row)};
    }
  }

  // DISTINCT keeps the first occurrence in anchor-id order; ORDER BY is a
  // stable sort (ties stay in anchor-id order); LIMIT truncates last —
  // exactly the semantics of the Distinct/Sort/Limit operators.
  if (query.distinct) {
    std::set<std::vector<Value>> seen;
    std::vector<std::vector<Value>> unique;
    for (auto& row : out) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    out = std::move(unique);
  }
  if (!query.order_by.empty()) {
    std::stable_sort(out.begin(), out.end(),
                     [&](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                       for (const auto& key : query.order_by) {
                         int cmp = a[key.select_index].Compare(
                             b[key.select_index]);
                         if (cmp != 0) {
                           return key.descending ? cmp > 0 : cmp < 0;
                         }
                       }
                       return false;
                     });
  }
  if (query.limit.has_value() && out.size() > *query.limit) {
    out.resize(*query.limit);
  }
  return out;
}

}  // namespace ghostdb::reference
