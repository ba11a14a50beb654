#include "sql/binder.h"

#include <algorithm>
#include <map>
#include <set>

namespace ghostdb::sql {

using catalog::ColumnId;
using catalog::CompareOp;
using catalog::DataType;
using catalog::Schema;
using catalog::TableId;
using catalog::Value;

namespace {

// Coerces a literal to the column type (int widening, int->double).
Result<Value> Coerce(const Value& v, DataType target) {
  if (v.type() == target) return v;
  if (target == DataType::kInt64 && v.type() == DataType::kInt32) {
    return Value::Int64(v.AsInt32());
  }
  if (target == DataType::kDouble && v.type() == DataType::kInt32) {
    return Value::Double(v.AsInt32());
  }
  if (target == DataType::kDouble && v.type() == DataType::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt64()));
  }
  if (target == DataType::kInt32 && v.type() == DataType::kInt64) {
    int64_t x = v.AsInt64();
    if (x < INT32_MIN || x > INT32_MAX) {
      return Status::InvalidArgument("integer literal out of INT range");
    }
    return Value::Int32(static_cast<int32_t>(x));
  }
  return Status::InvalidArgument("literal " + v.ToString() +
                                 " incompatible with column type " +
                                 std::string(catalog::DataTypeName(target)));
}

struct NameScope {
  // effective FROM name (alias or table name) -> TableId
  std::map<std::string, TableId> by_name;
  std::vector<TableId> order;

  Result<TableId> Resolve(const std::string& name) const {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("unknown table or alias '" + name +
                              "' in this query");
    }
    return it->second;
  }
};

// Resolves a (possibly unqualified) column reference.
struct ResolvedRef {
  TableId table;
  bool is_id;
  ColumnId column;
};

Result<ResolvedRef> ResolveColumn(const ColumnRef& ref, const Schema& schema,
                                  const NameScope& scope) {
  if (!ref.table.empty()) {
    GHOSTDB_ASSIGN_OR_RETURN(TableId t, scope.Resolve(ref.table));
    if (ref.column == "id") return ResolvedRef{t, true, 0};
    auto col = schema.table(t).FindColumn(ref.column);
    if (!col) {
      return Status::NotFound("table '" + schema.table(t).name +
                              "' has no column '" + ref.column + "'");
    }
    return ResolvedRef{t, false, *col};
  }
  // Unqualified: must be unambiguous across FROM tables.
  std::vector<ResolvedRef> hits;
  for (TableId t : scope.order) {
    if (ref.column == "id") {
      hits.push_back({t, true, 0});
      continue;
    }
    auto col = schema.table(t).FindColumn(ref.column);
    if (col) hits.push_back({t, false, *col});
  }
  if (hits.empty()) {
    return Status::NotFound("column '" + ref.column +
                            "' not found in any FROM table");
  }
  if (hits.size() > 1) {
    return Status::InvalidArgument("column '" + ref.column +
                                   "' is ambiguous; qualify it");
  }
  return hits[0];
}

// True when select item `c` names the same column as the resolved
// (table, is_id, column) triple — the identity GROUP BY / ORDER BY keys
// and the plain-item-coverage check all resolve against.
bool SameColumn(const BoundColumn& c, TableId table, bool is_id,
                ColumnId column) {
  return c.table == table && c.is_id == is_id && (is_id || c.column == column);
}

}  // namespace

std::string BoundPredicate::ToString(const Schema& schema) const {
  std::string col =
      on_id ? "id" : schema.table(table).columns[column].name;
  return schema.table(table).name + "." + col + " " +
         std::string(catalog::CompareOpName(op)) + " " + value.ToString();
}

std::vector<BoundPredicate> BoundQuery::VisiblePredicatesOn(
    TableId t) const {
  std::vector<BoundPredicate> out;
  for (const auto& p : predicates) {
    if (p.table == t && (p.on_id || !p.hidden)) out.push_back(p);
  }
  return out;
}

std::vector<BoundPredicate> BoundQuery::HiddenPredicatesOn(TableId t) const {
  std::vector<BoundPredicate> out;
  for (const auto& p : predicates) {
    if (p.table == t && !p.on_id && p.hidden) out.push_back(p);
  }
  return out;
}

std::vector<ColumnId> BoundQuery::ProjectedVisibleColumns(
    const Schema& schema, TableId t) const {
  std::vector<ColumnId> out;
  for (const auto& c : select) {
    if (c.table == t && !c.is_id &&
        !schema.table(t).columns[c.column].hidden) {
      if (std::find(out.begin(), out.end(), c.column) == out.end()) {
        out.push_back(c.column);
      }
    }
  }
  return out;
}

std::vector<ColumnId> BoundQuery::ProjectedHiddenColumns(
    const Schema& schema, TableId t) const {
  std::vector<ColumnId> out;
  for (const auto& c : select) {
    if (c.table == t && !c.is_id &&
        schema.table(t).columns[c.column].hidden) {
      if (std::find(out.begin(), out.end(), c.column) == out.end()) {
        out.push_back(c.column);
      }
    }
  }
  return out;
}

bool BoundQuery::ProjectsTable(TableId t) const {
  for (const auto& c : select) {
    if (c.table == t) return true;
  }
  return false;
}

bool BoundQuery::TouchesHidden(const Schema& schema) const {
  if (tables.size() != 1 || !joins.empty()) return true;
  if (schema.table(tables[0]).hidden) return true;
  for (const auto& p : predicates) {
    if (p.hidden && !p.on_id) return true;
  }
  for (const auto& c : select) {
    if (!c.is_id && schema.table(c.table).columns[c.column].hidden) {
      return true;
    }
  }
  return false;
}

bool BoundQuery::GroupsOnVisibleAnchorKeys(const Schema& schema) const {
  if (!distinct && !grouped()) return false;
  if (!TouchesHidden(schema)) return false;
  for (const auto& c : select) {
    if (c.agg != exec::AggFunc::kNone) continue;
    if (c.table != anchor || c.is_id ||
        schema.table(anchor).columns[c.column].hidden) {
      return false;
    }
  }
  return true;
}

bool BoundQuery::HasAggregates() const {
  for (const auto& c : select) {
    if (c.agg != exec::AggFunc::kNone) return true;
  }
  return false;
}

Result<BoundQuery> Bind(const SelectStmt& stmt, const Schema& schema,
                        std::string sql) {
  if (!schema.finalized()) {
    return Status::InvalidArgument("schema not finalized");
  }
  BoundQuery q;
  q.explain = stmt.explain;
  q.sql = std::move(sql);

  NameScope scope;
  std::set<TableId> seen;
  for (const auto& entry : stmt.from) {
    GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema.FindTable(entry.table));
    if (!seen.insert(t).second) {
      return Status::NotSupported("table '" + entry.table +
                                  "' appears twice in FROM (self-joins are "
                                  "not supported)");
    }
    if (scope.by_name.count(entry.effective_name())) {
      return Status::InvalidArgument("duplicate FROM name '" +
                                     entry.effective_name() + "'");
    }
    scope.by_name[entry.effective_name()] = t;
    scope.order.push_back(t);
    q.tables.push_back(t);
  }

  // Joins: each must be parent.fk = child.id along a schema edge.
  std::map<TableId, std::set<TableId>> adjacency;
  for (const auto& join : stmt.joins) {
    GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef l,
                             ResolveColumn(join.left, schema, scope));
    GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef r,
                             ResolveColumn(join.right, schema, scope));
    // Normalize: fk side and id side.
    ResolvedRef fk = l, id = r;
    if (l.is_id) std::swap(fk, id);
    if (!id.is_id || fk.is_id) {
      return Status::NotSupported(
          "join '" + join.left.ToString() + " = " + join.right.ToString() +
          "' must equate a foreign key with a table id");
    }
    const auto& fk_col = schema.table(fk.table).columns[fk.column];
    if (!fk_col.is_foreign_key()) {
      return Status::InvalidArgument("column '" + fk_col.name +
                                     "' is not a foreign key");
    }
    auto target = schema.FindTable(fk_col.references);
    if (!target.ok() || *target != id.table) {
      return Status::InvalidArgument(
          "join mismatch: '" + fk_col.name + "' references '" +
          fk_col.references + "', not '" + schema.table(id.table).name + "'");
    }
    q.joins.push_back({fk.table, fk.column, id.table});
    adjacency[fk.table].insert(id.table);
    adjacency[id.table].insert(fk.table);
  }

  // Connectivity check over FROM tables.
  if (q.tables.size() > 1) {
    std::set<TableId> reached;
    std::vector<TableId> stack = {q.tables[0]};
    reached.insert(q.tables[0]);
    while (!stack.empty()) {
      TableId t = stack.back();
      stack.pop_back();
      for (TableId n : adjacency[t]) {
        if (reached.insert(n).second) stack.push_back(n);
      }
    }
    for (TableId t : q.tables) {
      if (!reached.count(t)) {
        return Status::NotSupported(
            "FROM tables are not connected by the join conditions "
            "(cross products are not supported); '" +
            schema.table(t).name + "' is unreachable");
      }
    }
  }

  // Anchor: the FROM table nearest the schema root; it must be an ancestor
  // (or self) of every other FROM table.
  q.anchor = q.tables[0];
  for (TableId t : q.tables) {
    if (schema.tree(t).depth < schema.tree(q.anchor).depth) q.anchor = t;
  }
  for (TableId t : q.tables) {
    if (!schema.IsAncestorOrSelf(t, q.anchor)) {
      return Status::NotSupported(
          "query tables must form a subtree: '" + schema.table(t).name +
          "' is not a descendant of '" + schema.table(q.anchor).name + "'");
    }
  }

  // Predicates.
  for (const auto& pred : stmt.predicates) {
    GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef ref,
                             ResolveColumn(pred.column, schema, scope));
    BoundPredicate bp;
    bp.table = ref.table;
    bp.on_id = ref.is_id;
    if (ref.is_id) {
      GHOSTDB_ASSIGN_OR_RETURN(bp.value,
                               Coerce(pred.value, DataType::kInt32));
      bp.hidden = false;  // ids are replicated on both sides
    } else {
      const auto& col = schema.table(ref.table).columns[ref.column];
      bp.column = ref.column;
      bp.hidden = col.hidden;
      GHOSTDB_ASSIGN_OR_RETURN(bp.value, Coerce(pred.value, col.type));
    }
    bp.op = pred.op;
    q.predicates.push_back(std::move(bp));
  }

  // SELECT list.
  if (stmt.star) {
    for (TableId t : q.tables) {
      BoundColumn id_col;
      id_col.table = t;
      id_col.is_id = true;
      id_col.display = schema.table(t).name + ".id";
      q.select.push_back(std::move(id_col));
      for (ColumnId c = 0; c < schema.table(t).columns.size(); ++c) {
        BoundColumn col;
        col.table = t;
        col.column = c;
        col.display =
            schema.table(t).name + "." + schema.table(t).columns[c].name;
        q.select.push_back(std::move(col));
      }
    }
  } else {
    bool any_agg = false, any_plain = false;
    for (const auto& item : stmt.items) {
      BoundColumn out;
      out.agg = item.agg;
      if (item.agg == exec::AggFunc::kCountStar) {
        // COUNT(*) is anchored to the anchor id (always present).
        out.table = q.anchor;
        out.is_id = true;
        out.display = "COUNT(*)";
      } else {
        GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef ref,
                                 ResolveColumn(item.ref, schema, scope));
        out.table = ref.table;
        out.is_id = ref.is_id;
        out.column = ref.column;
        std::string name = schema.table(ref.table).name + "." +
                           (ref.is_id ? "id"
                                      : schema.table(ref.table)
                                            .columns[ref.column]
                                            .name);
        if (item.agg == exec::AggFunc::kNone) {
          out.display = name;
        } else {
          out.display =
              std::string(exec::AggFuncName(item.agg)) + "(" + name + ")";
          // SUM/AVG need numeric inputs.
          if ((item.agg == exec::AggFunc::kSum ||
               item.agg == exec::AggFunc::kAvg) &&
              !ref.is_id &&
              schema.table(ref.table).columns[ref.column].type ==
                  catalog::DataType::kString) {
            return Status::InvalidArgument(out.display +
                                           ": SUM/AVG over a CHAR column");
          }
        }
      }
      (out.agg == exec::AggFunc::kNone ? any_plain : any_agg) = true;
      q.select.push_back(std::move(out));
    }
    if (any_agg && any_plain && stmt.group_by.empty()) {
      return Status::NotSupported(
          "mixing aggregates and plain columns requires GROUP BY");
    }
  }

  // GROUP BY: keys are resolved against the SELECT list, like ORDER BY —
  // groups are keyed by values the query already materializes, so grouping
  // adds no new data flow (and no new leak surface). Conversely every
  // plain select item must be a group key (its value is only well-defined
  // per group).
  if (!stmt.group_by.empty()) {
    if (stmt.star) {
      return Status::NotSupported("GROUP BY with SELECT *");
    }
    if (stmt.distinct) {
      return Status::NotSupported("SELECT DISTINCT with GROUP BY");
    }
    for (const auto& key : stmt.group_by) {
      GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef ref,
                               ResolveColumn(key, schema, scope));
      bool found = false;
      for (size_t i = 0; i < q.select.size(); ++i) {
        const BoundColumn& c = q.select[i];
        if (c.agg == exec::AggFunc::kNone &&
            SameColumn(c, ref.table, ref.is_id, ref.column)) {
          // Duplicate GROUP BY keys collapse: grouping by (k, k) is
          // grouping by k.
          if (std::find(q.group_by.begin(), q.group_by.end(), i) ==
              q.group_by.end()) {
            q.group_by.push_back(i);
          }
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotSupported(
            "GROUP BY column '" + key.ToString() +
            "' must appear in the SELECT list as a plain column");
      }
    }
    for (size_t i = 0; i < q.select.size(); ++i) {
      const BoundColumn& c = q.select[i];
      if (c.agg != exec::AggFunc::kNone) continue;
      bool is_key = false;
      for (size_t k : q.group_by) {
        is_key |= SameColumn(q.select[k], c.table, c.is_id, c.column);
      }
      if (!is_key) {
        return Status::InvalidArgument(
            "column '" + c.display +
            "' must appear in GROUP BY or be inside an aggregate");
      }
    }
  }

  // DISTINCT / ORDER BY / LIMIT.
  q.distinct = stmt.distinct;
  q.limit = stmt.limit;
  if (q.HasAggregates() && !q.grouped()) {
    if (q.distinct) {
      return Status::NotSupported("SELECT DISTINCT over aggregates");
    }
    if (!stmt.order_by.empty()) {
      return Status::NotSupported(
          "ORDER BY over an aggregate-only SELECT (the result is one row)");
    }
  }
  for (const auto& key : stmt.order_by) {
    // Sort keys are resolved against the SELECT list: rows are ordered by
    // values the query already materializes, so sorting adds no new data
    // flow (and no new leak surface). For grouped queries a key may be an
    // aggregate of the SELECT list (`ORDER BY SUM(v)`).
    if (key.agg != exec::AggFunc::kNone && !q.grouped()) {
      return Status::NotSupported(
          "ORDER BY over an aggregate requires GROUP BY");
    }
    BoundOrderKey bound;
    bound.descending = key.descending;
    bool found = false;
    if (key.agg == exec::AggFunc::kCountStar) {
      for (size_t i = 0; i < q.select.size(); ++i) {
        if (q.select[i].agg == exec::AggFunc::kCountStar) {
          bound.select_index = i;
          found = true;
          break;
        }
      }
    } else {
      GHOSTDB_ASSIGN_OR_RETURN(ResolvedRef ref,
                               ResolveColumn(key.column, schema, scope));
      for (size_t i = 0; i < q.select.size(); ++i) {
        const BoundColumn& c = q.select[i];
        if (c.agg == key.agg &&
            SameColumn(c, ref.table, ref.is_id, ref.column)) {
          bound.select_index = i;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      std::string what;
      if (key.agg == exec::AggFunc::kNone) {
        what = "column '" + key.column.ToString() + "'";
      } else if (key.agg == exec::AggFunc::kCountStar) {
        what = "COUNT(*)";
      } else {
        what = std::string(exec::AggFuncName(key.agg)) + "(" +
               key.column.ToString() + ")";
      }
      return Status::NotSupported("ORDER BY " + what +
                                  " must appear in the SELECT list");
    }
    q.order_by.push_back(bound);
  }
  return q;
}

}  // namespace ghostdb::sql
