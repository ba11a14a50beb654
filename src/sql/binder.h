// Binds a parsed SELECT against the schema and validates it against the
// paper's query model: Select-Project-Join over a subtree of the schema
// tree, equi-joins on key/foreign-key only, conjunctive exact-match or
// range selections (section 3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/stats.h"
#include "common/result.h"
#include "sql/ast.h"

namespace ghostdb::sql {

/// A resolved output column (possibly an aggregate over it).
struct BoundColumn {
  catalog::TableId table;
  bool is_id = false;          ///< the surrogate id
  catalog::ColumnId column = 0;  ///< valid when !is_id
  exec::AggFunc agg = exec::AggFunc::kNone;
  std::string display;         ///< "T1.v1" / "SUM(T1.v1)" for headers
};

/// A resolved selection conjunct.
struct BoundPredicate {
  catalog::TableId table;
  bool on_id = false;          ///< predicate on the surrogate id
  catalog::ColumnId column = 0;
  bool hidden = false;         ///< column lives on Secure
  catalog::CompareOp op;
  catalog::Value value;

  std::string ToString(const catalog::Schema& schema) const;
};

/// A resolved join edge: parent's FK column -> child table id.
struct BoundJoin {
  catalog::TableId parent;
  catalog::ColumnId parent_fk;
  catalog::TableId child;
};

/// A resolved ORDER BY key: an index into the SELECT list plus direction.
struct BoundOrderKey {
  size_t select_index = 0;
  bool descending = false;
};

/// \brief A validated Select-Project-Join query.
struct BoundQuery {
  std::vector<catalog::TableId> tables;  ///< FROM tables (deduped, in order)
  catalog::TableId anchor;  ///< FROM table nearest the schema root
  std::vector<BoundColumn> select;
  std::vector<BoundPredicate> predicates;
  std::vector<BoundJoin> joins;
  /// GROUP BY keys as indexes into `select` (deduped, in GROUP BY order).
  /// Every key is a plain select item, and every plain select item is a
  /// key, so grouping by the plain select items is grouping by these.
  std::vector<size_t> group_by;
  bool distinct = false;
  std::vector<BoundOrderKey> order_by;
  std::optional<uint64_t> limit;
  bool explain = false;
  std::string sql;  ///< original text (what the spy sees)

  /// Predicates on `table` evaluable by Untrusted (visible columns + id).
  std::vector<BoundPredicate> VisiblePredicatesOn(catalog::TableId t) const;
  /// Predicates on `table` only evaluable on Secure.
  std::vector<BoundPredicate> HiddenPredicatesOn(catalog::TableId t) const;
  bool HasVisiblePredicateOn(catalog::TableId t) const {
    return !VisiblePredicatesOn(t).empty();
  }
  /// Visible columns of `table` appearing in the SELECT list.
  std::vector<catalog::ColumnId> ProjectedVisibleColumns(
      const catalog::Schema& schema, catalog::TableId t) const;
  /// Hidden columns of `table` appearing in the SELECT list.
  std::vector<catalog::ColumnId> ProjectedHiddenColumns(
      const catalog::Schema& schema, catalog::TableId t) const;
  /// True if the SELECT list references `table` at all.
  bool ProjectsTable(catalog::TableId t) const;
  /// True if the SELECT list contains any aggregate.
  bool HasAggregates() const;
  /// True for a GROUP BY query (one result row per group).
  bool grouped() const { return !group_by.empty(); }
  /// False for a visible-only statement: one table, not declared HIDDEN,
  /// no join, no hidden predicate, and no hidden column among the SELECT
  /// items (which hold every aggregate argument, GROUP BY key and ORDER BY
  /// key); ids and COUNT(*) count as visible. Such a statement is a
  /// function of the visible data and the query text alone. Depends only
  /// on the query shape, never on a literal.
  bool TouchesHidden(const catalog::Schema& schema) const;
};

/// Binds `stmt` (with original text `sql`) against `schema`.
Result<BoundQuery> Bind(const SelectStmt& stmt, const catalog::Schema& schema,
                        std::string sql);

}  // namespace ghostdb::sql
