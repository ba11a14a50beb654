// Shared fuzz machinery for the differential and leak property tests: a
// randomized Fig-3-schema database builder and a seeded random query
// generator covering the bound query model (conjunctive filters on visible
// and hidden columns, key/fk joins along the schema tree, aggregates,
// GROUP BY, DISTINCT, ORDER BY, LIMIT).
//
// Determinism contract: everything visible — schema shape (CHAR widths),
// cardinalities, visible column values, foreign keys, index choices — is
// drawn from `visible_seed` only; `hidden_seed` perturbs hidden column
// values alone. Two databases built with the same visible seed and
// different hidden seeds therefore differ only in hidden data, which is
// exactly what the leak sweep needs.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"

namespace ghostdb::fuzztest {

/// Budget/seed knob from the environment. Malformed values fail loudly so
/// a typo'd budget can never make a fuzz run vacuous; zero is rejected for
/// budgets (vacuous run) but legal for seeds.
inline uint64_t EnvOr(const char* name, uint64_t fallback,
                      bool allow_zero = false) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || (parsed == 0 && !allow_zero)) {
    ADD_FAILURE() << name << "='" << v << "' is not a valid "
                  << (allow_zero ? "integer" : "positive integer")
                  << "; using default " << fallback;
    return fallback;
  }
  return parsed;
}

/// Appends one reproduction line to the failure log CI uploads as an
/// artifact (GHOSTDB_FUZZ_FAILURE_FILE, default fuzz_failures.txt).
inline std::string FailureFile() {
  const char* v = std::getenv("GHOSTDB_FUZZ_FAILURE_FILE");
  return v != nullptr && *v != '\0' ? v : "fuzz_failures.txt";
}

/// Randomized shape parameters, derived from the visible seed.
struct FuzzShape {
  uint32_t t0, t1, t2, t11, t12;  ///< cardinalities
  int domain;                     ///< int values uniform in [0, domain)
  uint32_t str_width;             ///< width of the CHAR columns
};

inline FuzzShape MakeShape(uint64_t visible_seed) {
  Rng rng(visible_seed ^ 0x5a5a5a5aULL);
  FuzzShape s;
  s.t0 = 150 + static_cast<uint32_t>(rng.Uniform(250));
  s.t1 = 30 + static_cast<uint32_t>(rng.Uniform(90));
  s.t2 = 15 + static_cast<uint32_t>(rng.Uniform(45));
  s.t11 = 10 + static_cast<uint32_t>(rng.Uniform(30));
  s.t12 = 10 + static_cast<uint32_t>(rng.Uniform(30));
  s.domain = 20 + static_cast<int>(rng.Uniform(180));
  s.str_width = 4 + static_cast<uint32_t>(rng.Uniform(7));
  return s;
}

/// Config for a fuzz database: a random subset of hidden attributes gets
/// climbing indexes (drawn from the visible seed — index choice is visible
/// metadata), so both the indexed and the scan selection paths are hit.
inline core::GhostDBConfig FuzzConfig(uint64_t visible_seed,
                                      bool retain_staged,
                                      uint32_t worker_threads = 1) {
  core::GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.retain_staged_data = retain_staged;
  cfg.worker_threads = worker_threads;
  Rng rng(visible_seed ^ 0xc0ffeeULL);
  std::map<std::string, std::vector<std::string>> indexed;
  const std::pair<const char*, const char*> candidates[] = {
      {"T0", "h"},  {"T0", "hs"},  {"T1", "h"},  {"T2", "h"},
      {"T2", "bh"}, {"T11", "h"}, {"T11", "dh"}, {"T12", "h"},
  };
  for (const auto& [table, column] : candidates) {
    if (rng.Chance(0.5)) indexed[table].push_back(column);
  }
  if (!indexed.empty()) cfg.indexed_attrs_by_name = std::move(indexed);
  return cfg;
}

/// Builds the Fig-3 tree T0 -> {T1 -> {T11, T12}, T2} with randomized
/// cardinalities/widths/values. `db` must be fresh, constructed from
/// FuzzConfig(visible_seed, ...).
inline Status BuildFuzzDb(core::GhostDB* db, uint64_t visible_seed,
                          uint64_t hidden_seed) {
  FuzzShape s = MakeShape(visible_seed);
  std::string w = std::to_string(s.str_width);
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T11 (id INT, v INT, h INT HIDDEN, "
                  "dh DOUBLE HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T12 (id INT, v INT, h INT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T2 (id INT, v INT, d DOUBLE, "
                  "h INT HIDDEN, bh BIGINT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T1 (id INT, fk11 INT REFERENCES T11 HIDDEN, "
                  "fk12 INT REFERENCES T12 HIDDEN, v INT, vs CHAR(" +
                  w + "), h INT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T0 (id INT, fk1 INT REFERENCES T1 HIDDEN, "
                  "fk2 INT REFERENCES T2 HIDDEN, v INT, h INT HIDDEN, "
                  "hs CHAR(" + w + ") HIDDEN)"));

  using catalog::Value;
  Rng vis(visible_seed);
  Rng hid(hidden_seed);
  auto vint = [&] {
    return Value::Int32(static_cast<int32_t>(vis.Uniform(s.domain)));
  };
  auto hint = [&] {
    return Value::Int32(static_cast<int32_t>(hid.Uniform(s.domain)));
  };
  auto vstr = [&] {
    return Value::String("s" + std::to_string(vis.Uniform(50)));
  };
  auto hstr = [&] {
    return Value::String("s" + std::to_string(hid.Uniform(50)));
  };
  auto fk = [&](uint32_t bound) {
    return Value::Int32(static_cast<int32_t>(vis.Uniform(bound)));
  };
  // Doubles include exact +0.0 and -0.0 so non-canonical encodings (the
  // DISTINCT row-key edge case) actually occur in the data.
  auto dbl = [&](Rng& rng) {
    uint64_t pick = rng.Uniform(8);
    if (pick == 0) return Value::Double(0.0);
    if (pick == 1) return Value::Double(-0.0);
    return Value::Double(static_cast<double>(rng.Uniform(s.domain)) + 0.5);
  };
  auto big = [&](Rng& rng) {
    return Value::Int64(static_cast<int64_t>(rng.Uniform(s.domain)) *
                        3000000000LL);
  };
  auto stage = [&](const char* name, uint32_t n,
                   auto make_row) -> Status {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging(name));
    for (uint32_t i = 0; i < n; ++i) {
      GHOSTDB_RETURN_NOT_OK(data->AppendRow(make_row()));
    }
    return Status::OK();
  };
  GHOSTDB_RETURN_NOT_OK(stage("T11", s.t11, [&] {
    return std::vector<Value>{vint(), hint(), dbl(hid)};
  }));
  GHOSTDB_RETURN_NOT_OK(stage("T12", s.t12, [&] {
    return std::vector<Value>{vint(), hint()};
  }));
  GHOSTDB_RETURN_NOT_OK(stage("T2", s.t2, [&] {
    return std::vector<Value>{vint(), dbl(vis), hint(), big(hid)};
  }));
  GHOSTDB_RETURN_NOT_OK(stage("T1", s.t1, [&] {
    return std::vector<Value>{fk(s.t11), fk(s.t12), vint(), vstr(), hint()};
  }));
  GHOSTDB_RETURN_NOT_OK(stage("T0", s.t0, [&] {
    return std::vector<Value>{fk(s.t1), fk(s.t2), vint(), hint(), hstr()};
  }));
  return db->Build();
}

// ---------------------------------------------------------------------------
// Query generator
// ---------------------------------------------------------------------------

namespace detail {

enum class ColKind { kInt, kStr, kDbl, kBig };

struct FuzzColumn {
  const char* name;
  ColKind kind;
  bool hidden;
};

struct FuzzTable {
  const char* name;
  uint32_t FuzzShape::* rows;
  std::vector<FuzzColumn> cols;
};

inline const std::vector<FuzzTable>& Tables() {
  static const std::vector<FuzzTable> tables = {
      {"T0", &FuzzShape::t0,
       {{"v", ColKind::kInt, false},
        {"h", ColKind::kInt, true},
        {"hs", ColKind::kStr, true}}},
      {"T1", &FuzzShape::t1,
       {{"v", ColKind::kInt, false},
        {"vs", ColKind::kStr, false},
        {"h", ColKind::kInt, true}}},
      {"T2", &FuzzShape::t2,
       {{"v", ColKind::kInt, false},
        {"d", ColKind::kDbl, false},
        {"h", ColKind::kInt, true},
        {"bh", ColKind::kBig, true}}},
      {"T11", &FuzzShape::t11,
       {{"v", ColKind::kInt, false},
        {"h", ColKind::kInt, true},
        {"dh", ColKind::kDbl, true}}},
      {"T12", &FuzzShape::t12,
       {{"v", ColKind::kInt, false}, {"h", ColKind::kInt, true}}},
  };
  return tables;
}

/// Connected FROM sets of the Fig-3 tree with their join clauses
/// (table indexes into Tables()).
struct FromSet {
  std::vector<size_t> tables;
  const char* joins;  ///< "" for single-table sets
};

/// Single-table FROM sets lead FromSets().
constexpr size_t kSingleTableSets = 5;

inline const std::vector<FromSet>& FromSets() {
  static const std::vector<FromSet> sets = {
      {{0}, ""},
      {{1}, ""},
      {{2}, ""},
      {{3}, ""},
      {{4}, ""},
      {{0, 1}, "T0.fk1 = T1.id"},
      {{0, 2}, "T0.fk2 = T2.id"},
      {{1, 3}, "T1.fk11 = T11.id"},
      {{1, 4}, "T1.fk12 = T12.id"},
      {{0, 1, 2}, "T0.fk1 = T1.id AND T0.fk2 = T2.id"},
      {{0, 1, 3}, "T0.fk1 = T1.id AND T1.fk11 = T11.id"},
      {{0, 1, 4}, "T0.fk1 = T1.id AND T1.fk12 = T12.id"},
      {{1, 3, 4}, "T1.fk11 = T11.id AND T1.fk12 = T12.id"},
      {{0, 1, 3, 4},
       "T0.fk1 = T1.id AND T1.fk11 = T11.id AND T1.fk12 = T12.id"},
  };
  return sets;
}

inline const char* CompareOpText(uint64_t pick) {
  switch (pick) {
    case 0: return "=";
    case 1: return "<";
    case 2: return "<=";
    case 3: return ">";
    case 4: return ">=";
    default: return "<>";
  }
}

}  // namespace detail

/// One random query over the fuzz schema, drawn from `rng`. Always
/// bindable: FROM sets are connected subtrees, ORDER BY references the
/// select list, mixed aggregate/plain selects always carry a GROUP BY
/// covering the plain items. With `visible_only` every query is a
/// visible-only statement — one table, and only ids and visible columns
/// in its items, aggregates, keys and predicates — so the PC answers it.
inline std::string GenerateQuery(Rng& rng, const FuzzShape& shape,
                                 bool visible_only = false) {
  using detail::FromSets;
  using detail::Tables;
  const auto& set =
      FromSets()[rng.Uniform(visible_only ? detail::kSingleTableSets
                                          : FromSets().size())];
  // A random column of `table` (visible ones only in visible-only mode).
  auto random_column = [&](const detail::FuzzTable& table)
      -> const detail::FuzzColumn& {
    if (!visible_only) return table.cols[rng.Uniform(table.cols.size())];
    std::vector<const detail::FuzzColumn*> visible;
    for (const auto& col : table.cols) {
      if (!col.hidden) visible.push_back(&col);
    }
    return *visible[rng.Uniform(visible.size())];
  };

  // A select item: table index + column index, or -1 for the id.
  struct Item {
    size_t table;
    int col;
    std::string text;
  };
  auto random_item = [&]() -> Item {
    size_t t = set.tables[rng.Uniform(set.tables.size())];
    const auto& table = Tables()[t];
    if (rng.Chance(0.2)) {
      return {t, -1, std::string(table.name) + ".id"};
    }
    const detail::FuzzColumn& col = random_column(table);
    int c = static_cast<int>(&col - table.cols.data());
    return {t, c, std::string(table.name) + "." + col.name};
  };
  // One random aggregate item's text ("COUNT(*)", "SUM(T0.v)", ...).
  auto random_agg = [&]() -> std::string {
    uint64_t f = rng.Uniform(6);
    if (f == 0) return "COUNT(*)";
    Item item = random_item();
    detail::ColKind kind = item.col < 0
                               ? detail::ColKind::kInt
                               : Tables()[item.table].cols[item.col].kind;
    bool numeric = kind != detail::ColKind::kStr;
    if (item.col < 0 || f == 1) return "COUNT(" + item.text + ")";
    if (numeric && (f == 2 || f == 3)) {
      return (f == 2 ? "SUM(" : "AVG(") + item.text + ")";
    }
    return (f == 4 ? "MIN(" : "MAX(") + item.text + ")";
  };

  // Three select shapes: plain columns, whole-result aggregates, or
  // grouped aggregation (plain keys + aggregates + GROUP BY).
  uint64_t mode = rng.Uniform(10);
  bool aggregate = mode >= 6 && mode < 8;
  bool grouped = mode >= 8;
  std::vector<Item> items;          // plain select items (keys if grouped)
  std::vector<std::string> orderable;  // legal ORDER BY key texts
  std::string select;
  if (aggregate) {
    size_t n = 1 + rng.Uniform(3);
    for (size_t i = 0; i < n; ++i) {
      if (!select.empty()) select += ", ";
      select += random_agg();
    }
  } else {
    size_t n = grouped ? 1 + rng.Uniform(2) : 1 + rng.Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      Item item = random_item();
      bool dup = false;
      for (const auto& prev : items) dup |= prev.text == item.text;
      if (dup) continue;
      if (!select.empty()) select += ", ";
      select += item.text;
      orderable.push_back(item.text);
      items.push_back(std::move(item));
    }
  }
  std::string group_clause;
  if (grouped) {
    // Keys first (every plain item must be a group key), then 0-2
    // aggregate outputs — both are legal ORDER BY keys.
    size_t naggs = rng.Uniform(3);
    for (size_t i = 0; i < naggs; ++i) {
      std::string agg = random_agg();
      select += ", " + agg;
      orderable.push_back(std::move(agg));
    }
    for (const auto& item : items) {
      if (!group_clause.empty()) group_clause += ", ";
      group_clause += item.text;
    }
    // Sometimes repeat a key: duplicate GROUP BY entries must collapse.
    if (rng.Chance(0.15)) group_clause += ", " + items[0].text;
  }

  std::string from;
  for (size_t t : set.tables) {
    if (!from.empty()) from += ", ";
    from += Tables()[t].name;
  }

  std::vector<std::string> conjuncts;
  if (*set.joins != '\0') conjuncts.push_back(set.joins);
  size_t preds = rng.Uniform(4);
  for (size_t i = 0; i < preds; ++i) {
    size_t t = set.tables[rng.Uniform(set.tables.size())];
    const auto& table = Tables()[t];
    const char* op = detail::CompareOpText(rng.Uniform(6));
    if (rng.Chance(0.15)) {
      uint64_t bound = shape.*(table.rows);
      conjuncts.push_back(std::string(table.name) + ".id " + op + " " +
                          std::to_string(rng.Uniform(bound + 1)));
      continue;
    }
    const auto& col = random_column(table);
    std::string lhs = std::string(table.name) + "." + col.name;
    uint64_t span = static_cast<uint64_t>(shape.domain) +
                    static_cast<uint64_t>(shape.domain) / 5 + 1;
    switch (col.kind) {
      case detail::ColKind::kStr:
        conjuncts.push_back(lhs + " " + op + " 's" +
                            std::to_string(rng.Uniform(60)) + "'");
        break;
      case detail::ColKind::kDbl:
        // Mix float literals with the int literals the binder coerces,
        // and an exact 0 (the ±0.0 data edge).
        if (rng.Chance(0.15)) {
          conjuncts.push_back(lhs + " " + op + " 0");
        } else {
          conjuncts.push_back(lhs + " " + op + " " +
                              std::to_string(rng.Uniform(span)) + ".5");
        }
        break;
      case detail::ColKind::kBig:
        conjuncts.push_back(
            lhs + " " + op + " " +
            std::to_string(static_cast<int64_t>(rng.Uniform(span)) *
                           3000000000LL));
        break;
      case detail::ColKind::kInt:
        conjuncts.push_back(lhs + " " + op + " " +
                            std::to_string(rng.Uniform(span)));
        break;
    }
  }

  std::string sql = "SELECT ";
  if (!aggregate && !grouped && rng.Chance(0.3)) sql += "DISTINCT ";
  sql += select + " FROM " + from;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
  }
  if (!group_clause.empty()) sql += " GROUP BY " + group_clause;
  if (!orderable.empty() && rng.Chance(0.4)) {
    size_t keys = 1 + rng.Uniform(orderable.size() > 1 ? 2 : 1);
    sql += " ORDER BY ";
    for (size_t k = 0; k < keys; ++k) {
      if (k > 0) sql += ", ";
      sql += orderable[rng.Uniform(orderable.size())];
      if (rng.Chance(0.5)) sql += " DESC";
    }
  }
  if (rng.Chance(0.3)) {
    sql += " LIMIT " + std::to_string(1 + rng.Uniform(25));
  }
  return sql;
}

// ---------------------------------------------------------------------------
// Multi-session fuzz mode
// ---------------------------------------------------------------------------

/// Deals `n` generated queries to `k` sessions. The deal (which session
/// gets which query, and thus the arbiter's interleaving once the sessions
/// drain) is drawn from `rng`, so different seeds exercise different
/// interleavings; everything drawn is visible information (the queries and
/// their assignment), never hidden data.
inline std::vector<std::vector<std::string>> DealQueries(
    Rng& rng, const FuzzShape& shape, size_t n, size_t k) {
  std::vector<std::vector<std::string>> per_session(k);
  for (size_t i = 0; i < n; ++i) {
    per_session[rng.Uniform(k)].push_back(GenerateQuery(rng, shape));
  }
  return per_session;
}

/// Opens one session per deal slot with equal RAM quotas (an eighth of the
/// arena each, so four sessions leave half the buffers in the shared
/// reserve) and queues the dealt statements, ready for
/// GhostDB::DrainSessions().
inline Result<std::vector<std::unique_ptr<core::Session>>> OpenFuzzSessions(
    core::GhostDB* db, const std::vector<std::vector<std::string>>& deal) {
  std::vector<std::unique_ptr<core::Session>> sessions;
  uint32_t quota =
      std::max<uint32_t>(1, db->device().ram().total_buffers() / 8);
  for (size_t s = 0; s < deal.size(); ++s) {
    core::SessionOptions options;
    options.name = "fuzz" + std::to_string(s);
    options.ram_quota_buffers = quota;
    GHOSTDB_ASSIGN_OR_RETURN(std::unique_ptr<core::Session> session,
                             db->OpenSession(std::move(options)));
    for (const std::string& sql : deal[s]) session->Enqueue(sql);
    sessions.push_back(std::move(session));
  }
  return sessions;
}

}  // namespace ghostdb::fuzztest
