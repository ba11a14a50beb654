// Grouped aggregation end to end: GROUP BY parsing/binding, the
// HashGroupOp hash and spill-overflow paths (byte-identical output, for
// GROUP BY, DISTINCT and keyless aggregates alike),
// grouped ORDER BY/LIMIT over keys and aggregate outputs, and the
// aggregate-semantics edges — empty/all-filtered inputs for every AggFunc
// (GhostDB's no-NULL rule: value aggregates over an empty input yield an
// empty result), overflow-checked integer SUM, and checked COUNT
// narrowing — all cross-checked against the reference oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/rng.h"
#include "core/database.h"
#include "exec/aggregate.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostdb {
namespace {

using catalog::DataType;
using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;
using exec::AggFunc;
using exec::Aggregator;

// --- Aggregator edge semantics (satellite bugfixes) ---

TEST(AggregatorEdgeTest, EveryValueAggregateFailsOnEmptyInput) {
  for (AggFunc f : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                    AggFunc::kMax}) {
    EXPECT_TRUE(exec::AggRequiresInput(f));
    Aggregator a(f, DataType::kInt32);
    EXPECT_FALSE(a.has_input());
    EXPECT_TRUE(a.Finish().status().IsNotFound())
        << exec::AggFuncName(f) << " over empty input must have no result";
  }
}

TEST(AggregatorEdgeTest, CountsOverEmptyInputAreZero) {
  for (AggFunc f : {AggFunc::kCountStar, AggFunc::kCount}) {
    EXPECT_FALSE(exec::AggRequiresInput(f));
    Aggregator a(f, DataType::kInt32);
    auto v = a.Finish();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt64(), 0);
  }
}

TEST(AggregatorEdgeTest, SumOverflowFailsInsteadOfWrapping) {
  // Value path: INT64_MAX + 1 must not wrap to a negative total.
  Aggregator a(AggFunc::kSum, DataType::kInt64);
  ASSERT_TRUE(a.Accumulate(Value::Int64(INT64_MAX)).ok());
  EXPECT_TRUE(a.Accumulate(Value::Int64(1)).IsOutOfRange());
  // The boundary itself is fine.
  Aggregator b(AggFunc::kSum, DataType::kInt64);
  ASSERT_TRUE(b.Accumulate(Value::Int64(INT64_MAX - 5)).ok());
  ASSERT_TRUE(b.Accumulate(Value::Int64(5)).ok());
  EXPECT_EQ(b.Finish()->AsInt64(), INT64_MAX);
}

TEST(AggregatorEdgeTest, SumNegativeOverflowFails) {
  Aggregator a(AggFunc::kSum, DataType::kInt64);
  ASSERT_TRUE(a.Accumulate(Value::Int64(INT64_MIN)).ok());
  EXPECT_TRUE(a.Accumulate(Value::Int64(-1)).IsOutOfRange());
}

TEST(AggregatorEdgeTest, SumOverflowFailsIdenticallyInEncodedPath) {
  Aggregator a(AggFunc::kSum, DataType::kInt64, 8);
  uint8_t cell[8];
  EncodeFixed64(cell, static_cast<uint64_t>(INT64_MAX));
  ASSERT_TRUE(a.AccumulateEncoded(cell).ok());
  EncodeFixed64(cell, 1);
  EXPECT_TRUE(a.AccumulateEncoded(cell).IsOutOfRange());
}

TEST(AggregatorEdgeTest, SumInt32InputsOverflowCheckedToo) {
  // An INT column sums into the same INT64 accumulator; mixing in a value
  // that saturates it must trip the check on the next int32 add.
  Aggregator a(AggFunc::kSum, DataType::kInt32);
  ASSERT_TRUE(a.Accumulate(Value::Int64(INT64_MAX)).ok());
  EXPECT_TRUE(a.Accumulate(Value::Int32(1)).IsOutOfRange());
}

TEST(AggregatorEdgeTest, AvgDoesNotUseTheIntAccumulator) {
  // AVG sums in double (its output type): INT64-extreme inputs must not
  // trip the SUM overflow check.
  Aggregator a(AggFunc::kAvg, DataType::kInt64);
  ASSERT_TRUE(a.Accumulate(Value::Int64(INT64_MAX)).ok());
  ASSERT_TRUE(a.Accumulate(Value::Int64(INT64_MAX)).ok());
  auto v = a.Finish();
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v->AsDouble(), static_cast<double>(INT64_MAX), 1e4);
}

TEST(AggregatorEdgeTest, CountStaysExactAndNonNegative) {
  // The internal counter is u64 with a checked narrowing to the INT64
  // result (a pathological > INT64_MAX count fails with OutOfRange rather
  // than going negative); normal counts round-trip exactly.
  Aggregator a(AggFunc::kCountStar, DataType::kInt32);
  for (int i = 0; i < 1000; ++i) a.AccumulateRow();
  auto v = a.Finish();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), DataType::kInt64);
  EXPECT_EQ(v->AsInt64(), 1000);
}

// --- SQL surface ---

TEST(GroupBySqlTest, ParsesGroupByAndAggregateOrderKeys) {
  auto stmt = sql::Parse(
      "SELECT t.a, t.b, COUNT(*), SUM(t.c) FROM t GROUP BY t.a, t.b "
      "ORDER BY COUNT(*) DESC, SUM(t.c), t.a LIMIT 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto& select = std::get<sql::SelectStmt>(*stmt);
  ASSERT_EQ(select.group_by.size(), 2u);
  EXPECT_EQ(select.group_by[0].ToString(), "t.a");
  EXPECT_EQ(select.group_by[1].ToString(), "t.b");
  ASSERT_EQ(select.order_by.size(), 3u);
  EXPECT_EQ(select.order_by[0].agg, AggFunc::kCountStar);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.order_by[1].agg, AggFunc::kSum);
  EXPECT_EQ(select.order_by[1].column.ToString(), "t.c");
  EXPECT_EQ(select.order_by[2].agg, AggFunc::kNone);
}

TEST(GroupBySqlTest, RejectsMalformedGroupBy) {
  EXPECT_FALSE(sql::Parse("SELECT t.a FROM t GROUP t.a").ok());
  EXPECT_FALSE(sql::Parse("SELECT t.a FROM t GROUP BY").ok());
  EXPECT_FALSE(sql::Parse("SELECT t.a FROM t GROUP BY SUM(t.a)").ok());
}

// --- End-to-end fixture ---

GhostDBConfig MakeConfig(uint32_t sort_budget_buffers = 0) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.retain_staged_data = true;
  cfg.exec.sort_budget_buffers = sort_budget_buffers;
  return cfg;
}

// Two-table schema exercising every key type: INT keys with few and many
// distinct values, a DOUBLE column holding exact +0.0 / -0.0 (the
// non-canonical-encoding edge), and a hidden BIGINT near the INT64
// extremes for the SUM overflow surface.
void BuildDb(GhostDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Dim (id INT, v INT, h INT HIDDEN)").ok());
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                  "v INT, d DOUBLE, h INT HIDDEN, bh BIGINT HIDDEN)")
          .ok());
  Rng rng(20260729);
  auto dim = db->MutableStaging("Dim");
  ASSERT_TRUE(dim.ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        (*dim)
            ->AppendRow({Value::Int32(static_cast<int32_t>(rng.Uniform(12))),
                         Value::Int32(static_cast<int32_t>(rng.Uniform(90)))})
            .ok());
  }
  auto fact = db->MutableStaging("Fact");
  ASSERT_TRUE(fact.ok());
  for (int i = 0; i < 800; ++i) {
    uint64_t zero_pick = rng.Uniform(6);
    Value d = zero_pick == 0 ? Value::Double(0.0)
              : zero_pick == 1
                  ? Value::Double(-0.0)
                  : Value::Double(static_cast<double>(rng.Uniform(7)) + 0.5);
    ASSERT_TRUE(
        (*fact)
            ->AppendRow(
                {Value::Int32(static_cast<int32_t>(rng.Uniform(60))),
                 Value::Int32(static_cast<int32_t>(rng.Uniform(40))),
                 std::move(d),
                 Value::Int32(static_cast<int32_t>(rng.Uniform(100))),
                 Value::Int64(INT64_MAX / 4 +
                              static_cast<int64_t>(rng.Uniform(1000)))})
            .ok());
  }
  ASSERT_TRUE(db->Build().ok());
}

class GroupAggE2eTest : public ::testing::Test {
 protected:
  GroupAggE2eTest() {
    db_ = std::make_unique<GhostDB>(MakeConfig());
    BuildDb(db_.get());
  }

  void ExpectMatchesOracle(const std::string& sql, GhostDB* db = nullptr) {
    if (db == nullptr) db = db_.get();
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound =
        sql::Bind(std::get<sql::SelectStmt>(*stmt), db->schema(), sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto expected = reference::Evaluate(db->schema(), db->staged(), *bound);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto got = db->Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
    EXPECT_EQ(got->total_rows, expected->size()) << sql;
    ASSERT_EQ(got->rows.size(), expected->size()) << sql;
    for (size_t i = 0; i < expected->size(); ++i) {
      ASSERT_EQ(got->rows[i].size(), (*expected)[i].size()) << sql;
      for (size_t j = 0; j < (*expected)[i].size(); ++j) {
        if ((*expected)[i][j].type() == DataType::kDouble) {
          EXPECT_NEAR(got->rows[i][j].AsDouble(),
                      (*expected)[i][j].AsDouble(), 1e-9)
              << sql << " row " << i << " col " << j;
        } else {
          EXPECT_EQ(got->rows[i][j], (*expected)[i][j])
              << sql << " row " << i << " col " << j;
        }
      }
    }
  }

  std::unique_ptr<GhostDB> db_;
};

TEST_F(GroupAggE2eTest, SingleKeySumMatchesOracle) {
  ExpectMatchesOracle(
      "SELECT Fact.v, SUM(Fact.h) FROM Fact WHERE Fact.h < 80 "
      "GROUP BY Fact.v");
}

TEST_F(GroupAggE2eTest, TwoKeysAcrossJoinWithOrderAndLimit) {
  ExpectMatchesOracle(
      "SELECT Fact.v, Dim.v, COUNT(*), MIN(Fact.h) FROM Fact, Dim WHERE "
      "Fact.fk = Dim.id AND Dim.h < 70 GROUP BY Fact.v, Dim.v "
      "ORDER BY Fact.v DESC, Dim.v LIMIT 9");
}

TEST_F(GroupAggE2eTest, OrderByAggregateOutputs) {
  ExpectMatchesOracle(
      "SELECT Fact.v, COUNT(*), AVG(Fact.h) FROM Fact GROUP BY Fact.v "
      "ORDER BY COUNT(*) DESC, AVG(Fact.h) LIMIT 6");
}

TEST_F(GroupAggE2eTest, EveryAggFuncGrouped) {
  ExpectMatchesOracle(
      "SELECT Fact.v, COUNT(*), COUNT(Fact.h), SUM(Fact.h), AVG(Fact.h), "
      "MIN(Fact.h), MAX(Fact.h) FROM Fact WHERE Fact.v < 30 "
      "GROUP BY Fact.v");
}

TEST_F(GroupAggE2eTest, DoubleKeyWithSignedZerosGroupsByValue) {
  // +0.0 and -0.0 encode differently but compare equal: they must land in
  // one group on both the engine and the oracle.
  ExpectMatchesOracle(
      "SELECT Fact.d, COUNT(*) FROM Fact GROUP BY Fact.d");
  // The same grouping on the key (the statement above is visible-only, so
  // the PC groups it; the always-true hidden predicate keeps this one on
  // the key).
  ExpectMatchesOracle(
      "SELECT Fact.d, COUNT(*) FROM Fact WHERE Fact.h >= 0 GROUP BY Fact.d");
  ExpectMatchesOracle(
      "SELECT Fact.d, SUM(Fact.h) FROM Fact WHERE Fact.h < 50 "
      "GROUP BY Fact.d ORDER BY Fact.d");
}

TEST_F(GroupAggE2eTest, GroupByHiddenKey) {
  ExpectMatchesOracle(
      "SELECT Fact.h, COUNT(*) FROM Fact WHERE Fact.v < 20 "
      "GROUP BY Fact.h ORDER BY COUNT(*) DESC, Fact.h LIMIT 10");
}

TEST_F(GroupAggE2eTest, GroupByWithoutAggregates) {
  // Pure key grouping: one row per distinct key, first-arrival order.
  ExpectMatchesOracle(
      "SELECT Fact.v FROM Fact WHERE Fact.h < 50 GROUP BY Fact.v");
}

TEST_F(GroupAggE2eTest, GroupedOverEmptyInputYieldsNoRows) {
  ExpectMatchesOracle(
      "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE Fact.h < 0 "
      "GROUP BY Fact.v");
  auto r = db_->Query(
      "SELECT Fact.v, COUNT(*) FROM Fact WHERE Fact.h < 0 GROUP BY Fact.v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_rows, 0u);
}

TEST_F(GroupAggE2eTest, EmptyInputSemanticsPerAggFunc) {
  // GhostDB has no NULLs: whole-result value aggregates over an empty
  // (all-filtered) input yield an empty result; COUNTs yield their zero
  // row. Both asserted directly and via the oracle.
  for (const char* agg : {"SUM(Fact.h)", "AVG(Fact.h)", "MIN(Fact.h)",
                          "MAX(Fact.h)", "MIN(Fact.d)", "MAX(Fact.bh)"}) {
    std::string sql = std::string("SELECT ") + agg +
                      " FROM Fact WHERE Fact.h < 0";
    SCOPED_TRACE(sql);
    ExpectMatchesOracle(sql);
    auto r = db_->Query(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->total_rows, 0u);
  }
  for (const char* agg : {"COUNT(*)", "COUNT(Fact.h)"}) {
    std::string sql = std::string("SELECT ") + agg +
                      " FROM Fact WHERE Fact.h < 0";
    SCOPED_TRACE(sql);
    ExpectMatchesOracle(sql);
    auto r = db_->Query(sql);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
  }
  // Mixed COUNT + value aggregate over empty input: the value aggregate
  // wins — no row.
  ExpectMatchesOracle(
      "SELECT COUNT(*), MIN(Fact.h) FROM Fact WHERE Fact.h < 0");
}

TEST_F(GroupAggE2eTest, SumOverflowSurfacesAsOutOfRangeInBothEngines) {
  // bh sits near INT64_MAX/4, so any SUM over >= 5 rows overflows; the
  // engine and the oracle must agree on the failure kind instead of
  // returning a silently wrapped total.
  const std::string sql = "SELECT SUM(Fact.bh) FROM Fact";
  auto got = db_->Query(sql);
  EXPECT_TRUE(got.status().IsOutOfRange()) << got.status().ToString();
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(std::get<sql::SelectStmt>(*stmt), db_->schema(),
                         sql);
  ASSERT_TRUE(bound.ok());
  auto expected = reference::Evaluate(db_->schema(), db_->staged(), *bound);
  EXPECT_TRUE(expected.status().IsOutOfRange())
      << expected.status().ToString();
  // Grouped SUM over the same column: per-group subtotals (~13 rows per
  // group) still overflow.
  auto grouped = db_->Query(
      "SELECT Fact.v, SUM(Fact.bh) FROM Fact GROUP BY Fact.v");
  EXPECT_TRUE(grouped.status().IsOutOfRange())
      << grouped.status().ToString();
  // MIN/MAX over the same extremes stay exact.
  ExpectMatchesOracle(
      "SELECT Fact.v, MIN(Fact.bh), MAX(Fact.bh) FROM Fact GROUP BY Fact.v");
}

TEST_F(GroupAggE2eTest, PlanShowsGroupAggregate) {
  auto explain = db_->Explain(
      "EXPLAIN SELECT Fact.v, COUNT(*) FROM Fact GROUP BY Fact.v");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("HashGroup"), std::string::npos) << *explain;
  // Planned afresh each time: a repeat answers alike.
  const std::string sql =
      "SELECT Fact.v, SUM(Fact.h) FROM Fact WHERE Fact.h < 42 "
      "GROUP BY Fact.v ORDER BY SUM(Fact.h) DESC LIMIT 4";
  auto r1 = db_->Query(sql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = db_->Query(sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows, r1->rows);
}

// --- Binder validation (needs the built schema) ---

TEST_F(GroupAggE2eTest, BinderValidatesGroupBy) {
  // Mixed aggregate/plain without GROUP BY.
  EXPECT_TRUE(db_->Query("SELECT Fact.v, COUNT(*) FROM Fact")
                  .status()
                  .IsNotSupported());
  // GROUP BY key not in the SELECT list.
  EXPECT_TRUE(db_->Query("SELECT COUNT(*) FROM Fact GROUP BY Fact.v")
                  .status()
                  .IsNotSupported());
  // Plain select item missing from GROUP BY.
  EXPECT_TRUE(db_->Query("SELECT Fact.v, Fact.h, COUNT(*) FROM Fact "
                         "GROUP BY Fact.v")
                  .status()
                  .IsInvalidArgument());
  // DISTINCT and SELECT * do not combine with GROUP BY.
  EXPECT_TRUE(db_->Query("SELECT DISTINCT Fact.v FROM Fact GROUP BY Fact.v")
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(db_->Query("SELECT * FROM Fact GROUP BY Fact.v")
                  .status()
                  .IsNotSupported());
  // Aggregate ORDER BY keys need GROUP BY and must be in the SELECT list.
  EXPECT_TRUE(db_->Query("SELECT Fact.v FROM Fact ORDER BY SUM(Fact.h)")
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(db_->Query("SELECT Fact.v, COUNT(*) FROM Fact GROUP BY "
                         "Fact.v ORDER BY SUM(Fact.h)")
                  .status()
                  .IsNotSupported());
  // Duplicate GROUP BY keys collapse instead of erroring.
  ExpectMatchesOracle(
      "SELECT Fact.v, COUNT(*) FROM Fact GROUP BY Fact.v, Fact.v");
}

// --- Hash path vs forced-spill path ---

std::vector<std::vector<std::string>> RenderedRows(
    const exec::QueryResult& r) {
  std::vector<std::vector<std::string>> out;
  for (const auto& row : r.rows) {
    std::vector<std::string> cells;
    for (const auto& v : row) cells.push_back(v.ToString());
    out.push_back(std::move(cells));
  }
  return out;
}

TEST(GroupAggSpillTest, HashAndSpillPathsProduceIdenticalResults) {
  GhostDB roomy(MakeConfig());          // hash path end to end
  GhostDB tiny(MakeConfig(/*sort_budget_buffers=*/1));  // forced overflow
  BuildDb(&roomy);
  BuildDb(&tiny);
  struct Case {
    const char* sql;
    bool spills;  ///< a 1-buffer budget forces the overflow path
  };
  for (const Case& c : {
           Case{"SELECT Fact.v, Fact.h, COUNT(*), SUM(Fact.h) FROM Fact "
                "GROUP BY Fact.v, Fact.h",
                true},
           Case{"SELECT Fact.v, SUM(Fact.h), AVG(Fact.h), MIN(Fact.h), "
                "MAX(Fact.h) FROM Fact WHERE Fact.h < 90 GROUP BY Fact.v",
                true},
           // The always-true hidden predicate keeps the statement on the
           // key (a visible-only one is answered by the PC, which never
           // spills).
           Case{"SELECT Fact.d, Fact.v, COUNT(*) FROM Fact WHERE Fact.h >= 0 "
                "GROUP BY Fact.d, Fact.v ORDER BY COUNT(*) DESC, Fact.v "
                "LIMIT 20",
                true},
           Case{"SELECT Fact.h, Fact.v FROM Fact GROUP BY Fact.h, Fact.v",
                true},
           // DISTINCT: all keys, no aggregates (signed-zero doubles too).
           Case{"SELECT DISTINCT Fact.v, Fact.h FROM Fact", true},
           Case{"SELECT DISTINCT Fact.d, Fact.v FROM Fact WHERE Fact.h < 90",
                true},
           // Keyless: the one group is never charged to the budget, so it
           // stays on the hash path under any budget.
           Case{"SELECT COUNT(*), SUM(Fact.h), MIN(Fact.d), MAX(Fact.h) "
                "FROM Fact",
                false},
           Case{"SELECT COUNT(Fact.h), AVG(Fact.h) FROM Fact WHERE "
                "Fact.v < 20",
                false},
       }) {
    SCOPED_TRACE(c.sql);
    auto r1 = roomy.Query(c.sql);
    auto r2 = tiny.Query(c.sql);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r1->metrics.sort_spill_runs, 0u)
        << "roomy budget must stay on the hash path";
    if (c.spills) {
      EXPECT_GT(r2->metrics.sort_spill_runs, 0u)
          << "1-buffer budget must force the overflow path";
    } else {
      EXPECT_EQ(r2->metrics.sort_spill_runs, 0u)
          << "a keyless aggregate never spills";
    }
    EXPECT_EQ(r1->total_rows, r2->total_rows);
    // Byte-identical rendering: same groups, same order, same values.
    EXPECT_EQ(RenderedRows(*r1), RenderedRows(*r2));
  }
}

TEST(GroupAggSpillTest, GroupByWithoutAggregatesMatchesDistinct) {
  // GROUP BY over every select item with no aggregates is DISTINCT: the
  // same rows in the same order, and the same streaming, budget charge and
  // spill work — with and without a LIMIT that stops pulling early.
  GhostDB db(MakeConfig(/*sort_budget_buffers=*/1));
  BuildDb(&db);
  for (const char* tail : {"", " LIMIT 7"}) {
    const std::string distinct =
        std::string("SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE "
                    "Fact.h < 80") +
        tail;
    const std::string grouped =
        std::string("SELECT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80 "
                    "GROUP BY Fact.v, Fact.h") +
        tail;
    SCOPED_TRACE(grouped);
    auto d = db.Query(distinct);
    auto g = db.Query(grouped);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_GT(d->metrics.sort_spill_runs, 0u) << "DISTINCT did not spill";
    EXPECT_EQ(RenderedRows(*g), RenderedRows(*d));
    EXPECT_EQ(g->total_rows, d->total_rows);
    EXPECT_EQ(g->metrics.sort_spill_runs, d->metrics.sort_spill_runs);
    EXPECT_EQ(g->metrics.sort_spill_pages, d->metrics.sort_spill_pages);
    EXPECT_EQ(g->metrics.flash.pages_written, d->metrics.flash.pages_written);
  }
}

TEST(GroupAggSpillTest, SmallGroupTableServesOnHashPath) {
  // A group table that fits a single buffer never spills.
  GhostDB db(MakeConfig(/*sort_budget_buffers=*/1));
  BuildDb(&db);
  // Dim.h >= 0 is always true: it keeps the grouping on the key.
  auto small = db.Query(
      "SELECT Dim.v, COUNT(*) FROM Dim WHERE Dim.v < 3 AND Dim.h >= 0 "
      "GROUP BY Dim.v");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_GT(small->total_rows, 0u);
  EXPECT_EQ(small->metrics.sort_spill_runs, 0u);
}

TEST(GroupAggSpillTest, ForcedSpillStaysOracleExact) {
  GhostDB tiny(MakeConfig(/*sort_budget_buffers=*/1));
  BuildDb(&tiny);
  for (const char* sql : {
           "SELECT Fact.v, Fact.h, SUM(Fact.h), COUNT(*) FROM Fact "
           "GROUP BY Fact.v, Fact.h ORDER BY Fact.v, Fact.h",
           "SELECT Fact.d, MIN(Fact.h), MAX(Fact.h) FROM Fact "
           "GROUP BY Fact.d ORDER BY Fact.d DESC",
           "SELECT Fact.v, AVG(Fact.h) FROM Fact GROUP BY Fact.v "
           "ORDER BY AVG(Fact.h) DESC LIMIT 5",
       }) {
    SCOPED_TRACE(sql);
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok());
    auto bound =
        sql::Bind(std::get<sql::SelectStmt>(*stmt), tiny.schema(), sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto expected =
        reference::Evaluate(tiny.schema(), tiny.staged(), *bound);
    ASSERT_TRUE(expected.ok());
    auto got = tiny.Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->rows.size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      for (size_t j = 0; j < (*expected)[i].size(); ++j) {
        if ((*expected)[i][j].type() == DataType::kDouble) {
          EXPECT_NEAR(got->rows[i][j].AsDouble(),
                      (*expected)[i][j].AsDouble(), 1e-9);
        } else {
          EXPECT_EQ(got->rows[i][j], (*expected)[i][j]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ghostdb
