// Operator-pipeline tests: the new end-to-end SQL surface (ORDER BY /
// LIMIT / DISTINCT) checked against the reference oracle on the Fig 3
// schema, plus the servable API — per-statement planning and QueryBatch()
// throughput execution.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "exec/executor.h"
#include "plan/planner.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::BatchResult;
using core::GhostDB;
using core::GhostDBConfig;

// The paper's Fig 3 tree with deterministic random data:
//   T0(2000) -> T1(400) -> {T11(80), T12(60)}, T0 -> T2(100)
class OperatorPipelineTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kT0 = 2000, kT1 = 400, kT2 = 100, kT11 = 80,
                            kT12 = 60;

  void BuildDb(GhostDB* db, uint64_t seed = 42) {
    ASSERT_TRUE(db->Execute("CREATE TABLE T11 (id INT, v INT, h INT HIDDEN)")
                    .ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE T12 (id INT, v INT, h INT HIDDEN)")
                    .ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE T2 (id INT, v INT, h INT HIDDEN)")
                    .ok());
    ASSERT_TRUE(
        db->Execute("CREATE TABLE T1 (id INT, fk11 INT REFERENCES T11 "
                    "HIDDEN, fk12 INT REFERENCES T12 HIDDEN, v INT, "
                    "vs CHAR(8), h INT HIDDEN)")
            .ok());
    ASSERT_TRUE(
        db->Execute("CREATE TABLE T0 (id INT, fk1 INT REFERENCES T1 HIDDEN, "
                    "fk2 INT REFERENCES T2 HIDDEN, v INT, h INT HIDDEN, "
                    "hs CHAR(8) HIDDEN)")
            .ok());

    Rng rng(seed);
    auto rint = [&](int bound) {
      return Value::Int32(static_cast<int32_t>(rng.Uniform(bound)));
    };
    auto rstr = [&](const char* prefix) {
      return Value::String(std::string(prefix) +
                           std::to_string(rng.Uniform(50)));
    };
    auto stage = [&](const char* name, uint32_t n, auto make_row) {
      auto data = db->MutableStaging(name);
      ASSERT_TRUE(data.ok());
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE((*data)->AppendRow(make_row(i)).ok());
      }
    };
    stage("T11", kT11, [&](uint32_t) {
      return std::vector<Value>{rint(100), rint(100)};
    });
    stage("T12", kT12, [&](uint32_t) {
      return std::vector<Value>{rint(100), rint(100)};
    });
    stage("T2", kT2, [&](uint32_t) {
      return std::vector<Value>{rint(100), rint(100)};
    });
    stage("T1", kT1, [&](uint32_t) {
      return std::vector<Value>{rint(kT11), rint(kT12), rint(100),
                                rstr("s"), rint(100)};
    });
    stage("T0", kT0, [&](uint32_t) {
      return std::vector<Value>{rint(kT1), rint(kT2), rint(100), rint(100),
                                rstr("h")};
    });
    ASSERT_TRUE(db->Build().ok());
  }

  GhostDBConfig SmallConfig() {
    GhostDBConfig cfg;
    cfg.device.flash.logical_pages = 32 * 1024;
    cfg.retain_staged_data = true;
    return cfg;
  }

  /// `row_limit`: the database's result_row_limit — the total counts
  /// every row, the first `row_limit` rows are materialized.
  void ExpectMatchesOracle(GhostDB* db, const std::string& sql,
                           uint64_t row_limit = UINT64_MAX) {
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound =
        sql::Bind(std::get<sql::SelectStmt>(*stmt), db->schema(), sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto expected = reference::Evaluate(db->schema(), db->staged(), *bound);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto got = db->Query(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    ASSERT_EQ(got->total_rows, expected->size()) << sql;
    ASSERT_EQ(got->rows.size(),
              std::min<uint64_t>(row_limit, expected->size()))
        << sql;
    for (size_t i = 0; i < got->rows.size(); ++i) {
      ASSERT_EQ(got->rows[i].size(), (*expected)[i].size());
      for (size_t j = 0; j < (*expected)[i].size(); ++j) {
        ASSERT_EQ(got->rows[i][j], (*expected)[i][j])
            << sql << " row " << i << " col " << j;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// ORDER BY / LIMIT / DISTINCT end-to-end vs the oracle
// ---------------------------------------------------------------------------

TEST_F(OperatorPipelineTest, OrderByVisibleAscending) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T1.id, T1.v FROM T1 WHERE T1.h < 40 ORDER BY T1.v");
}

TEST_F(OperatorPipelineTest, OrderByHiddenDescending) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T12.id, T12.h FROM T12 WHERE T12.h < 70 "
           "ORDER BY T12.h DESC");
}

TEST_F(OperatorPipelineTest, OrderByMultipleKeys) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T1.v, T1.h, T1.id FROM T1 WHERE T1.h < 60 "
                      "ORDER BY T1.v ASC, T1.h DESC");
}

TEST_F(OperatorPipelineTest, OrderByStringColumn) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T1.id, T1.vs FROM T1 WHERE T1.h < 30 ORDER BY T1.vs");
}

TEST_F(OperatorPipelineTest, OrderByAcrossJoin) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T1.v FROM T0, T1 WHERE "
                      "T0.fk1 = T1.id AND T1.h < 25 ORDER BY T1.v DESC");
}

TEST_F(OperatorPipelineTest, LimitTruncatesAndCountsExactly) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T0.id FROM T0 WHERE T0.h < 80 LIMIT 7");
  auto r = db.Query("SELECT T0.id FROM T0 WHERE T0.h < 80 LIMIT 7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_rows, 7u);
  EXPECT_EQ(r->rows.size(), 7u);
}

TEST_F(OperatorPipelineTest, LimitLargerThanResultIsHarmless) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T12.id FROM T12 WHERE T12.h = 17 LIMIT 1000");
}

TEST_F(OperatorPipelineTest, Distinct) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT DISTINCT T1.v FROM T1 WHERE T1.h < 50");
}

TEST_F(OperatorPipelineTest, DistinctAcrossJoin) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT DISTINCT T1.v FROM T0, T1 WHERE "
                      "T0.fk1 = T1.id AND T0.v < 40 AND T1.h < 60");
}

TEST_F(OperatorPipelineTest, DistinctOrderByLimitComposed) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT DISTINCT T1.v FROM T1 WHERE T1.h < 70 "
                      "ORDER BY T1.v DESC LIMIT 5");
}

TEST_F(OperatorPipelineTest, OrderByLimitAcrossThreeWayJoin) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T1.v, T12.h FROM T0, T1, T12 WHERE "
                      "T0.fk1 = T1.id AND T1.fk12 = T12.id AND T1.v < 30 "
                      "AND T12.h < 40 ORDER BY T12.h, T0.id LIMIT 20");
}

TEST_F(OperatorPipelineTest, AggregateWithLimitStillOneRow) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT COUNT(*), MIN(T1.v) FROM T1 WHERE T1.h < 45 LIMIT 3");
}

TEST_F(OperatorPipelineTest, OrderByMustReferenceSelectList) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto r = db.Query("SELECT T1.id FROM T1 WHERE T1.h < 40 ORDER BY T1.v");
  EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
}

TEST_F(OperatorPipelineTest, DistinctOverAggregatesRejected) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto r = db.Query("SELECT DISTINCT COUNT(*) FROM T1");
  EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
}

TEST_F(OperatorPipelineTest, ExplainShowsPipeline) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto text = db.Explain(
      "SELECT DISTINCT T1.v FROM T1 WHERE T1.v < 50 AND T1.h < 40 "
      "ORDER BY T1.v LIMIT 4");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("pipeline"), std::string::npos);
  EXPECT_NE(text->find("Sort top 4"), std::string::npos);
  EXPECT_NE(text->find("HashGroup"), std::string::npos);
  EXPECT_NE(text->find("SJoin"), std::string::npos);
  EXPECT_NE(text->find("VisSelect"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Visible-only statements: Untrusted answers, the key receives the result
// ---------------------------------------------------------------------------

sql::BoundQuery BindOrDie(const GhostDB& db, const std::string& sql) {
  auto stmt = sql::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto bound = sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(), sql);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? *bound : sql::BoundQuery{};
}

TEST_F(OperatorPipelineTest, TouchesHiddenClassifiesByQueryShape) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  struct Case {
    const char* sql;
    bool touches;
  };
  for (const Case& c : {
           Case{"SELECT T0.id, T0.v FROM T0 WHERE T0.v < 10", false},
           Case{"SELECT COUNT(*) FROM T0 WHERE T0.id < 100", false},
           Case{"SELECT T1.vs, COUNT(*), MAX(T1.v) FROM T1 GROUP BY T1.vs "
                "ORDER BY T1.vs",
                false},
           Case{"SELECT DISTINCT T2.v FROM T2 LIMIT 3", false},
           Case{"SELECT T0.id FROM T0 WHERE T0.h < 10", true},
           Case{"SELECT T0.v, T0.h FROM T0", true},
           Case{"SELECT SUM(T0.h) FROM T0 WHERE T0.v < 5", true},
           Case{"SELECT T0.hs, COUNT(*) FROM T0 GROUP BY T0.hs", true},
           Case{"SELECT T0.id, T1.v FROM T0, T1 WHERE T0.fk1 = T1.id", true},
       }) {
    SCOPED_TRACE(c.sql);
    EXPECT_EQ(BindOrDie(db, c.sql).TouchesHidden(db.schema()), c.touches);
  }
  // A table declared HIDDEN: even a statement over its ids touches it.
  GhostDB hidden(SmallConfig());
  ASSERT_TRUE(hidden.Execute("CREATE TABLE H (id INT, x INT) HIDDEN").ok());
  ASSERT_TRUE(hidden.Execute("INSERT INTO H VALUES (3)").ok());
  ASSERT_TRUE(hidden.Build().ok());
  EXPECT_TRUE(BindOrDie(hidden, "SELECT H.id FROM H WHERE H.id < 5")
                  .TouchesHidden(hidden.schema()));
}

TEST_F(OperatorPipelineTest, ExplainShowsWhichNodesRunOnUntrusted) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto grouped = db.Explain(
      "SELECT T1.v, COUNT(*) FROM T1 WHERE T1.v < 50 GROUP BY T1.v "
      "ORDER BY COUNT(*) DESC LIMIT 5");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_NE(grouped->find("visible-only"), std::string::npos) << *grouped;
  EXPECT_NE(grouped->find("keyed by position"), std::string::npos);
  EXPECT_NE(grouped->find("-> VisResult\n"), std::string::npos) << *grouped;
  EXPECT_NE(grouped->find("Sort top 5 [Untrusted]"), std::string::npos);
  EXPECT_NE(grouped->find("HashGroup [Untrusted]"), std::string::npos);
  EXPECT_NE(grouped->find("VisProject [Untrusted]"), std::string::npos);
  EXPECT_EQ(grouped->find("VisSelect"), std::string::npos);
  auto scan = db.Explain("SELECT T0.id, T0.v FROM T0 WHERE T0.v < 50 LIMIT 5");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_NE(scan->find("keyed by anchor id"), std::string::npos) << *scan;
  // A hidden-touching statement runs every node on the key.
  auto hidden = db.Explain("SELECT T0.id FROM T0 WHERE T0.h < 5 LIMIT 5");
  ASSERT_TRUE(hidden.ok()) << hidden.status().ToString();
  EXPECT_EQ(hidden->find("[Untrusted]"), std::string::npos) << *hidden;
}

TEST_F(OperatorPipelineTest, VisibleOnlyStatementsShipOnlyTheResult) {
  // Whatever the tail, the key hears the query text, then one vis-result
  // message: no vis-count, no Vis id list, no projection payload, no
  // flash. Every answer is the oracle's.
  GhostDBConfig cfg = SmallConfig();
  cfg.exec.result_row_limit = 40;  // the scans below return more rows
  GhostDB db(cfg);
  BuildDb(&db);
  for (const char* sql : {
           "SELECT T0.v, T0.id FROM T0 WHERE T0.v < 60",
           "SELECT T0.id FROM T0 WHERE T0.v >= 20 LIMIT 9",
           "SELECT T0.id, T0.v FROM T0 WHERE T0.v < 70 ORDER BY T0.v DESC "
           "LIMIT 12",
           "SELECT T1.vs, T1.v FROM T1 WHERE T1.v < 30 ORDER BY T1.vs",
           "SELECT DISTINCT T1.vs FROM T1",
           "SELECT T1.vs, COUNT(*), SUM(T1.v), MIN(T1.id) FROM T1 "
           "GROUP BY T1.vs",
           "SELECT COUNT(*), AVG(T2.v) FROM T2 WHERE T2.v > 50",
           "SELECT COUNT(*) FROM T2 WHERE T2.v > 1000",
           "SELECT T12.id FROM T12 WHERE T12.v > 1000",
           "SELECT T0.id FROM T0 LIMIT 0",
           "SELECT T2.v, COUNT(*) FROM T2 GROUP BY T2.v ORDER BY T2.v "
           "LIMIT 0",
       }) {
    SCOPED_TRACE(sql);
    ExpectMatchesOracle(&db, sql, cfg.exec.result_row_limit);
    db.device().channel().ClearTranscript();
    auto r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& transcript = db.device().channel().transcript();
    ASSERT_EQ(transcript.size(), 2u);
    EXPECT_EQ(transcript[0].label, "query");
    const sql::BoundQuery bound = BindOrDie(db, sql);
    EXPECT_EQ(transcript[1].label,
              "vis-result:" + db.schema().table(bound.anchor).name);
    EXPECT_EQ(r->metrics.flash.pages_read, 0u);
    EXPECT_EQ(r->metrics.flash.pages_written, 0u);
    EXPECT_EQ(r->metrics.qepsj_rows, 0u);
    EXPECT_EQ(r->metrics.padding_rows, 0u);
    EXPECT_EQ(r->metrics.observed_volume, r->total_rows);
    EXPECT_EQ(r->metrics.result_rows, r->total_rows);
  }
}

TEST_F(OperatorPipelineTest, UntrustedTailRunNeverReachesTheDevice) {
  // The device-free tail run's invariant is asserted, not assumed: a plan
  // that is not visible-only is refused, a device-free context cannot
  // build a key-side operator, and a tail that would spill fails with
  // Internal instead of touching secure state.
  GhostDB db(SmallConfig());
  BuildDb(&db);
  plan::Planner planner(&db.schema(), &db.store(), plan::PlannerConfig{});
  const exec::ExecConfig config;
  const sql::BoundQuery hidden =
      BindOrDie(db, "SELECT T0.id FROM T0 WHERE T0.h < 9 ORDER BY T0.id");
  const plan::PhysicalPlan hidden_plan =
      planner.PlanQuery(hidden, {}, config);
  EXPECT_TRUE(exec::RunUntrustedTail(hidden, hidden_plan, db.schema(), {})
                  .status()
                  .IsInternal());

  const sql::BoundQuery sorted =
      BindOrDie(db, "SELECT T0.id, T0.v FROM T0 WHERE T0.v < 90 "
                    "ORDER BY T0.v");
  const plan::PhysicalPlan plan =
      planner.LowerPlan(sorted, plan::PlanChoice{}, config);
  ASSERT_TRUE(plan.visible_only());
  EXPECT_FALSE(plan.result_keyed_by_id());
  // The PC's slice is already the projection layout here ([id | v]).
  auto slice = db.untrusted().ProjectStatement(sorted);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_GT(slice->rows, 100u);
  exec::GatherInput input;
  input.rows.layout = plan.value_layout;
  input.rows.cells = slice->bytes;
  input.rows.row_count = slice->rows;
  exec::QueryMetrics metrics;
  exec::ExecContext ctx;
  ctx.schema = &db.schema();
  ctx.config = &config;
  ctx.query = &sorted;
  ctx.choice = &plan.choice;
  ctx.metrics = &metrics;
  ctx.value_layout = &plan.value_layout;
  ctx.batch_rows = plan.batch_rows;
  // The whole plan includes the key's VisResult.
  EXPECT_TRUE(exec::BuildOperatorTree(&ctx, plan).status().IsInternal());
  ctx.gather_rows = &input;
  // Its tail, under a budget of one row, would spill.
  ctx.sort_budget_bytes = 1;
  plan::PhysicalPlan tail = plan;
  tail.root = plan.nodes[plan.root].children[0];
  auto root = exec::BuildOperatorTree(&ctx, tail);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE((*root)->Open().ok());
  auto batch = (*root)->Next();
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInternal()) << batch.status().ToString();
  EXPECT_NE(batch.status().message().find("device-free"), std::string::npos);
  EXPECT_TRUE((*root)->Close().ok());
  // The real run, with its unbounded budget, succeeds.
  std::vector<untrusted::ProjectionPayload> slices;
  slices.push_back(*slice);
  auto rows =
      exec::RunUntrustedTail(sorted, plan, db.schema(), std::move(slices));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows, slice->rows);
}

// ---------------------------------------------------------------------------
// Per-statement planning
// ---------------------------------------------------------------------------

TEST_F(OperatorPipelineTest, RepeatedStatementRepeatsItsCosts) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  const char* sql = "SELECT T1.id FROM T1 WHERE T1.v < 30 AND T1.h < 40";
  auto first = db.Query(sql);
  ASSERT_TRUE(first.ok());
  auto again = db.Query(sql);
  ASSERT_TRUE(again.ok());
  // The repeat plans afresh: same answer, same vis-count exchange, same
  // bytes to Secure.
  EXPECT_EQ(again->rows, first->rows);
  EXPECT_EQ(again->total_rows, first->total_rows);
  EXPECT_EQ(again->metrics.bytes_to_secure, first->metrics.bytes_to_secure);
}

TEST_F(OperatorPipelineTest, EachStatementBindsItsOwnLimitLiteral) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto r3 = db.Query("SELECT T0.id FROM T0 WHERE T0.h < 90 LIMIT 3");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->total_rows, 3u);
  // Same shape, different LIMIT literal: the earlier statement's limit
  // must not carry over.
  auto r9 = db.Query("SELECT T0.id FROM T0 WHERE T0.h < 90 LIMIT 9");
  ASSERT_TRUE(r9.ok());
  EXPECT_EQ(r9->total_rows, 9u);
}

TEST_F(OperatorPipelineTest, PinnedPlanServesTheVisCounts) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  const char* sql = "SELECT T1.id FROM T1 WHERE T1.v < 30 AND T1.h < 40";
  db.device().channel().ClearTranscript();
  plan::PlanChoice pinned;
  auto r = db.QueryWithPlan(sql, pinned);
  ASSERT_TRUE(r.ok());
  // A pinned run serves the planner's vis-count exchange, so its costs
  // stay comparable with a planner run, and it answers alike.
  bool counted = false;
  for (const auto& m : db.device().channel().transcript()) {
    counted = counted || m.label == "vis-count:T1";
  }
  EXPECT_TRUE(counted);
  auto planned = db.Query(sql);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(r->rows, planned->rows);
}

TEST_F(OperatorPipelineTest, InterleavedShapesAnswerLikeTheOracle) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  const char* a = "SELECT T1.id FROM T1 WHERE T1.v < 10 AND T1.h < 20";
  const char* b = "SELECT T12.id FROM T12 WHERE T12.h = 3";
  const char* c = "SELECT T0.id FROM T0 WHERE T0.h < 50";
  for (const char* sql : {a, b, a, c, a}) {
    ASSERT_TRUE(db.Query(sql).ok()) << sql;
  }
  auto expected = reference::Evaluate(
      db.schema(), db.staged(),
      *sql::Bind(std::get<sql::SelectStmt>(*sql::Parse(b)), db.schema(), b));
  ASSERT_TRUE(expected.ok());
  auto rb = db.Query(b);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->rows, *expected);
}

// ---------------------------------------------------------------------------
// QueryBatch(): the throughput surface
// ---------------------------------------------------------------------------

TEST_F(OperatorPipelineTest, QueryBatchOf100MixedStatements) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  // 100 statements over 5 shapes with rotating literals.
  std::vector<std::string> sqls;
  for (int i = 0; i < 100; ++i) {
    switch (i % 5) {
      case 0:
        sqls.push_back("SELECT T1.id FROM T1 WHERE T1.v < " +
                       std::to_string(5 + i % 60) + " AND T1.h < 40");
        break;
      case 1:
        sqls.push_back("SELECT T12.id, T12.h FROM T12 WHERE T12.h < " +
                       std::to_string(10 + i % 50));
        break;
      case 2:
        sqls.push_back("SELECT T0.id, T1.v FROM T0, T1 WHERE "
                       "T0.fk1 = T1.id AND T1.v < " +
                       std::to_string(20 + i % 40) + " AND T1.h < 30");
        break;
      case 3:
        sqls.push_back("SELECT DISTINCT T1.v FROM T1 WHERE T1.h < " +
                       std::to_string(30 + i % 30) +
                       " ORDER BY T1.v LIMIT 10");
        break;
      default:
        sqls.push_back("SELECT COUNT(*) FROM T0 WHERE T0.v < " +
                       std::to_string(15 + i % 70));
        break;
    }
  }
  auto batch = db.QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), 100u);
  // Batch-wide costs come from one baseline.
  EXPECT_GT(batch->total.total_ns, 0u);
  EXPECT_GT(batch->total.bytes_to_untrusted, 0u);

  // Every statement's answer equals a standalone Query() on a fresh
  // database (the batch path changes costs, never answers).
  GhostDB fresh(SmallConfig());
  BuildDb(&fresh);
  for (size_t i = 0; i < sqls.size(); i += 17) {
    auto solo = fresh.Query(sqls[i]);
    ASSERT_TRUE(solo.ok());
    ASSERT_EQ(solo->total_rows, batch->results[i].total_rows) << sqls[i];
    ASSERT_EQ(solo->rows, batch->results[i].rows) << sqls[i];
  }
}

TEST_F(OperatorPipelineTest, QueryBatchMatchesOracle) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  std::vector<std::string> sqls = {
      "SELECT T1.id, T1.v FROM T1 WHERE T1.h < 40 ORDER BY T1.v DESC",
      "SELECT DISTINCT T12.v FROM T12 WHERE T12.h < 50",
      "SELECT T0.id FROM T0 WHERE T0.h < 60 LIMIT 12",
  };
  auto batch = db.QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto stmt = sql::Parse(sqls[i]);
    ASSERT_TRUE(stmt.ok());
    auto bound = sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(),
                           sqls[i]);
    ASSERT_TRUE(bound.ok());
    auto expected = reference::Evaluate(db.schema(), db.staged(), *bound);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(batch->results[i].rows, *expected) << sqls[i];
  }
}

}  // namespace
}  // namespace ghostdb
