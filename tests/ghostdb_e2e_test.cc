// End-to-end tests: full SQL queries through GhostDB, answers checked
// against the reference oracle, under every strategy and projection
// algorithm. Also covers RAM-budget, temp-space, and metric invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "plan/strategy.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/synthetic.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;
using plan::PlanChoice;
using plan::ProjectAlgo;
using plan::VisStrategy;

// Builds the paper's Fig 3 tree with deterministic random data.
//   T0(2000) -> T1(400) -> {T11(80), T12(60)}, T0 -> T2(100)
// Columns: per table a visible int v, a hidden int h; T1 adds a visible
// string vs; T0 adds a hidden string hs. All FKs hidden.
class E2eTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kT0 = 2000, kT1 = 400, kT2 = 100, kT11 = 80,
                            kT12 = 60;

  void BuildDb(GhostDB* db, uint64_t seed = 42, bool hidden_tweak = false) {
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
    int tweak = hidden_tweak ? 1000000 : 0;
    auto rhid = [&](int bound) {
      return Value::Int32(static_cast<int32_t>(rng.Uniform(bound)) + tweak);
    };

    auto stage = [&](const char* name, uint32_t n, auto make_row) {
      auto data = db->MutableStaging(name);
      ASSERT_TRUE(data.ok());
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE((*data)->AppendRow(make_row(i)).ok());
      }
    };
    stage("T11", kT11, [&](uint32_t) {
      return std::vector<Value>{rint(100), rhid(100)};
    });
    stage("T12", kT12, [&](uint32_t) {
      return std::vector<Value>{rint(100), rhid(100)};
    });
    stage("T2", kT2, [&](uint32_t) {
      return std::vector<Value>{rint(100), rhid(100)};
    });
    stage("T1", kT1, [&](uint32_t) {
      return std::vector<Value>{rint(kT11), rint(kT12), rint(100),
                                rstr("s"), rhid(100)};
    });
    stage("T0", kT0, [&](uint32_t) {
      return std::vector<Value>{rint(kT1), rint(kT2), rint(100), rhid(100),
                                rstr("h")};
    });
    ASSERT_TRUE(db->Build().ok());
  }

  GhostDBConfig SmallConfig() {
    GhostDBConfig cfg;
    cfg.device.flash.logical_pages = 32 * 1024;  // 64 MiB
    cfg.retain_staged_data = true;
    return cfg;
  }

  // Runs `sql` through GhostDB (optionally pinned) and the oracle; expects
  // identical rows.
  void ExpectMatchesOracle(GhostDB* db, const std::string& sql,
                           const PlanChoice* pinned = nullptr,
                           uint64_t* rows_out = nullptr) {
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound =
        sql::Bind(std::get<sql::SelectStmt>(*stmt), db->schema(), sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto expected =
        reference::Evaluate(db->schema(), db->staged(), *bound);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto got = pinned ? db->QueryWithPlan(sql, *pinned) : db->Query(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    ASSERT_EQ(got->total_rows, expected->size()) << sql;
    ASSERT_EQ(got->rows.size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      ASSERT_EQ(got->rows[i].size(), (*expected)[i].size());
      for (size_t j = 0; j < (*expected)[i].size(); ++j) {
        ASSERT_EQ(got->rows[i][j], (*expected)[i][j])
            << sql << " row " << i << " col " << j;
      }
    }
    if (rows_out != nullptr) *rows_out = got->total_rows;
  }
};

TEST_F(E2eTest, SingleTableHiddenEquality) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T12.id FROM T12 WHERE T12.h = 17");
}

TEST_F(E2eTest, SingleTableHiddenRange) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T12.id FROM T12 WHERE T12.h < 30");
}

TEST_F(E2eTest, SingleTableVisibleOnly) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T1.id FROM T1 WHERE T1.v = 5");
}

TEST_F(E2eTest, SingleTableMixedPredicates) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T1.id FROM T1 WHERE T1.v < 50 AND T1.h >= 40");
}

TEST_F(E2eTest, SingleTableStarProjection) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT * FROM T12 WHERE T12.h < 25");
}

TEST_F(E2eTest, PaperQueryQ) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  uint64_t rows = 0;
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T1.id, T12.id, T1.v FROM T0, T1, T12 "
                      "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND "
                      "T1.v < 30 AND T12.h < 20",
                      nullptr, &rows);
  EXPECT_GT(rows, 0u);
}

TEST_F(E2eTest, ThreeWayJoinRootSelection) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id FROM T0, T1, T12 WHERE T0.fk1 = T1.id "
                      "AND T1.fk12 = T12.id AND T1.v < 40 AND T12.h = 9 "
                      "AND T0.h < 50");
}

TEST_F(E2eTest, SubtreeQueryAnchoredAtT1) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T1.id, T12.id FROM T1, T12 WHERE "
                      "T1.fk12 = T12.id AND T1.v < 20 AND T12.h < 35");
}

TEST_F(E2eTest, JoinWithNoPredicates) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T0.id, T2.id FROM T0, T2 WHERE T0.fk2 = T2.id");
}

TEST_F(E2eTest, HiddenOnlyPredicates) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND "
                      "T1.h = 3");
}

TEST_F(E2eTest, NotEqualPredicate) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T12.id FROM T12 WHERE T12.h <> 50 AND T12.h < 55");
}

TEST_F(E2eTest, BetweenPredicate) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T1.id FROM T1 WHERE T1.h BETWEEN 20 AND 29");
}

TEST_F(E2eTest, StringPredicateAndProjection) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(
      &db, "SELECT T1.id, T1.vs FROM T1 WHERE T1.vs = 's7' AND T1.h < 80");
}

TEST_F(E2eTest, HiddenStringProjection) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T0.hs FROM T0, T1 WHERE "
                      "T0.fk1 = T1.id AND T1.h < 10");
}

TEST_F(E2eTest, FourTableJoin) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T11.id, T12.id FROM T0, T1, T11, T12 "
                      "WHERE T0.fk1 = T1.id AND T1.fk11 = T11.id AND "
                      "T1.fk12 = T12.id AND T11.h < 40 AND T12.h < 40 AND "
                      "T0.v < 50");
}

TEST_F(E2eTest, ProjectionFromEveryLevel) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db,
                      "SELECT T0.v, T0.h, T1.vs, T1.h, T12.v, T12.h "
                      "FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND "
                      "T1.fk12 = T12.id AND T1.v < 25 AND T12.h < 30");
}

// Every visible strategy must give the same (oracle) answer.
class StrategyTest : public E2eTest,
                     public ::testing::WithParamInterface<VisStrategy> {};

TEST_P(StrategyTest, PaperQueryUnderStrategy) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto t1 = db.schema().FindTable("T1");
  ASSERT_TRUE(t1.ok());
  PlanChoice plan;
  plan.vis[*t1] = GetParam();
  plan.project = ProjectAlgo::kProject;
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T1.id, T12.id, T1.v FROM T0, T1, T12 "
                      "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND "
                      "T1.v < 30 AND T12.h < 20",
                      &plan);
}

TEST_P(StrategyTest, HighSelectivityUnderStrategy) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto t1 = db.schema().FindTable("T1");
  ASSERT_TRUE(t1.ok());
  PlanChoice plan;
  plan.vis[*t1] = GetParam();
  plan.project = ProjectAlgo::kProject;
  // sV ≈ 0.9: stresses bloom degradation and post paths.
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T1.v FROM T0, T1, T12 WHERE "
                      "T0.fk1 = T1.id AND T1.fk12 = T12.id AND "
                      "T1.v < 90 AND T12.h < 50",
                      &plan);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(VisStrategy::kPreFilter, VisStrategy::kCrossPreFilter,
                      VisStrategy::kPostFilter,
                      VisStrategy::kCrossPostFilter,
                      VisStrategy::kPostSelect, VisStrategy::kNoFilter),
    [](const ::testing::TestParamInfo<VisStrategy>& info) {
      std::string name(plan::VisStrategyName(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Every projection algorithm must give the same answer.
class ProjectionTest : public E2eTest,
                       public ::testing::WithParamInterface<ProjectAlgo> {};

TEST_P(ProjectionTest, ValuesFromAllTables) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto t1 = db.schema().FindTable("T1");
  ASSERT_TRUE(t1.ok());
  PlanChoice plan;
  plan.vis[*t1] = VisStrategy::kCrossPostFilter;
  plan.project = GetParam();
  ExpectMatchesOracle(&db,
                      "SELECT T0.id, T0.h, T1.vs, T12.v, T12.h FROM "
                      "T0, T1, T12 WHERE T0.fk1 = T1.id AND "
                      "T1.fk12 = T12.id AND T1.v < 35 AND T12.h < 45",
                      &plan);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ProjectionTest,
    ::testing::Values(ProjectAlgo::kProject, ProjectAlgo::kProjectNoBF,
                      ProjectAlgo::kBruteForce),
    [](const ::testing::TestParamInfo<ProjectAlgo>& info) {
      std::string name(plan::ProjectAlgoName(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST_F(E2eTest, RamBudgetNeverExceeded) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto r = db.Query(
      "SELECT T0.id, T1.v FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND "
      "T1.fk12 = T12.id AND T1.v < 70 AND T12.h < 50");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->metrics.peak_ram_buffers, 32u);
  EXPECT_GT(r->metrics.peak_ram_buffers, 0u);
}

TEST_F(E2eTest, MetricsArePopulated) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto r = db.Query(
      "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v < 40 AND "
      "T1.h < 40");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->metrics.total_ns, 0u);
  EXPECT_GT(r->metrics.flash.pages_read, 0u);
  EXPECT_GT(r->metrics.bytes_to_secure, 0u);
  EXPECT_GT(r->metrics.bytes_to_untrusted, 0u);  // the query text
}

TEST_F(E2eTest, DeterministicSimulatedTime) {
  GhostDB db1(SmallConfig()), db2(SmallConfig());
  BuildDb(&db1);
  BuildDb(&db2);
  const char* sql =
      "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v < 30 AND "
      "T1.h < 60";
  auto r1 = db1.Query(sql);
  auto r2 = db2.Query(sql);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->metrics.total_ns, r2->metrics.total_ns);
  EXPECT_EQ(r1->metrics.flash.pages_read, r2->metrics.flash.pages_read);
}

TEST_F(E2eTest, ExplainDescribesPlan) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  auto text = db.Explain(
      "SELECT T0.id FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND "
      "T1.fk12 = T12.id AND T1.v < 5 AND T12.h < 20");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("anchor T0"), std::string::npos);
  EXPECT_NE(text->find("T1 visible selection"), std::string::npos);
  EXPECT_NE(text->find("Project"), std::string::npos);
}

TEST_F(E2eTest, UnindexedHiddenAttributeFallsBackToScan) {
  GhostDBConfig cfg = SmallConfig();
  cfg.indexed_attrs_by_name.emplace();  // index nothing
  GhostDB db(cfg);
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T12.id FROM T12 WHERE T12.h < 30");
  ExpectMatchesOracle(&db,
                      "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND "
                      "T1.h = 3");
}

TEST_F(E2eTest, UnknownIndexedAttributeFailsBuild) {
  auto build = [&](std::map<std::string, std::vector<std::string>> attrs) {
    GhostDBConfig cfg = SmallConfig();
    cfg.indexed_attrs_by_name = std::move(attrs);
    GhostDB db(cfg);
    EXPECT_TRUE(db.Execute("CREATE TABLE a (id INT, x INT, h INT HIDDEN)")
                    .ok());
    EXPECT_TRUE(db.Execute("INSERT INTO a VALUES (1, 2)").ok());
    Status s = db.Build();
    EXPECT_EQ(db.built(), s.ok());
    return s;
  };
  Status column = build({{"a", {"h", "nope"}}});
  EXPECT_TRUE(column.IsNotFound()) << column.ToString();
  Status table = build({{"nope", {"h"}}});
  EXPECT_TRUE(table.IsNotFound()) << table.ToString();
  // The control: naming only real attributes builds.
  EXPECT_TRUE(build({{"a", {"h"}}}).ok());
}

TEST_F(E2eTest, QueriesBeforeBuildFail) {
  // The sessionless calls run in the default session, which only Build()
  // opens: every one must refuse cleanly before it.
  GhostDB db(SmallConfig());
  ASSERT_TRUE(db.Execute("CREATE TABLE a (id INT, x INT)").ok());
  const std::string sql = "SELECT a.id FROM a";
  EXPECT_TRUE(db.Query(sql).status().IsInvalidArgument());
  EXPECT_TRUE(db.Explain(sql).status().IsInvalidArgument());
  EXPECT_TRUE(db.QueryWithPlan(sql, PlanChoice{}).status().IsInvalidArgument());
  EXPECT_TRUE(db.QueryBatch({sql}).status().IsInvalidArgument());
}

TEST_F(E2eTest, InsertsAfterBuildRejected) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  EXPECT_TRUE(
      db.Execute("INSERT INTO T2 VALUES (1, 2)").IsNotSupported());
}

TEST_F(E2eTest, EmptyResultQueries) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  ExpectMatchesOracle(&db, "SELECT T12.id FROM T12 WHERE T12.h = -5");
  ExpectMatchesOracle(&db,
                      "SELECT T0.id FROM T0, T1 WHERE T0.fk1 = T1.id AND "
                      "T1.v = -1 AND T1.h = 3");
}

TEST_F(E2eTest, ResultRowLimitKeepsCountExact) {
  GhostDBConfig cfg = SmallConfig();
  cfg.exec.result_row_limit = 5;
  GhostDB db(cfg);
  BuildDb(&db);
  auto r = db.Query("SELECT T0.id FROM T0 WHERE T0.h < 90");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);
  EXPECT_GT(r->total_rows, 100u);
}

TEST_F(E2eTest, StorageReportListsStructures) {
  GhostDB db(SmallConfig());
  BuildDb(&db);
  std::string report = db.StorageReport();
  EXPECT_NE(report.find("skt:T0"), std::string::npos);
  EXPECT_NE(report.find("hidden:T0"), std::string::npos);
  EXPECT_NE(report.find("ci:T1.id"), std::string::npos);
}

// A fleet stores every root slice plus a replica of each non-root table,
// so its storage report can never total less than one device holding the
// whole database.
TEST_F(E2eTest, StorageReportCoversEveryShard) {
  auto total_pages = [](uint32_t shard_count) -> uint64_t {
    workload::SyntheticConfig wl;
    wl.scale = 0.002;
    GhostDBConfig cfg = workload::SyntheticDbConfig(wl);
    cfg.shard_count = shard_count;
    GhostDB db(cfg);
    EXPECT_TRUE(workload::BuildSynthetic(&db, wl).ok());
    std::string report = db.StorageReport();
    const std::string label = "total used: ";
    size_t at = report.find(label);
    EXPECT_NE(at, std::string::npos) << report;
    return at == std::string::npos
               ? 0
               : std::stoull(report.substr(at + label.size()));
  };
  uint64_t one = total_pages(1);
  uint64_t two = total_pages(2);
  EXPECT_GT(one, 0u);
  EXPECT_GE(two, one);
}

// Property sweep: random small databases and random queries, GhostDB vs
// oracle, planner-chosen strategies.
class RandomQueryTest : public E2eTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(RandomQueryTest, MatchesOracle) {
  GhostDB db(SmallConfig());
  BuildDb(&db, /*seed=*/1000 + GetParam());
  Rng rng(7000 + GetParam());
  const char* tables[] = {"T0", "T1", "T12"};
  for (int q = 0; q < 4; ++q) {
    int vis_cut = static_cast<int>(rng.Uniform(100)) + 1;
    int hid_cut = static_cast<int>(rng.Uniform(100)) + 1;
    std::string sql;
    switch (rng.Uniform(3)) {
      case 0:
        sql = std::string("SELECT ") + tables[rng.Uniform(3)] +
              ".id FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND "
              "T1.fk12 = T12.id AND T1.v < " +
              std::to_string(vis_cut) + " AND T12.h < " +
              std::to_string(hid_cut);
        break;
      case 1:
        sql = "SELECT T1.id, T1.h FROM T1 WHERE T1.v >= " +
              std::to_string(vis_cut) + " AND T1.h <= " +
              std::to_string(hid_cut);
        break;
      default:
        sql = "SELECT T0.id, T0.h, T1.vs FROM T0, T1 WHERE "
              "T0.fk1 = T1.id AND T0.v < " +
              std::to_string(vis_cut) + " AND T1.h < " +
              std::to_string(hid_cut);
        break;
    }
    ExpectMatchesOracle(&db, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace ghostdb
