// Workload-generator tests: shapes, the selectivity dial, index-scheme
// size ordering, and end-to-end runs of the figure queries at tiny scale.
#include <gtest/gtest.h>

#include <memory>

#include "core/database.h"
#include "plan/strategy.h"
#include "reference/oracle.h"
#include "sql/parser.h"
#include "workload/index_schemes.h"
#include "workload/medical.h"
#include "workload/synthetic.h"

namespace ghostdb::workload {
namespace {

TEST(SyntheticTest, ShapeMatchesPaperRatios) {
  SyntheticShape shape(1.0);
  EXPECT_EQ(shape.t0, 10'000'000u);
  EXPECT_EQ(shape.t1, 1'000'000u);
  EXPECT_EQ(shape.t11, 100'000u);
  SyntheticShape small(0.01);
  EXPECT_EQ(small.t0, 100'000u);
}

TEST(SyntheticTest, DialProducesExpectedLiterals) {
  EXPECT_EQ(Dial(0.1).AsString(), "100000");
  EXPECT_EQ(Dial(0.5).AsString(), "500000");
  EXPECT_EQ(Dial(0.0).AsString(), "000000");
  // Dial(1.0) must exceed every 6-digit value under binary collation.
  EXPECT_GT(Dial(1.0).Compare(Dial(0.999999)), 0);
}

TEST(SyntheticTest, DialSelectivityIsAccurate) {
  SyntheticConfig wl;
  wl.scale = 0.002;  // T1 = 2000 rows
  auto cfg = SyntheticDbConfig(wl);
  cfg.retain_staged_data = true;
  core::GhostDB db(cfg);
  ASSERT_TRUE(BuildSynthetic(&db, wl).ok());
  auto r = db.Query("SELECT T1.id FROM T1 WHERE T1.v1 < " +
                    Dial(0.25).ToString());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double sel = static_cast<double>(r->total_rows) / 2000.0;
  EXPECT_NEAR(sel, 0.25, 0.04);
}

TEST(SyntheticTest, QueryQRunsAndMatchesOracle) {
  SyntheticConfig wl;
  wl.scale = 0.002;
  auto cfg = SyntheticDbConfig(wl);
  cfg.retain_staged_data = true;
  core::GhostDB db(cfg);
  ASSERT_TRUE(BuildSynthetic(&db, wl).ok());
  std::string sql = QueryQ(0.1, 0.1, 2, true);
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(), sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto expected = reference::Evaluate(db.schema(), db.staged(), *bound);
  ASSERT_TRUE(expected.ok());
  auto got = db.Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->total_rows, expected->size());
}

TEST(SyntheticTest, CrossPreQueryQCountsBothMerges) {
  // Cross-Pre on T1 runs two merges: the cross intersection of T1's Vis
  // ids with the T12 predicate climbed to T1, then the anchor merge. The
  // statement's merge stats sum both ids_emitted and take the larger
  // peak_streams. The crossed statement below runs the first merge alone
  // (Vis ids and the same climbed predicate, at T1); here one T12 key
  // qualifies, so that merge streams one sublist rather than a bitmap.
  SyntheticConfig wl;
  wl.scale = 0.002;
  core::GhostDB db(SyntheticDbConfig(wl));
  ASSERT_TRUE(BuildSynthetic(&db, wl).ok());
  auto t1 = db.schema().FindTable("T1");
  ASSERT_TRUE(t1.ok());
  plan::PlanChoice cross_pre, pre;
  cross_pre.vis[*t1] = plan::VisStrategy::kCrossPreFilter;
  pre.vis[*t1] = plan::VisStrategy::kPreFilter;
  auto q = db.QueryWithPlan(QueryQ(0.5, 0.01), cross_pre);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto crossed = db.QueryWithPlan(
      "SELECT T1.id FROM T1, T12 WHERE T1.fk12 = T12.id AND T1.v1 < " +
          Dial(0.5).ToString() + " AND T12.h2 < " + Dial(0.01).ToString(),
      pre);
  ASSERT_TRUE(crossed.ok()) << crossed.status().ToString();
  ASSERT_GT(crossed->metrics.merge.ids_emitted, 0u);
  ASSERT_GT(crossed->metrics.merge.peak_streams, 0u);
  EXPECT_EQ(q->metrics.merge.ids_emitted,
            q->metrics.qepsj_rows + crossed->metrics.merge.ids_emitted);
  EXPECT_GE(q->metrics.merge.peak_streams,
            crossed->metrics.merge.peak_streams);
}

TEST(MedicalTest, ShapeMatchesPaper) {
  MedicalShape shape(1.0);
  EXPECT_EQ(shape.doctors, 4500u);
  EXPECT_EQ(shape.patients, 14000u);
  EXPECT_EQ(shape.measurements, 1'300'000u);
  EXPECT_EQ(shape.drugs, 45u);
}

TEST(MedicalTest, BuildsAndAnswersCohortQuery) {
  MedicalConfig wl;
  wl.scale = 0.01;
  auto cfg = MedicalDbConfig(wl);
  cfg.retain_staged_data = true;
  core::GhostDB db(cfg);
  ASSERT_TRUE(BuildMedical(&db, wl).ok());
  std::string sql = MedicalQueryQ(0.3, 0.2);
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(), sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto expected = reference::Evaluate(db.schema(), db.staged(), *bound);
  ASSERT_TRUE(expected.ok());
  auto got = db.Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->total_rows, expected->size());
  EXPECT_GT(got->total_rows, 0u);
}

TEST(MedicalTest, HiddenColumnsMatchPaperSplit) {
  MedicalConfig wl;
  wl.scale = 0.01;
  core::GhostDB db(MedicalDbConfig(wl));
  ASSERT_TRUE(BuildMedical(&db, wl).ok());
  auto patients = db.schema().FindTable("Patients");
  ASSERT_TRUE(patients.ok());
  const auto& t = db.schema().table(*patients);
  auto hidden = [&](const char* name) {
    auto c = t.FindColumn(name);
    EXPECT_TRUE(c.has_value()) << name;
    return t.columns[*c].hidden;
  };
  EXPECT_TRUE(hidden("doctor_id"));
  EXPECT_TRUE(hidden("name"));
  EXPECT_TRUE(hidden("ssn"));
  EXPECT_TRUE(hidden("bodymassindex"));
  EXPECT_FALSE(hidden("age"));
  EXPECT_FALSE(hidden("city"));
  EXPECT_FALSE(hidden("first_name"));
}

// --- Index schemes (Fig 7 machinery) ---

class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest() {
    SyntheticConfig wl;
    wl.scale = 0.002;
    auto cfg = SyntheticDbConfig(wl);
    cfg.retain_staged_data = true;
    db_ = std::make_unique<core::GhostDB>(cfg);
    EXPECT_TRUE(StageSynthetic(db_.get(), wl).ok());
  }
  std::unique_ptr<core::GhostDB> db_;
};

TEST_F(SchemeTest, SizesFollowPaperOrdering) {
  auto full = MeasureScheme(db_->schema(), db_->staged(),
                            IndexScheme::kFullIndex, 3);
  auto basic = MeasureScheme(db_->schema(), db_->staged(),
                             IndexScheme::kBasicIndex, 3);
  auto star = MeasureScheme(db_->schema(), db_->staged(),
                            IndexScheme::kStarIndex, 3);
  auto join = MeasureScheme(db_->schema(), db_->staged(),
                            IndexScheme::kJoinIndex, 3);
  ASSERT_TRUE(full.ok() && basic.ok() && star.ok() && join.ok());
  // Fig 7 ordering: Full >= Basic >> Star; Join smallest among index-bearing.
  EXPECT_GE(full->index_pages, basic->index_pages);
  EXPECT_GT(basic->index_pages, star->index_pages);
  EXPECT_GT(star->index_pages, 0u);
  EXPECT_GT(join->index_pages, 0u);
  // The paper's headline: Full costs barely more than Basic (<20% here).
  EXPECT_LT(static_cast<double>(full->index_pages),
            1.2 * static_cast<double>(basic->index_pages));
  // DBSize does not depend on the scheme.
  EXPECT_EQ(full->raw_data_bytes, join->raw_data_bytes);
}

TEST_F(SchemeTest, IndexSizeGrowsWithAttributeCount) {
  uint64_t prev = 0;
  for (int k = 0; k <= 3; ++k) {
    auto sizes = MeasureScheme(db_->schema(), db_->staged(),
                               IndexScheme::kFullIndex, k);
    ASSERT_TRUE(sizes.ok());
    EXPECT_GE(sizes->index_pages, prev);
    prev = sizes->index_pages;
  }
  EXPECT_GT(prev, 0u);
}

TEST_F(SchemeTest, ZeroAttrsStillCountsSktsAndKeys) {
  auto full = MeasureScheme(db_->schema(), db_->staged(),
                            IndexScheme::kFullIndex, 0);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->index_pages, 0u);  // SKTs + id indexes remain
}

}  // namespace
}  // namespace ghostdb::workload
