// Planner tests: strategy selection encodes the paper's observed decision
// rules (section 6.4) with the crossovers measured on Query Q
// (bench/strategy_gap): (Cross-)Pre-Filter when the anchor carries the
// visible predicate, when sV <= 0.1, or, with Cross, when sV <= 0.25 or the
// crossed fraction sV x sH <= 0.02; (Cross-)Post-Filter otherwise.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/database.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "workload/synthetic.h"

namespace ghostdb::plan {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void Build() {
    workload::SyntheticConfig wl;
    wl.scale = 0.002;
    auto cfg = workload::SyntheticDbConfig(wl);
    db_ = std::make_unique<core::GhostDB>(cfg);
    ASSERT_TRUE(workload::BuildSynthetic(db_.get(), wl).ok());
  }

  // EXPLAIN and return the text.
  std::string Explain(double sv, double sh) {
    auto text = db_->Explain(workload::QueryQ(sv, sh));
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : "";
  }

  std::unique_ptr<core::GhostDB> db_;
};

TEST_F(PlannerTest, RuleModePicksCrossPreForSelectiveVisible) {
  Build();
  std::string plan = Explain(0.01, 0.1);
  EXPECT_NE(plan.find("Cross-Pre-Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, RuleModePicksCrossPostForUnselectiveVisible) {
  Build();
  std::string plan = Explain(0.5, 0.1);
  EXPECT_NE(plan.find("Cross-Post-Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, RuleModePicksCrossPreBelowTheCrossCrossover) {
  Build();
  // sV ~ 0.2 is past the plain Pre/Post crossover (0.1) but not past the
  // Cross one (0.25).
  std::string plan = Explain(0.2, 0.01);
  EXPECT_NE(plan.find("T1 visible selection -> Cross-Pre-Filter"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, RuleModePicksCrossPreForSmallCrossedFraction) {
  Build();
  // sV ~ 0.5 is past both crossovers, but only sV x sH ~ 0.005 of T1's ids
  // are left to climb after the intersection.
  std::string plan = Explain(0.5, 0.01);
  EXPECT_NE(plan.find("T1 visible selection -> Cross-Pre-Filter"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, RuleModePicksCrossPreJustAboveTheTenPercentDial) {
  Build();
  // The 0.1 dial measures just above 0.1 (sV=0.1005 here), past the plain
  // Pre/Post cutoff; with Cross, Cross-Pre still wins there.
  std::string plan = Explain(0.1, 0.01);
  size_t sv_at = plan.find("(sV=");
  ASSERT_NE(sv_at, std::string::npos) << plan;
  EXPECT_GT(std::stod(plan.substr(sv_at + 4)), 0.1) << plan;
  EXPECT_NE(plan.find("T1 visible selection -> Cross-Pre-Filter"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, RuleModePicksPreWhenTheAnchorCarriesTheVisiblePredicate) {
  Build();
  // The anchor's Vis ids are already anchor ids: nothing to climb, so an
  // unselective visible predicate on T0 still pre-filters, with Cross when
  // a hidden predicate sits on T0 too.
  const std::string half = workload::Dial(0.5).ToString();
  auto crossed = db_->Explain("SELECT T0.id FROM T0 WHERE T0.v1 < " + half +
                              " AND T0.h3 < " + half);
  ASSERT_TRUE(crossed.ok()) << crossed.status().ToString();
  EXPECT_NE(crossed->find("T0 visible selection -> Cross-Pre-Filter"),
            std::string::npos)
      << *crossed;
  auto plain =
      db_->Explain("SELECT T0.id, T0.h1 FROM T0 WHERE T0.v1 < " + half);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_NE(plain->find("T0 visible selection -> Pre-Filter"),
            std::string::npos)
      << *plain;
}

TEST_F(PlannerTest, RuleModeWithoutHiddenSubtreePredsUsesPlainVariants) {
  Build();
  // Hidden selection on T2 is outside T1's subtree: no Cross possible.
  auto text = db_->Explain(
      "SELECT T0.id FROM T0, T1, T2 WHERE T0.fk1 = T1.id AND "
      "T0.fk2 = T2.id AND T1.v1 < '010000' AND T2.h1 < '100000'");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Pre-Filter"), std::string::npos);
  EXPECT_EQ(text->find("Cross-Pre-Filter"), std::string::npos) << *text;
}

TEST_F(PlannerTest, ExplainListsPredicatesAndProjection) {
  Build();
  std::string plan = Explain(0.05, 0.1);
  EXPECT_NE(plan.find("anchor T0"), std::string::npos);
  EXPECT_NE(plan.find("visible predicate"), std::string::npos);
  EXPECT_NE(plan.find("hidden  predicate"), std::string::npos);
  EXPECT_NE(plan.find("climbing index"), std::string::npos);
  EXPECT_NE(plan.find("projection -> Project"), std::string::npos);
}

}  // namespace
}  // namespace ghostdb::plan
