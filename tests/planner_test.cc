// Planner tests: strategy selection encodes the paper's observed decision
// rules (section 6.4).
#include <gtest/gtest.h>

#include <memory>

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
