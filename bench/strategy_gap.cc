// The planner's strategy rule against every pinned strategy on Query Q.
// For each (sV, sH) point of the Figs 8-13 sweep squared, Query Q runs once
// under the rule's plan (Query) and once per pinned T1 strategy
// (QueryWithPlan). The bench prints the rule's choice, the cheapest pinned
// strategy and both simulated costs, then the summed gap: how much more the
// rule's plans cost over the grid than the best pinned plan at every point.
//   ./bench_strategy_gap [--scale S] [--json FILE]
// Exits 1 if a query fails, if a pinned strategy returns a different row
// count from the rule's plan, or if the summed gap exceeds 5%.
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "bench_common.h"

using namespace ghostdb;
using plan::VisStrategy;

namespace {

constexpr VisStrategy kStrategies[] = {
    VisStrategy::kPreFilter,       VisStrategy::kCrossPreFilter,
    VisStrategy::kPostFilter,      VisStrategy::kCrossPostFilter,
    VisStrategy::kPostSelect,      VisStrategy::kCrossPostSelect,
    VisStrategy::kNoFilter,
};

/// A summed gap above this fails the run; points above it are counted.
constexpr double kMaxSummedGap = 0.05;

/// The strategy EXPLAIN reports for T1's visible selection.
std::string RuleChoice(core::GhostDB& db, const std::string& sql) {
  auto text = db.Explain(sql);
  if (!text.ok()) return "?";
  const std::string key = "T1 visible selection -> ";
  size_t at = text->find(key);
  if (at == std::string::npos) return "?";
  at += key.size();
  size_t end = text->find_first_of(" \n", at);
  return text->substr(at, end - at);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = bench::ScaleArg(argc, argv, 0.02);
  bench::JsonReporter json(argc, argv);
  bench::Banner("Strategy gap",
                "the planner's rule vs the best pinned T1 strategy (Query Q, "
                "sV x sH grid)",
                scale);
  std::unique_ptr<core::GhostDB> db(bench::BuildSyntheticDb(scale));

  std::printf("%-7s %-7s %-18s %10s %-18s %10s %7s\n", "sV", "sH", "rule",
              "rule_s", "best", "best_s", "gap");
  int failed = 0;
  int over_5pct = 0;
  double rule_sum = 0.0, best_sum = 0.0;
  for (double sv : bench::SvSweep()) {
    for (double sh : bench::SvSweep()) {
      std::string sql = workload::QueryQ(sv, sh);
      char name[48];
      std::snprintf(name, sizeof(name), "gap.sv%.3f.sh%.3f", sv, sh);
      auto start = std::chrono::steady_clock::now();
      auto rule = db->Query(sql);
      double wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (!rule.ok()) {
        std::printf("%-7.3f %-7.3f (%s)\n", sv, sh,
                    rule.status().ToString().c_str());
        json.Record(name, wall_ms, 0.0, exec::QueryMetrics{}, "error");
        failed += 1;
        continue;
      }
      double rule_s = bench::Sec(rule->metrics.total_ns);
      json.Record(name, wall_ms, rule_s, rule->metrics);

      double best_s = std::numeric_limits<double>::infinity();
      VisStrategy best = kStrategies[0];
      for (VisStrategy s : kStrategies) {
        auto pinned = db->QueryWithPlan(sql, bench::Pin(*db, "T1", s));
        if (!pinned.ok()) {
          std::printf("%-7.3f %-7.3f %s: %s\n", sv, sh,
                      std::string(plan::VisStrategyName(s)).c_str(),
                      pinned.status().ToString().c_str());
          failed += 1;
          continue;
        }
        if (pinned->total_rows != rule->total_rows) {
          std::printf("%-7.3f %-7.3f %s returned %llu rows, the rule's "
                      "plan %llu\n",
                      sv, sh, std::string(plan::VisStrategyName(s)).c_str(),
                      static_cast<unsigned long long>(pinned->total_rows),
                      static_cast<unsigned long long>(rule->total_rows));
          failed += 1;
        }
        double s_sec = bench::Sec(pinned->metrics.total_ns);
        if (s_sec < best_s) {
          best_s = s_sec;
          best = s;
        }
      }
      if (best_s == std::numeric_limits<double>::infinity()) continue;
      double gap = best_s > 0.0 ? rule_s / best_s - 1.0 : 0.0;
      if (gap > kMaxSummedGap) over_5pct += 1;
      rule_sum += rule_s;
      best_sum += best_s;
      std::string choice = RuleChoice(*db, sql);
      std::string best_name(plan::VisStrategyName(best));
      std::printf("%-7.3f %-7.3f %-18s %10.4f %-18s %10.4f %6.1f%%\n", sv,
                  sh, choice.c_str(), rule_s, best_name.c_str(), best_s,
                  100.0 * gap);
      json.RecordCustom(
          std::string(name) + "_choice",
          "\"rule\": \"" + choice + "\", \"best\": \"" + best_name +
              "\", \"rule_sim_seconds\": " + std::to_string(rule_s) +
              ", \"best_sim_seconds\": " + std::to_string(best_s) +
              ", \"gap\": " + std::to_string(gap));
    }
  }
  double summed_gap = best_sum > 0.0 ? rule_sum / best_sum - 1.0 : 0.0;
  std::printf("\nsummed: rule %.3f s, best %.3f s, gap %.1f%% (limit %.0f%%);"
              " %d points more than 5%% over the best plan\n",
              rule_sum, best_sum, 100.0 * summed_gap, 100.0 * kMaxSummedGap,
              over_5pct);
  json.RecordCustom("gap.summed",
                    "\"rule_sim_seconds\": " + std::to_string(rule_sum) +
                        ", \"best_sim_seconds\": " + std::to_string(best_sum) +
                        ", \"gap\": " + std::to_string(summed_gap) +
                        ", \"points_over_5pct\": " +
                        std::to_string(over_5pct) +
                        ", \"failures\": " + std::to_string(failed));
  if (failed > 0) {
    std::printf("FAIL: %d failed or disagreeing runs\n", failed);
    return 1;
  }
  if (summed_gap > kMaxSummedGap) {
    std::printf("FAIL: summed gap above %.0f%%\n", 100.0 * kMaxSummedGap);
    return 1;
  }
  return 0;
}
