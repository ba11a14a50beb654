// Figure 9: Cross-Pre vs Cross-Post filtering on Query Q (sH = 0.1).
// Measured shape (scale 0.05): Cross-Pre wins outright for selective
// Visible selections and still wins at sV 0.1 (ratio 0.44), 0.2 (0.68)
// and 0.5 (0.98). SJoin reads only the SKT bytes of the anchor ids it
// joins, which favours Cross-Pre's sparse ids; with whole-page SKT reads
// the ratios were 0.78, 0.97 and 1.06, a crossover near sV 0.25. The
// planner's Cross rule (plan/planner.cc) still follows that older
// crossover, not the plain Pre/Post one of Fig 10.
//   ./bench_fig09_crosspre_vs_crosspost [--scale S] [--json FILE]
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"

using namespace ghostdb;
using plan::VisStrategy;

int main(int argc, char** argv) {
  double scale = bench::ScaleArg(argc, argv, 0.05);
  bench::JsonReporter reporter(argc, argv);
  bench::Banner("Figure 9", "Cross-Pre vs Cross-Post filtering (Query Q, "
                "sH=0.1)", scale);
  std::unique_ptr<core::GhostDB> db(bench::BuildSyntheticDb(scale));

  std::printf("%-8s %16s %17s %8s\n", "sV", "Cross-Pre-Filter",
              "Cross-Post-Filter", "ratio");
  for (double sv : bench::SvSweep()) {
    std::string sql = workload::QueryQ(sv, 0.1);
    auto timed = [&](VisStrategy strategy, double* wall_ms) {
      auto start = std::chrono::steady_clock::now();
      auto metrics = bench::Run(*db, sql, bench::Pin(*db, "T1", strategy));
      *wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      return metrics;
    };
    double pre_ms, post_ms;
    auto pre = timed(VisStrategy::kCrossPreFilter, &pre_ms);
    auto post = timed(VisStrategy::kCrossPostFilter, &post_ms);
    double tp = bench::Sec(pre.total_ns), tq = bench::Sec(post.total_ns);
    char entry[64];
    std::snprintf(entry, sizeof(entry), "fig09.sv%.3f.CrossPreFilter", sv);
    reporter.Record(entry, pre_ms, tp, pre);
    std::snprintf(entry, sizeof(entry), "fig09.sv%.3f.CrossPostFilter", sv);
    reporter.Record(entry, post_ms, tq, post);
    std::printf("%-8.3f %16.3f %17.3f %8.2f\n", sv, tp, tq, tp / tq);
  }
  std::printf("\npaper: Cross-Pre better for selective Visible selections, "
              "worse past a crossover, by at most ~25%%; device model: "
              "Cross-Pre ahead at every sV up to 0.5, nearly even there\n");
  return 0;
}
