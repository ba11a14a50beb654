// Ablation A1: the two RAM-overflow alternatives of the Merge operator
// (paper section 3.4): the reduction phase (pre-union sublists into
// temporary runs — write-heavy) vs sub-buffer splitting (more page loads,
// no temporary writes). The paper implements the former and sketches the
// latter; the better choice depends on how many sublists overflow RAM and
// how long they are. GhostDB has no setting for it: the Merge-alternative
// rule (exec::ChooseMergeAlternative) prices both per merge. This bench
// prints what the rule chose at each sV — the sub-buffer window the
// streaming phase used (0 = one full buffer per stream) and the reduction
// rounds run — with the simulated cost and the flash work behind it.
//   ./bench_ablation_merge_strategies [--scale S] [--json FILE]
// Exits 1 if a query fails.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace ghostdb;
using plan::VisStrategy;

int main(int argc, char** argv) {
  double scale = bench::ScaleArg(argc, argv, 0.05);
  bench::JsonReporter json(argc, argv);
  bench::Banner("Ablation A1",
                "Merge overflow: the rule's choice between reduction and "
                "sub-buffer windows (Cross-Pre Query Q, sH=0.1)",
                scale);

  std::printf("%-8s %10s %10s %10s %10s %12s %12s\n", "sV", "window_B",
              "red_rounds", "red_ids", "sim_s", "wr_pages", "rd_pages");
  int failed = 0;
  for (double sv : {0.05, 0.1, 0.2, 0.5}) {
    // A fresh database per point, so no point inherits another's flash
    // state.
    workload::SyntheticConfig wl;
    wl.scale = scale;
    auto cfg = workload::SyntheticDbConfig(wl);
    cfg.exec.result_row_limit = 4;
    core::GhostDB db(cfg);
    auto st = workload::BuildSynthetic(&db, wl);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "merge_sv%.2f", sv);
    auto start = std::chrono::steady_clock::now();
    auto r = db.QueryWithPlan(workload::QueryQ(sv, 0.1),
                              bench::Pin(db, "T1", VisStrategy::kPreFilter));
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (!r.ok()) {
      std::printf("%-8.3f  (%s)\n", sv, r.status().ToString().c_str());
      json.Record(name, wall_ms, 0.0, exec::QueryMetrics{}, "error");
      failed += 1;
      continue;
    }
    const exec::QueryMetrics& m = r->metrics;
    // wr_pages counts every flash write of the query: the reduction's
    // temporary runs plus SJoin's and projection's row runs.
    std::printf("%-8.3f %10u %10u %10llu %10.3f %12llu %12llu\n", sv,
                m.merge.window_bytes, m.merge.reduction_rounds,
                static_cast<unsigned long long>(m.merge.reduction_ids_written),
                bench::Sec(m.total_ns),
                static_cast<unsigned long long>(m.flash.pages_written),
                static_cast<unsigned long long>(m.flash.pages_read));
    json.Record(name, wall_ms, bench::Sec(m.total_ns), m);
    json.RecordCustom(
        std::string(name) + "_choice",
        "\"window_bytes\": " + std::to_string(m.merge.window_bytes) +
            ", \"reduction_rounds\": " +
            std::to_string(m.merge.reduction_rounds) +
            ", \"reduction_ids_written\": " +
            std::to_string(m.merge.reduction_ids_written));
  }
  std::printf("\nexpectation: windows (no temporary writes) while the "
              "streams fit them cheaply; reduction, alone or down to "
              "64-byte windows, once windows would shrink so far that their "
              "extra page loads cost more than rewriting. No point costs "
              "more than the cheaper fixed policy.\n");
  return failed == 0 ? 0 : 1;
}
