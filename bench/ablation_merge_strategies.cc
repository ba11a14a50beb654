// Ablation A1: the RAM-overflow alternatives of the Merge operator (paper
// section 3.4): the reduction phase (pre-union sublists into temporary
// runs — write-heavy) vs sub-buffer splitting (more page loads, no
// temporary writes), plus the bitmap union (each group's sublists read once
// into an N-bit map of the anchor's ids, when that map fits in RAM). The
// paper implements the first and sketches the second; the better choice
// depends on how many sublists overflow RAM, how long they are and how
// many ids the anchor has. GhostDB has no setting for it: MergeExec prices
// all three per merge (exec::ChooseMergeAlternative for the first two).
// This bench prints what it chose at each sV — the groups unioned into
// bitmaps, the sub-buffer window the streaming phase used (0 = one full
// buffer per stream) and the reduction rounds run — with the simulated
// cost and the flash work behind it. At --scale 0.02 the anchor's bitmap
// fits and the bitmap union wins; at 0.05 it does not, and the first two
// are measured.
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
                "Merge overflow: the choice between reduction, sub-buffer "
                "windows and the bitmap union (Cross-Pre Query Q, sH=0.1)",
                scale);

  std::printf("%-8s %8s %10s %10s %10s %10s %12s %12s\n", "sV", "bitmaps",
              "window_B", "red_rounds", "red_ids", "sim_s", "wr_pages",
              "rd_pages");
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
    std::printf("%-8.3f %8u %10u %10u %10llu %10.3f %12llu %12llu\n", sv,
                m.merge.bitmap_groups, m.merge.window_bytes,
                m.merge.reduction_rounds,
                static_cast<unsigned long long>(m.merge.reduction_ids_written),
                bench::Sec(m.total_ns),
                static_cast<unsigned long long>(m.flash.pages_written),
                static_cast<unsigned long long>(m.flash.pages_read));
    json.Record(name, wall_ms, bench::Sec(m.total_ns), m);
    json.RecordCustom(
        std::string(name) + "_choice",
        "\"bitmap_groups\": " + std::to_string(m.merge.bitmap_groups) +
            ", \"window_bytes\": " + std::to_string(m.merge.window_bytes) +
            ", \"reduction_rounds\": " +
            std::to_string(m.merge.reduction_rounds) +
            ", \"reduction_ids_written\": " +
            std::to_string(m.merge.reduction_ids_written));
  }
  std::printf("\nexpectation: the bitmap union (no temporary writes, each "
              "page segment loaded once) wherever the anchor's id bitmap "
              "fits in RAM beside the other streams and saves page loads; "
              "otherwise windows (no temporary writes) while the streams fit "
              "them cheaply, and reduction, alone or down to 64-byte "
              "windows, once windows would shrink so far that their extra "
              "page loads cost more than rewriting. No point costs more than "
              "the cheapest fixed policy.\n");
  return failed == 0 ? 0 : 1;
}
