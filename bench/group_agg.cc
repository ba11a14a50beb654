// Grouped aggregation, measured across the HashGroupOp regimes over the
// same data and GROUP BY workload:
//
//   hash         — the group table fits the relational-tail budget (the
//                  streaming hash path end to end)
//   spilling     — a 1-buffer budget freezes the hash table almost
//                  immediately; new groups reroute through sort-based
//                  grouping on flash
//   grouped topk — ORDER BY SUM(..) DESC LIMIT k over the grouped output
//                  (group spill feeding the fused top-K)
//   whole-result — the keyless aggregate baseline over the same rows
//
// Wall-clock is real host time (grouping is host-side secure compute);
// simulated seconds add the device I/O model (group-spill flash traffic
// shows up here). `--smoke` shrinks the data for CI; `--json FILE` emits
// the machine-readable results CI uploads as a BENCH_*.json trajectory
// artifact. Every case must succeed: a failed one is recorded as "error"
// and the bench exits nonzero.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"

namespace {

using ghostdb::Rng;
using ghostdb::catalog::Value;
using ghostdb::core::GhostDB;
using ghostdb::core::GhostDBConfig;

GhostDBConfig MakeConfig(uint32_t budget_buffers) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 64 * 1024;
  cfg.exec.sort_budget_buffers = budget_buffers;
  cfg.exec.result_row_limit = 4;  // results stay on the secure display
  return cfg;
}

void BuildTable(GhostDB* db, uint32_t rows, uint32_t groups) {
  if (!db->Execute("CREATE TABLE R (id INT, g INT, v INT, h INT HIDDEN)")
           .ok()) {
    std::fprintf(stderr, "create failed\n");
    std::exit(1);
  }
  Rng rng(99);
  auto staging = db->MutableStaging("R");
  for (uint32_t i = 0; i < rows; ++i) {
    (void)(*staging)->AppendRow(
        {Value::Int32(static_cast<int32_t>(rng.Uniform(groups))),
         Value::Int32(static_cast<int32_t>(rng.Uniform(1000))),
         Value::Int32(static_cast<int32_t>(rng.Uniform(100)))});
  }
  if (!db->Build().ok()) {
    std::fprintf(stderr, "build failed\n");
    std::exit(1);
  }
}

struct Timed {
  double wall_ms = 0;
  ghostdb::Result<ghostdb::exec::QueryResult> result;

  Timed(double ms, ghostdb::Result<ghostdb::exec::QueryResult> r)
      : wall_ms(ms), result(std::move(r)) {}
};

Timed Run(GhostDB* db, const std::string& sql) {
  auto start = std::chrono::steady_clock::now();
  auto result = db->Query(sql);
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return Timed(wall_ms, std::move(result));
}

}  // namespace

int main(int argc, char** argv) {
  using ghostdb::bench::JsonReporter;
  double scale = ghostdb::bench::ScaleArg(argc, argv, 0.5);
  if (ghostdb::bench::HasFlag(argc, argv, "--smoke")) scale = 0.05;
  JsonReporter json(argc, argv);
  uint32_t rows = static_cast<uint32_t>(100000 * scale);
  if (rows < 1000) rows = 1000;
  uint32_t groups = rows / 20;  // ~20 rows per group
  ghostdb::bench::Banner("group_agg", "grouped aggregation (GROUP BY)",
                         scale);
  std::printf("R: %u rows, ~%u groups; grouped aggregation over the full "
              "hidden-filtered set\n\n", rows, groups);

  const std::string kGroupSql =
      "SELECT R.g, COUNT(*), SUM(R.v), MIN(R.h) FROM R WHERE R.h >= 0 "
      "GROUP BY R.g";
  const std::string kTopKSql =
      "SELECT R.g, SUM(R.v) FROM R WHERE R.h >= 0 GROUP BY R.g "
      "ORDER BY SUM(R.v) DESC LIMIT 10";
  const std::string kUngroupedSql =
      "SELECT COUNT(*), SUM(R.v), MIN(R.h) FROM R WHERE R.h >= 0";

  struct Case {
    const char* name;
    uint32_t budget;
    const std::string* sql;
  };
  const Case cases[] = {
      {"group_hash", 4096, &kGroupSql},
      {"group_spilling_1buf", 1, &kGroupSql},
      {"group_topk_sum_desc", 4096, &kTopKSql},
      {"group_topk_spilling_1buf", 1, &kTopKSql},
      {"whole_result_aggregate", 4096, &kUngroupedSql},
  };

  std::printf("%-26s %12s %12s %10s %10s\n", "case", "wall_ms", "sim_s",
              "groups", "spills");
  double hash_ms = 0, spill_ms = 0;
  int failed = 0;
  for (const Case& c : cases) {
    GhostDB db(MakeConfig(c.budget));
    BuildTable(&db, rows, groups);
    Timed t = Run(&db, *c.sql);
    if (!t.result.ok()) {
      std::printf("%-26s %12.2f %12s %10s %10s  (%s)\n", c.name, t.wall_ms,
                  "-", "-", "-", t.result.status().ToString().c_str());
      json.Record(c.name, t.wall_ms, 0.0, ghostdb::exec::QueryMetrics{},
                  "error");
      failed += 1;
      continue;
    }
    const auto& m = t.result->metrics;
    std::printf("%-26s %12.2f %12.4f %10llu %10llu\n", c.name, t.wall_ms,
                ghostdb::bench::Sec(m.total_ns),
                static_cast<unsigned long long>(m.result_rows),
                static_cast<unsigned long long>(m.sort_spill_runs));
    json.Record(c.name, t.wall_ms, ghostdb::bench::Sec(m.total_ns), m);
    if (std::string(c.name) == "group_hash") hash_ms = t.wall_ms;
    if (std::string(c.name) == "group_spilling_1buf") spill_ms = t.wall_ms;
  }
  if (hash_ms > 0 && spill_ms > 0) {
    std::printf("\nhash vs forced-spill wall-clock: %.2fx\n",
                spill_ms / hash_ms);
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d case(s) failed\n", failed);
    return 1;
  }
  json.Write();
  return 0;
}
