// The memory-bounded relational tail, measured over the same data and
// ORDER BY workload:
//
//   in-memory   — budget covers the working set (the pre-spill fast path)
//   spilling    — a 1-buffer budget forces run spills + streamed merges
//   top-K       — ORDER BY ... LIMIT k fused into a bounded heap, with a
//                 default and a 1-buffer budget
//   windows     — an opened session's default budget (a quarter of the
//                 device's buffers) over enough rows that its generation
//                 runs outnumber the final merge's buffers: the runs must
//                 stream through sub-buffer windows, so the case fails if
//                 any merge-down page is written
//
// Wall-clock is real host time (the sort work is host-side secure
// compute); simulated seconds add the device I/O model (spill flash
// traffic shows up here; page loads count every partial window read).
// `--smoke` shrinks the data for CI (not the windows case's); `--json FILE`
// emits the machine-readable results CI uploads as a BENCH_*.json
// trajectory artifact. Every case must succeed: a failed one is recorded
// as "error" and the bench exits nonzero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "common/rng.h"
#include "core/session.h"

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

void BuildTable(GhostDB* db, uint32_t rows) {
  if (!db->Execute("CREATE TABLE R (id INT, v INT, h INT HIDDEN)").ok()) {
    std::fprintf(stderr, "create failed\n");
    std::exit(1);
  }
  Rng rng(99);
  auto staging = db->MutableStaging("R");
  for (uint32_t i = 0; i < rows; ++i) {
    (void)(*staging)->AppendRow(
        {Value::Int32(static_cast<int32_t>(rng.Uniform(1000000))),
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

// `target` is a GhostDB (its default session) or an opened Session.
template <typename Target>
Timed Run(Target* target, const std::string& sql) {
  auto start = std::chrono::steady_clock::now();
  auto result = target->Query(sql);
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
  ghostdb::bench::Banner("sort_spill",
                         "memory-bounded relational tail", scale);
  std::printf("R: %u rows; ORDER BY over the full hidden-filtered set\n\n",
              rows);

  const std::string kSortSql =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v";
  const std::string kTopKSql = kSortSql + " LIMIT 10";

  struct Case {
    const char* name;
    uint32_t budget;
    const std::string* sql;
    uint32_t rows;
    /// Run through an opened session's default budget, and fail on any
    /// merge-down page (the windows case).
    bool windows_session;
  };
  // ~44 generation runs of 1365 rows against a 32-buffer device.
  uint32_t window_rows = std::max<uint32_t>(rows, 60000);
  const Case cases[] = {
      {"sort_in_memory", 4096, &kSortSql, rows, false},
      {"sort_spilling_1buf", 1, &kSortSql, rows, false},
      {"topk_fused", 0, &kTopKSql, rows, false},
      {"topk_fused_1buf", 1, &kTopKSql, rows, false},
      {"sort_windows_session", 0, &kSortSql, window_rows, true},
  };

  std::printf("%-26s %12s %12s %10s %10s %10s %10s %8s\n", "case",
              "wall_ms", "sim_s", "rows", "spills", "pages", "loads",
              "topk_sc");
  double fused_ms = 0, inmem_ms = 0, spill_ms = 0;
  int failed = 0;
  for (const Case& c : cases) {
    GhostDB db(MakeConfig(c.budget));
    BuildTable(&db, c.rows);
    std::unique_ptr<ghostdb::core::Session> session;
    if (c.windows_session) {
      auto opened = db.OpenSession();
      if (!opened.ok()) {
        std::fprintf(stderr, "open session failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      session = std::move(*opened);
    }
    Timed t = session != nullptr ? Run(session.get(), *c.sql)
                                 : Run(&db, *c.sql);
    if (!t.result.ok()) {
      std::printf("%-26s %12.2f  (%s)\n", c.name, t.wall_ms,
                  t.result.status().ToString().c_str());
      json.Record(c.name, t.wall_ms, 0.0, ghostdb::exec::QueryMetrics{},
                  "error");
      failed += 1;
      continue;
    }
    const auto& m = t.result->metrics;
    std::printf("%-26s %12.2f %12.4f %10llu %10llu %10llu %10llu %8llu\n",
                c.name, t.wall_ms, ghostdb::bench::Sec(m.total_ns),
                static_cast<unsigned long long>(m.result_rows),
                static_cast<unsigned long long>(m.sort_spill_runs),
                static_cast<unsigned long long>(m.sort_spill_pages),
                static_cast<unsigned long long>(m.flash.pages_read),
                static_cast<unsigned long long>(m.topk_short_circuits));
    bool merged_down = c.windows_session && m.sort_merge_pages > 0;
    json.Record(c.name, t.wall_ms, ghostdb::bench::Sec(m.total_ns), m,
                merged_down ? "merge-down" : "ok");
    if (merged_down) {
      std::printf("  %llu merge-down pages written\n",
                  static_cast<unsigned long long>(m.sort_merge_pages));
      failed += 1;
    }
    if (std::string(c.name) == "topk_fused") fused_ms = t.wall_ms;
    if (std::string(c.name) == "sort_in_memory") inmem_ms = t.wall_ms;
    if (std::string(c.name) == "sort_spilling_1buf") spill_ms = t.wall_ms;
  }

  std::printf("\n");
  if (fused_ms > 0 && inmem_ms > 0) {
    std::printf("top-K speedup over the full in-memory sort: %.2fx\n",
                inmem_ms / fused_ms);
  }
  if (inmem_ms > 0 && spill_ms > 0) {
    std::printf("spilling overhead vs in-memory sort: %.2fx\n",
                spill_ms / inmem_ms);
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d case(s) failed\n", failed);
    return 1;
  }
  return 0;
}
