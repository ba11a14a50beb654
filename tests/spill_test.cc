// The memory-bounded relational tail: ORDER BY / DISTINCT / ORDER BY+LIMIT
// over inputs far larger than the session's relational-tail budget must
// spill sorted runs to flash and still answer exactly like the oracle.
// A top-K whose k fits the budget serves from its bounded heap without
// spilling at all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/database.h"
#include "exec/row_run.h"
#include "exec/spill_sort.h"
#include "flash/flash.h"
#include "reference/oracle.h"
#include "storage/page_allocator.h"
#include "storage/run.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;

GhostDBConfig SpillConfig(uint32_t budget_buffers) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.retain_staged_data = true;  // for the oracle
  cfg.exec.sort_budget_buffers = budget_buffers;
  return cfg;
}

// Spill runs a single-sorter ORDER BY writes for `rows` rows of `stride`
// bytes (cells plus the arrival sequence) under a one-buffer budget.
uint64_t GenerationRuns(uint64_t rows, uint32_t stride) {
  uint64_t per_run = 2048 / stride;
  return (rows + per_run - 1) / per_run;
}

// One table, `rows` rows. v is drawn from a small domain so ORDER BY has
// heavy ties (the stability-sensitive case) and DISTINCT has real
// duplicates; d makes DISTINCT's key set wide enough to overflow a tiny
// budget. h is hidden, with a predicate matching everything, so the whole
// table flows through the secure relational tail.
void BuildBig(GhostDB* db, uint32_t rows) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE R (id INT, v INT, d INT, h INT HIDDEN)")
          .ok());
  Rng rng(1234);
  auto staging = db->MutableStaging("R");
  ASSERT_TRUE(staging.ok());
  for (uint32_t i = 0; i < rows; ++i) {
    ASSERT_TRUE((*staging)
                    ->AppendRow({Value::Int32(static_cast<int32_t>(
                                     rng.Uniform(40))),
                                 Value::Int32(static_cast<int32_t>(
                                     rng.Uniform(100000))),
                                 Value::Int32(static_cast<int32_t>(
                                     rng.Uniform(100)))})
                    .ok());
  }
  ASSERT_TRUE(db->Build().ok());
}

// Row-for-row equality against the reference evaluator.
void ExpectMatchesOracle(GhostDB* db, const std::string& sql,
                         const exec::QueryResult& got) {
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto bound =
      sql::Bind(std::get<sql::SelectStmt>(*stmt), db->schema(), sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto expected = reference::Evaluate(db->schema(), db->staged(), *bound);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(got.total_rows, expected->size()) << sql;
  ASSERT_EQ(got.rows.size(), expected->size()) << sql;
  for (size_t i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(got.rows[i].size(), (*expected)[i].size());
    for (size_t j = 0; j < (*expected)[i].size(); ++j) {
      ASSERT_TRUE(got.rows[i][j] == (*expected)[i][j])
          << sql << " row " << i << " col " << j << ": got "
          << got.rows[i][j].ToString() << " want "
          << (*expected)[i][j].ToString();
    }
  }
}

TEST(SpillTest, OrderBySpillsAndMatchesOracle) {
  GhostDB db(SpillConfig(/*budget_buffers=*/1));
  BuildBig(&db, 4000);
  auto r = db.Query(
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u);
  EXPECT_GT(r->metrics.sort_spill_pages, 0u);
  ExpectMatchesOracle(&db, "SELECT R.id, R.v FROM R WHERE R.h >= 0 "
                           "ORDER BY R.v", *r);
}

TEST(SpillTest, MultiKeyDescendingSpillSortMatchesOracle) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 3000);
  const char* sql =
      "SELECT R.v, R.d, R.id FROM R WHERE R.h >= 0 "
      "ORDER BY R.v DESC, R.d";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, DistinctSpillsAndMatchesOracle) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 4000);
  // v x d has ~4000 candidate keys of 8 bytes: far past a 2 KB budget.
  const char* sql = "SELECT DISTINCT R.v, R.d FROM R WHERE R.h >= 0";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, DistinctSpillSurvivesRunCountNearFreeBufferCount) {
  // Regression: the final merge of Distinct's value phase holds one reader
  // buffer per run while the arrival phase consumes the stream — and the
  // arrival phase may need a spill buffer of its own. When the value
  // phase's run count landed exactly on the free-buffer count, the merge
  // once took every free buffer and the arrival spill failed with
  // ResourceExhausted. Sweep row counts around that boundary (~32 runs of
  // 128 rows under a 1-buffer budget).
  for (uint32_t rows : {4000u, 4100u, 4200u, 4300u}) {
    SCOPED_TRACE(rows);
    GhostDB db(SpillConfig(1));
    BuildBig(&db, rows);
    const char* sql = "SELECT DISTINCT R.v, R.d FROM R WHERE R.h >= 0";
    auto r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectMatchesOracle(&db, sql, *r);
  }
}

TEST(SpillTest, MoreRunsThanBuffersStreamThroughWindows) {
  // ~71 generation runs against a 32-buffer device: the final merge reads
  // every run through a slice of a buffer instead of merging runs down, so
  // the only spill pages written are the generations'.
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 12000);
  const char* sql = "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t generations = GenerationRuns(12000, 4 + 4 + exec::kSpillSeqWidth);
  EXPECT_GT(generations, db.device().ram().total_buffers());
  EXPECT_EQ(r->metrics.sort_spill_runs, generations);
  EXPECT_EQ(r->metrics.sort_merge_pages, 0u);
  EXPECT_EQ(r->metrics.sort_spill_pages, generations);  // one page each
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, WindowsUnderMinimumFallBackToMergeDown) {
  // A 6-buffer device leaves a final-merge fan-in of at most 4 buffers;
  // ~142 runs would get windows under kMinSpillWindowBytes, so the sorter
  // merges runs down first — and still answers exactly.
  GhostDBConfig cfg = SpillConfig(1);
  cfg.device.ram_bytes = 6 * 2048;
  GhostDB db(cfg);
  BuildBig(&db, 24000);
  const char* sql = "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t generations = GenerationRuns(24000, 4 + 4 + exec::kSpillSeqWidth);
  uint64_t max_fan_in = db.device().ram().total_buffers() - 2;
  EXPECT_LT(max_fan_in * 2048 / generations, exec::kMinSpillWindowBytes);
  EXPECT_GT(r->metrics.sort_merge_pages, 0u);
  EXPECT_EQ(r->metrics.sort_spill_pages,
            generations + r->metrics.sort_merge_pages);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, RowRunReaderRowsStraddleWindowsAndPages) {
  // 28-byte rows through 200-byte windows: neither divides the other or
  // the 2048-byte page, so rows cross window and page edges. Every page
  // is loaded in ceil(bytes on it / 200) partial reads.
  SimClock clock;
  flash::FlashConfig flash_cfg;
  flash_cfg.logical_pages = 1024;
  flash::FlashDevice flash(flash_cfg, &clock);
  storage::PageAllocator allocator(&flash);
  constexpr uint32_t kWidth = 28, kWindow = 200, kRows = 500;
  std::vector<uint8_t> page(2048), row(kWidth);
  storage::RunWriter writer(&flash, &allocator, page.data(), "straddle");
  for (uint32_t i = 0; i < kRows; ++i) {
    for (uint32_t b = 0; b < kWidth; ++b) {
      row[b] = static_cast<uint8_t>(i * 7 + b);
    }
    ASSERT_TRUE(writer.Append(row.data(), kWidth).ok());
  }
  auto run = writer.Finish();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  uint64_t bytes = run->bytes;
  uint32_t pages = run->page_count();
  uint64_t expected_loads = 0;
  for (uint32_t p = 0; p < pages; ++p) {
    uint64_t on_page = std::min<uint64_t>(2048, bytes - p * uint64_t{2048});
    expected_loads += (on_page + kWindow - 1) / kWindow;
  }
  uint64_t loads_before = flash.stats().pages_read;
  std::vector<uint8_t> window(kWindow);
  exec::RowRunReader reader(&flash, *run, kWidth, window.data(), kWindow);
  ASSERT_TRUE(reader.Prime().ok());
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(reader.valid()) << i;
    for (uint32_t b = 0; b < kWidth; ++b) {
      ASSERT_EQ(reader.row()[b], static_cast<uint8_t>(i * 7 + b))
          << "row " << i << " byte " << b;
    }
    ASSERT_TRUE(reader.Advance().ok());
  }
  EXPECT_FALSE(reader.valid());
  EXPECT_EQ(flash.stats().pages_read - loads_before, expected_loads);
  ASSERT_TRUE(storage::FreeRun(&allocator, *run, "straddle").ok());
}

TEST(SpillTest, TopKHeapStaysInMemoryAndMatchesOracle) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 4000);
  // k << n: the fused top-K keeps a 7-row heap; no spill, and almost all
  // rows are rejected against the heap top without being buffered. Ties
  // (v from a 40-value domain) must keep arrival order — the oracle's
  // stable sort is the judge.
  const char* sql =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v LIMIT 7";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.sort_spill_runs, 0u);
  EXPECT_GT(r->metrics.topk_short_circuits, 3000u);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, TopKLargeKDegradesToSpillingSort) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 4000);
  // k itself exceeds the 1-buffer budget: the fused operator degrades to
  // the external sort truncated at k, not an unbounded heap.
  const char* sql =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v LIMIT 2000";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, DistinctOrderByLimitComposedUnderTinyBudget) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 3000);
  const char* sql =
      "SELECT DISTINCT R.v, R.d FROM R WHERE R.h >= 0 "
      "ORDER BY R.v DESC LIMIT 9";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, TopKWithinOneBufferBudgetServesWithoutSpilling) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 4000);
  // The same data + ORDER BY that spills without a LIMIT: with a k that
  // fits the 1-buffer budget the fused top-K serves from its heap alone.
  const char* topk =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v LIMIT 5";
  auto r = db.Query(topk);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.sort_spill_runs, 0u);
  ExpectMatchesOracle(&db, topk, *r);
}

TEST(SpillTest, TinySessionPartitionSpillsInsteadOfFailing) {
  // No config override: the budget derives from the session's own RAM
  // partition quota. A 2-buffer session sorts 4000 rows by spilling.
  GhostDB db(SpillConfig(/*budget_buffers=*/0));
  BuildBig(&db, 4000);
  core::SessionOptions options;
  options.name = "tiny";
  options.ram_quota_buffers = 2;
  auto session = db.OpenSession(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const char* sql =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v";
  auto r = (*session)->Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u);
  ExpectMatchesOracle(&db, sql, *r);
}

TEST(SpillTest, SpillCountersAccumulateIntoSessionTotals) {
  GhostDB db(SpillConfig(1));
  BuildBig(&db, 3000);
  auto session = db.OpenSession({});
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Query(
      "SELECT R.id FROM R WHERE R.h >= 0 ORDER BY R.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*session)->metrics().sort_spill_runs,
            r->metrics.sort_spill_runs);
  EXPECT_GT((*session)->metrics().sort_spill_pages, 0u);
}

}  // namespace
}  // namespace ghostdb
