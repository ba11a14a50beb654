// Sharded-fleet correctness tests: one logical database hash-partitioned
// across N simulated SecureDevices must be *semantically invisible* — every
// query answers (or fails) byte-identically at every shard count, because
// the scatter legs ship projected rows stamped with global row seqs, the
// gather merges them back into the single-device row order, and the
// relational tail — grouping and aggregates included — runs once over it.
//
// The loader-level partitioning contract is tested directly too: only the
// schema root's rows shard (splitmix64 over the visible global id, assigned
// in ascending order so local ids are dense and order-preserving); every
// other table is replicated; the assignment is a pure function of visible
// data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "core/loader.h"
#include "fuzz_common.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;

GhostDBConfig ShardedFuzzConfig(uint64_t visible_seed, uint32_t shards,
                                bool retain_staged = false) {
  GhostDBConfig cfg = fuzztest::FuzzConfig(visible_seed, retain_staged);
  cfg.shard_count = shards;
  return cfg;
}

void ExpectSameAnswer(const exec::QueryResult& a, const exec::QueryResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.total_rows, b.total_rows) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << what << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_TRUE(a.rows[r][c] == b.rows[r][c])
          << what << " row " << r << " col " << c << ": "
          << a.rows[r][c].ToString() << " vs " << b.rows[r][c].ToString();
    }
  }
}

// Runs `sql` against every database and asserts all agree with the first
// (status kind included: a data-dependent error like MIN over an empty
// result must be the same error at every shard count).
void ExpectShardInvariant(const std::vector<GhostDB*>& dbs,
                          const std::string& sql) {
  SCOPED_TRACE(sql);
  std::vector<Result<exec::QueryResult>> results;
  results.reserve(dbs.size());
  for (GhostDB* db : dbs) results.push_back(db->Query(sql));
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].ok(), results[i].ok())
        << "shard_count[" << i << "]: " << results[0].status().ToString()
        << " vs " << results[i].status().ToString();
    if (!results[0].ok()) {
      EXPECT_EQ(results[0].status().code(), results[i].status().code());
      continue;
    }
    ExpectSameAnswer(*results[0], *results[i],
                     "vs fleet #" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Loader-level partitioning contract
// ---------------------------------------------------------------------------

TEST(ShardTest, PartitionStagedByRootContract) {
  const uint64_t kVisible = 4242;
  GhostDB db(ShardedFuzzConfig(kVisible, 1, /*retain_staged=*/true));
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, kVisible, 7).ok());
  const auto& staged = db.staged();
  const catalog::Schema& schema = db.schema();
  const catalog::TableId root = schema.root();
  const core::TableData& root_data = staged[root];

  for (uint32_t shards : {2u, 3u, 4u}) {
    SCOPED_TRACE(shards);
    auto parts = core::PartitionStagedByRoot(schema, staged, shards);
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    ASSERT_EQ(parts->shards.size(), shards);
    ASSERT_EQ(parts->root_global_ids.size(), shards);

    // Root rows: disjoint cover of [0, rows), strictly ascending per shard,
    // and each shard-local row is a byte copy of its global row.
    std::vector<int> owner(root_data.row_count(), -1);
    for (uint32_t s = 0; s < shards; ++s) {
      const auto& ids = parts->root_global_ids[s];
      const core::TableData& slice = parts->shards[s][root];
      ASSERT_EQ(slice.row_count(), ids.size());
      ASSERT_EQ(slice.row_width(), root_data.row_width());
      for (size_t local = 0; local < ids.size(); ++local) {
        catalog::RowId gid = ids[local];
        ASSERT_LT(gid, root_data.row_count());
        if (local > 0) {
          EXPECT_LT(ids[local - 1], gid) << "local ids must be ascending";
        }
        EXPECT_EQ(owner[gid], -1) << "row " << gid << " assigned twice";
        owner[gid] = static_cast<int>(s);
        EXPECT_EQ(std::memcmp(slice.bytes().data() +
                                  local * slice.row_width(),
                              root_data.bytes().data() +
                                  static_cast<uint64_t>(gid) *
                                      root_data.row_width(),
                              root_data.row_width()),
                  0)
            << "row " << gid << " bytes differ on shard " << s;
      }
    }
    for (size_t r = 0; r < owner.size(); ++r) {
      EXPECT_NE(owner[r], -1) << "row " << r << " unassigned";
    }

    // Every non-root table is replicated byte-for-byte on every shard.
    for (catalog::TableId t = 0; t < schema.table_count(); ++t) {
      if (t == root) continue;
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(parts->shards[s][t].bytes(), staged[t].bytes())
            << "table " << t << " shard " << s;
      }
    }
  }

  // shard_count == 1 degenerates to identity with empty (identity) id maps.
  auto one = core::PartitionStagedByRoot(schema, staged, 1);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->shards.size(), 1u);
  EXPECT_TRUE(one->root_global_ids[0].empty());
  for (catalog::TableId t = 0; t < schema.table_count(); ++t) {
    EXPECT_EQ(one->shards[0][t].bytes(), staged[t].bytes());
  }

  EXPECT_FALSE(core::PartitionStagedByRoot(schema, staged, 0).ok());
}

TEST(ShardTest, PartitionAssignmentIsHiddenInvariant) {
  // The shard a root row lands on hashes its visible global id only, so
  // two databases differing ONLY in hidden data partition identically —
  // the property that keeps per-shard transcripts hidden-invariant.
  const uint64_t kVisible = 555;
  GhostDB a(ShardedFuzzConfig(kVisible, 1, /*retain_staged=*/true));
  GhostDB b(ShardedFuzzConfig(kVisible, 1, /*retain_staged=*/true));
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&a, kVisible, 111).ok());
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&b, kVisible, 999).ok());
  auto pa = core::PartitionStagedByRoot(a.schema(), a.staged(), 4);
  auto pb = core::PartitionStagedByRoot(b.schema(), b.staged(), 4);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa->root_global_ids, pb->root_global_ids);
}

// ---------------------------------------------------------------------------
// End-to-end answer invariance across shard counts
// ---------------------------------------------------------------------------

// The fixed battery: every execution shape the scatter-gather path must
// reassemble — row streams (merge by seq), DISTINCT / ORDER BY / LIMIT and
// scalar and grouped aggregates at the gather, on_id
// predicates (global-id substitution on the untrusted side), and non-root
// anchors (complete on shard 0, no fanout).
const char* const kFixedQueries[] = {
    // Root-anchored row streams.
    "SELECT T0.id, T0.v FROM T0 WHERE T0.v < 100",
    "SELECT T0.v, T0.h FROM T0 WHERE T0.h < 80",
    "SELECT * FROM T0 WHERE T0.v < 60 AND T0.h > 20",
    // on_id predicates must see GLOBAL ids, not shard-local ones.
    "SELECT T0.id FROM T0 WHERE T0.id < 37",
    "SELECT T0.id, T0.v FROM T0 WHERE T0.id >= 100 AND T0.id < 140",
    // Relational tail above the gather merge.
    "SELECT T0.v FROM T0 WHERE T0.h < 90 ORDER BY T0.v DESC",
    "SELECT DISTINCT T0.v FROM T0 WHERE T0.h < 70",
    "SELECT T0.id, T0.v FROM T0 WHERE T0.v < 120 ORDER BY T0.v LIMIT 7",
    "SELECT DISTINCT T0.v FROM T0 ORDER BY T0.v DESC LIMIT 9",
    // Scalar aggregates folded once at the gather (COUNT/SUM/AVG/MIN/MAX,
    // int and double).
    "SELECT COUNT(*) FROM T0 WHERE T0.h < 50",
    "SELECT SUM(T0.v), MIN(T0.h), MAX(T0.h), AVG(T0.v) FROM T0",
    "SELECT COUNT(*), SUM(T0.h) FROM T0 WHERE T0.v < 90",
    // Grouped aggregation: group order = first arrival in the merged
    // stream, which is the single-device arrival order.
    "SELECT T0.v, COUNT(*), SUM(T0.h) FROM T0 GROUP BY T0.v",
    "SELECT T0.v, AVG(T0.h) FROM T0 WHERE T0.h < 80 GROUP BY T0.v "
    "ORDER BY AVG(T0.h) DESC LIMIT 5",
    "SELECT T0.v, T0.h FROM T0 GROUP BY T0.v, T0.h",
    // Joins across the schema tree (anchor stays T0 -> still fanned out).
    "SELECT T0.id, T1.v FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.h < 60",
    "SELECT T0.v, T2.v FROM T0, T2 WHERE T0.fk2 = T2.id AND T0.h < 70 "
    "ORDER BY T0.v LIMIT 20",
    "SELECT T1.vs, COUNT(*) FROM T0, T1 WHERE T0.fk1 = T1.id "
    "GROUP BY T1.vs",
    "SELECT T0.id, T11.v FROM T0, T1, T11 WHERE T0.fk1 = T1.id AND "
    "T1.fk11 = T11.id AND T11.h < 50",
    // Non-root anchors: replicated tables, answered whole on shard 0.
    "SELECT T1.v, T1.vs FROM T1 WHERE T1.h < 60 ORDER BY T1.v",
    "SELECT T2.v, SUM(T2.bh) FROM T2 GROUP BY T2.v",
    "SELECT T11.v FROM T1, T11 WHERE T1.fk11 = T11.id AND T1.h < 50",
    "SELECT COUNT(*) FROM T12 WHERE T12.h < 40",
    // Hidden-empty results and double aggregates (±0.0 edge lives in dh).
    "SELECT T0.id FROM T0 WHERE T0.v < 0",
    "SELECT SUM(T11.dh), MIN(T11.dh) FROM T11",
};

TEST(ShardTest, FixedQueriesAreByteIdenticalAcrossShardCounts) {
  const uint64_t kVisible = 20070611;
  GhostDB one(ShardedFuzzConfig(kVisible, 1));
  GhostDB two(ShardedFuzzConfig(kVisible, 2));
  GhostDB four(ShardedFuzzConfig(kVisible, 4));
  for (GhostDB* db : {&one, &two, &four}) {
    ASSERT_TRUE(fuzztest::BuildFuzzDb(db, kVisible, 31337).ok());
  }
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(two.shard_count(), 2u);
  EXPECT_EQ(four.shard_count(), 4u);
  for (const char* sql : kFixedQueries) {
    ExpectShardInvariant({&one, &two, &four}, sql);
  }
}

TEST(ShardTest, ForcedSpillAnswersAreShardCountInvariant) {
  // One-buffer relational-tail budget: the gather tail spills to flash
  // exactly as a single device's tail does; the answer must not notice.
  const uint64_t kVisible = 90210;
  std::vector<std::unique_ptr<GhostDB>> dbs;
  std::vector<GhostDB*> raw;
  for (uint32_t shards : {1u, 2u, 4u}) {
    GhostDBConfig cfg = ShardedFuzzConfig(kVisible, shards);
    cfg.exec.sort_budget_buffers = 1;
    dbs.push_back(std::make_unique<GhostDB>(cfg));
    ASSERT_TRUE(fuzztest::BuildFuzzDb(dbs.back().get(), kVisible, 99).ok());
    raw.push_back(dbs.back().get());
  }
  for (const char* sql : {
           "SELECT T0.id, T0.h FROM T0 ORDER BY T0.h DESC",
           "SELECT DISTINCT T0.v, T0.h FROM T0 WHERE T0.h < 90",
           "SELECT T0.id, T0.v FROM T0 WHERE T0.h >= 0 ORDER BY T0.v "
           "LIMIT 6",
           "SELECT T0.v, COUNT(*), SUM(T0.h) FROM T0 GROUP BY T0.v",
           "SELECT T0.v, T2.v, MAX(T0.h) FROM T0, T2 WHERE "
           "T0.fk2 = T2.id GROUP BY T0.v, T2.v ORDER BY MAX(T0.h) DESC "
           "LIMIT 10",
       }) {
    ExpectShardInvariant(raw, sql);
  }
}

TEST(ShardTest, PaddedVolumeModesAreShardCountInvariant) {
  // Worst-case padding targets the fleet-wide bound at the gather — the
  // sum of the legs' local bounds, not any one shard's — so the padded
  // volume and the stripped answer must match the single-device run
  // exactly. The statements with a visible predicate on T0 exercise the
  // |Vis(T0)| bound each leg reports; the others, the row-count bound.
  // T0.h >= 0 is always true: it keeps a statement that would be
  // visible-only (padded by nothing) on the key's padded path.
  const uint64_t kVisible = 777;
  for (auto mode : {exec::VolumePadding::kQuantize,
                    exec::VolumePadding::kWorstCase}) {
    SCOPED_TRACE(static_cast<int>(mode));
    std::vector<std::unique_ptr<GhostDB>> dbs;
    std::vector<GhostDB*> raw;
    for (uint32_t shards : {1u, 3u}) {
      GhostDBConfig cfg = ShardedFuzzConfig(kVisible, shards);
      cfg.exec.volume_padding = mode;
      cfg.exec.pad_spill_runs = true;
      cfg.exec.sort_budget_buffers = 1;
      dbs.push_back(std::make_unique<GhostDB>(cfg));
      ASSERT_TRUE(
          fuzztest::BuildFuzzDb(dbs.back().get(), kVisible, 5).ok());
      raw.push_back(dbs.back().get());
    }
    for (const char* sql : {
             "SELECT T0.id FROM T0 WHERE T0.h < 40",
             "SELECT T0.v FROM T0 WHERE T0.h < 70 ORDER BY T0.v LIMIT 8",
             "SELECT T0.v, COUNT(*) FROM T0 WHERE T0.h >= 0 GROUP BY T0.v",
             "SELECT COUNT(*) FROM T0 WHERE T0.h > 60",
             "SELECT T0.id FROM T0 WHERE T0.v < 90 AND T0.h >= 0",
             "SELECT T0.id FROM T0 WHERE T0.v < 90 AND T0.h < 40",
             "SELECT T0.id, T0.v FROM T0 WHERE T0.v >= 30 AND T0.h >= 0 "
             "ORDER BY T0.v",
             "SELECT T0.id, T0.v FROM T0 WHERE T0.v >= 30 AND T0.h < 50 "
             "ORDER BY T0.v",
             "SELECT DISTINCT T0.v FROM T0 WHERE T0.v < 120 AND T0.h >= 0",
             "SELECT DISTINCT T0.v FROM T0 WHERE T0.v < 120 AND T0.h > 20",
             "SELECT T0.v, COUNT(*) FROM T0 WHERE T0.v < 100 AND T0.h >= 0 "
             "GROUP BY T0.v",
             "SELECT T0.v, COUNT(*) FROM T0 WHERE T0.v < 100 AND T0.h < 60 "
             "GROUP BY T0.v",
         }) {
      SCOPED_TRACE(sql);
      auto r1 = raw[0]->Query(sql);
      auto r3 = raw[1]->Query(sql);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      ASSERT_TRUE(r3.ok()) << r3.status().ToString();
      ExpectSameAnswer(*r1, *r3, sql);
      // The defense itself must not weaken with the fleet: identical
      // observed volumes, not just identical answers.
      EXPECT_EQ(r1->metrics.padding_rows, r3->metrics.padding_rows) << sql;
      EXPECT_EQ(r1->metrics.observed_volume, r3->metrics.observed_volume)
          << sql;
    }
  }
}

TEST(ShardTest, SessionQueriesRunOnShardedFleets) {
  // A session pledges a RAM partition on EVERY shard; its queries take the
  // sharded path and answer identically to the database-level surface.
  const uint64_t kVisible = 13579;
  GhostDB one(ShardedFuzzConfig(kVisible, 1));
  GhostDB four(ShardedFuzzConfig(kVisible, 4));
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&one, kVisible, 21).ok());
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&four, kVisible, 21).ok());
  core::SessionOptions opts;
  opts.name = "alice";
  opts.ram_quota_buffers = 8;
  auto session = four.OpenSession(std::move(opts));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* sql : {
           "SELECT T0.id, T0.v FROM T0 WHERE T0.h < 60 ORDER BY T0.v",
           "SELECT T0.v, COUNT(*) FROM T0 GROUP BY T0.v",
           "SELECT T1.v FROM T1 WHERE T1.h < 50",
       }) {
    SCOPED_TRACE(sql);
    auto expected = one.Query(sql);
    auto got = (*session)->Query(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameAnswer(*expected, *got, sql);
  }
}

TEST(ShardTest, TinyRootLeavesSomeShardsEmpty) {
  // More shards than root rows: empty scatter legs must contribute nothing
  // (not garbage) to the merge.
  GhostDBConfig base;
  base.device.flash.logical_pages = 32 * 1024;
  GhostDBConfig sharded = base;
  sharded.shard_count = 4;
  GhostDB one(base), four(sharded);
  for (GhostDB* db : {&one, &four}) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE R (id INT, v INT, h INT HIDDEN)").ok());
    auto r = db->MutableStaging("R");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->AppendRow({Value::Int32(5), Value::Int32(50)}).ok());
    ASSERT_TRUE((*r)->AppendRow({Value::Int32(3), Value::Int32(30)}).ok());
    ASSERT_TRUE((*r)->AppendRow({Value::Int32(9), Value::Int32(90)}).ok());
    ASSERT_TRUE(db->Build().ok());
  }
  for (const char* sql : {
           "SELECT R.v FROM R",
           "SELECT R.v FROM R ORDER BY R.v DESC",
           "SELECT COUNT(*), SUM(R.h), MIN(R.h) FROM R",
           "SELECT R.id FROM R WHERE R.h > 200",
           "SELECT R.v, COUNT(*) FROM R GROUP BY R.v",
       }) {
    ExpectShardInvariant({&one, &four}, sql);
  }
}

TEST(ShardTest, VisibleOnlyStatementsAreShardCountInvariant) {
  // A root-anchored visible-only statement fans out: each shard's PC
  // projects its slice, the coordinator's PC runs the tail once and splits
  // the final rows into one key range per shard's channel, and the gather
  // concatenates them. Answers, counts and the observed volume must be a
  // single device's at every fleet size — with and without a
  // materialization cap, and for anchors that do not fan out.
  const uint64_t kVisible = 4242;
  for (uint64_t row_limit : {UINT64_MAX, uint64_t{5}}) {
    SCOPED_TRACE("result_row_limit=" + std::to_string(row_limit));
    std::vector<std::unique_ptr<GhostDB>> dbs;
    std::vector<GhostDB*> raw;
    for (uint32_t shards : {1u, 2u, 4u}) {
      GhostDBConfig cfg = ShardedFuzzConfig(kVisible, shards);
      cfg.exec.result_row_limit = row_limit;
      dbs.push_back(std::make_unique<GhostDB>(cfg));
      ASSERT_TRUE(fuzztest::BuildFuzzDb(dbs.back().get(), kVisible, 8).ok());
      raw.push_back(dbs.back().get());
    }
    for (const char* sql : {
             "SELECT T0.id, T0.v FROM T0 WHERE T0.v < 60",
             "SELECT T0.v FROM T0 WHERE T0.id >= 40 LIMIT 11",
             "SELECT T0.id, T0.v FROM T0 ORDER BY T0.v DESC LIMIT 13",
             "SELECT T0.v, T0.id FROM T0 WHERE T0.v > 10 ORDER BY T0.v",
             "SELECT DISTINCT T0.v FROM T0 ORDER BY T0.v",
             "SELECT T0.v, COUNT(*), MIN(T0.id) FROM T0 GROUP BY T0.v",
             "SELECT COUNT(*), SUM(T0.v), AVG(T0.v) FROM T0",
             "SELECT COUNT(*) FROM T0 WHERE T0.v < 0",
             "SELECT T0.id FROM T0 WHERE T0.v < 0",
             "SELECT T1.vs, COUNT(*) FROM T1 GROUP BY T1.vs ORDER BY T1.vs",
         }) {
      SCOPED_TRACE(sql);
      std::vector<exec::QueryResult> results;
      for (GhostDB* db : raw) {
        for (uint32_t s = 0; s < db->shard_count(); ++s) {
          db->shard_device(s).channel().ClearTranscript();
        }
        auto r = db->Query(sql);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        // Every leg's key hears the query and its range of the result.
        for (uint32_t s = 0; s < db->shard_count(); ++s) {
          const auto& t = db->shard_device(s).channel().transcript();
          if (s > 0 && t.empty()) continue;  // T1 is not partitioned
          ASSERT_EQ(t.size(), 2u) << "shard " << s;
          EXPECT_EQ(t[1].label.rfind("vis-result:", 0), 0u) << t[1].label;
        }
        EXPECT_EQ(r->metrics.padding_rows, 0u);
        EXPECT_EQ(r->metrics.observed_volume, r->total_rows);
        results.push_back(std::move(*r));
      }
      for (size_t i = 1; i < results.size(); ++i) {
        ExpectSameAnswer(results[0], results[i],
                         "vs fleet #" + std::to_string(i));
        EXPECT_EQ(results[0].metrics.observed_volume,
                  results[i].metrics.observed_volume);
      }
    }
  }
}

TEST(ShardTest, SumOverflowFailsAtEveryShardCount) {
  // A running SUM that overflows INT64 and then cancels. One device folds
  // v in row order — INT64_MAX (row 0), then +1 (row 2) overflows — and
  // fails with OutOfRange, as the oracle does. A fleet of two holds rows 0
  // and 3 on one shard and row 2 on the other, so per-shard subtotals
  // (INT64_MAX - 1 and 1) would cancel without overflowing; the gather
  // folds the merged rows in single-device order and fails the same way.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::unique_ptr<GhostDB>> dbs;
  std::vector<GhostDB*> raw;
  for (uint32_t shards : {1u, 2u, 4u}) {
    GhostDBConfig cfg;
    cfg.device.flash.logical_pages = 32 * 1024;
    cfg.shard_count = shards;
    cfg.retain_staged_data = true;
    dbs.push_back(std::make_unique<GhostDB>(cfg));
    GhostDB* db = dbs.back().get();
    ASSERT_TRUE(db->Execute(
                      "CREATE TABLE R (id INT, v BIGINT HIDDEN, g INT)")
                    .ok());
    auto r = db->MutableStaging("R");
    ASSERT_TRUE(r.ok());
    for (int row = 0; row < 16; ++row) {
      int64_t v = row == 0 ? kMax : row == 2 ? 1 : row == 3 ? -1 : 0;
      int32_t g = row == 0 || row == 2 || row == 3 ? 0 : 1;
      ASSERT_TRUE((*r)->AppendRow({Value::Int64(v), Value::Int32(g)}).ok());
    }
    ASSERT_TRUE(db->Build().ok());
    raw.push_back(db);
  }
  // The partition that makes per-shard subtotals cancel.
  auto parts = core::PartitionStagedByRoot(raw[0]->schema(),
                                           raw[0]->staged(), 2);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  auto shard_of = [&](catalog::RowId gid) {
    for (uint32_t s = 0; s < 2; ++s) {
      const auto& ids = parts->root_global_ids[s];
      if (std::find(ids.begin(), ids.end(), gid) != ids.end()) return s;
    }
    return 2u;
  };
  EXPECT_EQ(shard_of(0), shard_of(3));
  EXPECT_NE(shard_of(0), shard_of(2));

  for (const char* sql : {
           "SELECT SUM(R.v) FROM R",
           "SELECT R.g, SUM(R.v) FROM R GROUP BY R.g",
       }) {
    SCOPED_TRACE(sql);
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound =
        sql::Bind(std::get<sql::SelectStmt>(*stmt), raw[0]->schema(), sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto expected =
        reference::Evaluate(raw[0]->schema(), raw[0]->staged(), *bound);
    EXPECT_TRUE(expected.status().IsOutOfRange())
        << expected.status().ToString();
    auto single = raw[0]->Query(sql);
    EXPECT_TRUE(single.status().IsOutOfRange()) << single.status().ToString();
    ExpectShardInvariant(raw, sql);
  }
}

TEST(ShardTest, FuzzedQueriesAreShardCountInvariant) {
  // Property sweep over the full generated query space (joins, aggregates,
  // GROUP BY, DISTINCT, ORDER BY, LIMIT, hidden/visible/on_id predicates):
  // fleets of 1, 2, and 4 shards over the same data must agree on every
  // answer and every data-dependent error kind.
  uint64_t queries = fuzztest::EnvOr("GHOSTDB_SHARD_FUZZ_ITERS", 60);
  uint64_t base_seed = fuzztest::EnvOr("GHOSTDB_SHARD_FUZZ_SEED", 20070611,
                                       /*allow_zero=*/true);
  const uint64_t kQueriesPerShape = 30;
  for (uint64_t done = 0; done < queries;) {
    uint64_t visible_seed = base_seed + 9000 * (done / kQueriesPerShape) + 3;
    GhostDB one(ShardedFuzzConfig(visible_seed, 1));
    GhostDB two(ShardedFuzzConfig(visible_seed, 2));
    GhostDB four(ShardedFuzzConfig(visible_seed, 4));
    for (GhostDB* db : {&one, &two, &four}) {
      ASSERT_TRUE(fuzztest::BuildFuzzDb(db, visible_seed, 424242).ok());
    }
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t i = 0; i < kQueriesPerShape && done < queries;
         ++i, ++done) {
      uint64_t query_seed = visible_seed ^ (i * 0x2545F491ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      std::string repro = "visible_seed=" + std::to_string(visible_seed) +
                          " query_seed=" + std::to_string(query_seed) +
                          " sql=" + sql;
      SCOPED_TRACE(repro);
      bool had_failure = ::testing::Test::HasFailure();
      ExpectShardInvariant({&one, &two, &four}, sql);
      if (!had_failure && ::testing::Test::HasFailure()) {
        std::ofstream out(fuzztest::FailureFile(), std::ios::app);
        out << "[shard] " << repro << "\n";
      }
    }
  }
}

}  // namespace
}  // namespace ghostdb
