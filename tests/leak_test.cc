// Leak-freedom property tests — the paper's core security claim: "the only
// information revealed to a potential spy is which queries you pose" plus
// the Visible data transmitted.
//
// Method: run the same query against two databases that differ ONLY in
// Hidden data and assert that everything observable outside the Secure key
// — the channel transcript (direction, order, labels, sizes, payload
// digests) — is byte-identical. Any strategy decision, intermediate size,
// or request pattern influenced by Hidden data would show up here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "device/channel.h"
#include "fuzz_common.h"
#include "plan/strategy.h"
#include "transcript_common.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;
using device::ChannelMessage;
using device::Direction;

GhostDBConfig Config() {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  return cfg;
}

// Builds a two-table database; `hidden_seed` perturbs ONLY hidden column
// values (visible columns and fks stay identical).
void BuildDb(GhostDB* db, uint64_t hidden_seed, int fact_rows = 3000) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Dim (id INT, v INT, h INT HIDDEN)").ok());
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                  "v INT, h INT HIDDEN)")
          .ok());
  Rng shared(7);        // visible data + fks: identical across databases
  Rng hidden(hidden_seed);
  auto dim = db->MutableStaging("Dim");
  ASSERT_TRUE(dim.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        (*dim)
            ->AppendRow({Value::Int32(static_cast<int32_t>(
                             shared.Uniform(100))),
                         Value::Int32(static_cast<int32_t>(
                             hidden.Uniform(100)))})
            .ok());
  }
  auto fact = db->MutableStaging("Fact");
  ASSERT_TRUE(fact.ok());
  for (int i = 0; i < fact_rows; ++i) {
    ASSERT_TRUE(
        (*fact)
            ->AppendRow({Value::Int32(static_cast<int32_t>(
                             shared.Uniform(300))),
                         Value::Int32(static_cast<int32_t>(
                             shared.Uniform(100))),
                         Value::Int32(static_cast<int32_t>(
                             hidden.Uniform(100)))})
            .ok());
  }
  ASSERT_TRUE(db->Build().ok());
}

// Transcript equality lives in transcript_common.h, shared with the attack
// harness (which feeds the same observer view into inference procedures).
using transcript::ExpectIdenticalTranscripts;

void RunAndCompare(const std::string& sql,
                   const GhostDBConfig& config = Config()) {
  GhostDB db1(config), db2(config);
  BuildDb(&db1, /*hidden_seed=*/111);
  BuildDb(&db2, /*hidden_seed=*/999);
  db1.device().channel().ClearTranscript();
  db2.device().channel().ClearTranscript();
  auto r1 = db1.Query(sql);
  auto r2 = db2.Query(sql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                             db2.device().channel().transcript());
}

TEST(LeakTest, HiddenSelectionQuery) {
  RunAndCompare(
      "SELECT Fact.id FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 40 AND Fact.v < 50");
}

TEST(LeakTest, HiddenEqualityWithProjection) {
  RunAndCompare(
      "SELECT Fact.id, Fact.h, Dim.v FROM Fact, Dim WHERE "
      "Fact.fk = Dim.id AND Dim.h = 13 AND Dim.v < 60");
}

TEST(LeakTest, HiddenOnlyQuery) {
  RunAndCompare("SELECT Fact.id FROM Fact WHERE Fact.h >= 77");
}

TEST(LeakTest, StarProjection) {
  RunAndCompare("SELECT * FROM Dim WHERE Dim.v < 30 AND Dim.h > 10");
}

TEST(LeakTest, TranscriptDependsOnlyOnQueryNotOnHiddenResultSize) {
  // A query matching nothing vs (on the other db) potentially many rows:
  // the transcript must still be identical — result rows never cross the
  // channel.
  RunAndCompare("SELECT Fact.id FROM Fact WHERE Fact.h = 0 AND Fact.v < 99");
}

TEST(LeakTest, SortOperatorLeaksNothing) {
  // ORDER BY sorts on the Secure side, after everything observable: key
  // values, comparison counts, and the sorted order must not touch the
  // channel.
  RunAndCompare(
      "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 50 AND Fact.h < 60 "
      "ORDER BY Fact.h DESC");
}

TEST(LeakTest, LimitOperatorLeaksNothing) {
  // LIMIT cuts the pull stream early; how early depends on hidden data,
  // but all channel traffic happened before the projection stream starts.
  RunAndCompare(
      "SELECT Fact.id FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 40 AND Fact.v < 50 LIMIT 5");
}

TEST(LeakTest, DistinctOperatorLeaksNothing) {
  // The distinct set (its size is hidden-derived) lives on Secure only.
  RunAndCompare(
      "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h < 30 AND Fact.v < 80");
}

TEST(LeakTest, ComposedSortLimitDistinctLeaksNothing) {
  RunAndCompare(
      "SELECT DISTINCT Fact.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 70 AND Fact.v < 60 ORDER BY Fact.v DESC LIMIT 3");
}

TEST(LeakTest, GroupedAggregationLeaksNothing) {
  // The group table (how many groups, their keys, every aggregate) is
  // hidden-derived and lives on Secure only; the grouped result never
  // crosses the channel.
  RunAndCompare(
      "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE Fact.h < 60 "
      "GROUP BY Fact.v");
  RunAndCompare(
      "SELECT Fact.v, Dim.v, MIN(Fact.h) FROM Fact, Dim WHERE "
      "Fact.fk = Dim.id AND Dim.h < 70 GROUP BY Fact.v, Dim.v "
      "ORDER BY MIN(Fact.h) DESC LIMIT 5");
}

TEST(LeakTest, ForcedSpillShapesAreTranscriptInvariant) {
  // Forced-spill shapes: a one-buffer relational-tail budget makes Sort
  // and Distinct spill runs to flash, and makes the fused top-K take both
  // its heap and its large-k fallback paths. How much each database spills
  // depends on its hidden data (the predicates below admit hidden-chosen
  // row counts) — but spilling is device-side flash work, so the channel
  // transcripts must still be byte-identical.
  GhostDBConfig tiny = Config();
  tiny.exec.sort_budget_buffers = 1;
  for (const char* sql : {
           // Sort spill; hidden-dependent input size.
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 60 "
           "ORDER BY Fact.h DESC",
           // One side may spill while the other stays in memory.
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 10 "
           "ORDER BY Fact.id",
           // Distinct hash-overflow into sort-based dedup.
           "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80",
           // Fused top-K (bounded heap).
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 70 "
           "ORDER BY Fact.h LIMIT 4",
           // Fused top-K, k past the budget (spilling fallback).
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 70 "
           "ORDER BY Fact.h LIMIT 900",
           // Everything composed across a join.
           "SELECT DISTINCT Fact.v, Dim.v FROM Fact, Dim WHERE "
           "Fact.fk = Dim.id AND Fact.h < 50 ORDER BY Fact.v LIMIT 200",
           // Grouped aggregation: the hidden-dependent group count pushes
           // the table past the 1-buffer budget, so the hash phase
           // freezes and new groups reroute through sort-based grouping
           // — both the hash and overflow paths run, device-side only.
           "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE "
           "Fact.h < 80 GROUP BY Fact.v",
           // Two-key grouping over a join with an aggregate sort on top
           // (group spill feeding a sort spill).
           "SELECT Fact.v, Dim.v, AVG(Fact.h), MAX(Fact.h) FROM Fact, "
           "Dim WHERE Fact.fk = Dim.id AND Fact.h < 70 GROUP BY Fact.v, "
           "Dim.v ORDER BY AVG(Fact.h) DESC LIMIT 30",
           // Grouping with no aggregates (pure key dedup via the group
           // table, spilling).
           "SELECT Fact.v, Fact.h FROM Fact WHERE Fact.h < 90 "
           "GROUP BY Fact.v, Fact.h",
       }) {
    SCOPED_TRACE(sql);
    RunAndCompare(sql, tiny);
  }
}

TEST(LeakTest, PaddedForcedSpillRunCountsAreHiddenInvariant) {
  // Spill-run padding under worst-case volume padding and a one-buffer
  // tail budget: every sorter phase a plan may instantiate ends at the
  // same real + dummy run count whatever the hidden data let through —
  // including a phase that spilled and was then abandoned because a LIMIT
  // above stopped pulling a streaming DISTINCT, and a sort on an 8-buffer
  // device whose ~15 generation runs outnumber its final-merge fan-in (the
  // runs stream through sub-buffer windows, so no merge-down run pushes
  // the real count past the worst-case target).
  GhostDBConfig padded = Config();
  padded.exec.sort_budget_buffers = 1;
  padded.exec.volume_padding = exec::VolumePadding::kWorstCase;
  padded.exec.pad_spill_runs = true;
  GhostDBConfig small_ram = padded;
  small_ram.device.ram_bytes = 8 * 2048;
  struct Shape {
    const GhostDBConfig* config;
    const char* sql;
  };
  for (const Shape& shape : {
           Shape{&padded,
                 "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80 "
                 "LIMIT 7"},
           Shape{&padded,
                 "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80"},
           Shape{&padded,
                 "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE "
                 "Fact.h < 80 GROUP BY Fact.v"},
           Shape{&padded,
                 "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 60 "
                 "ORDER BY Fact.h DESC"},
           Shape{&small_ram,
                 "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 85 "
                 "ORDER BY Fact.h DESC"},
       }) {
    SCOPED_TRACE(shape.sql);
    std::vector<uint64_t> runs;
    for (uint64_t hidden_seed : {111, 333, 999}) {
      GhostDB db(*shape.config);
      BuildDb(&db, hidden_seed);
      auto r = db.Query(shape.sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      runs.push_back(r->metrics.sort_spill_runs +
                     r->metrics.padding_spill_runs);
    }
    EXPECT_GT(runs[0], 0u);
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
  }
}

TEST(LeakTest, BatchPathTranscriptsAreHiddenIndependent) {
  // QueryBatch() runs many statements of two shapes back to back; the
  // whole batch transcript must be hidden-independent.
  GhostDB db1(Config()), db2(Config());
  BuildDb(&db1, /*hidden_seed=*/21);
  BuildDb(&db2, /*hidden_seed=*/22);
  std::vector<std::string> sqls;
  for (int i = 0; i < 12; ++i) {
    sqls.push_back("SELECT Fact.id FROM Fact WHERE Fact.h < " +
                   std::to_string(10 + 5 * i) + " AND Fact.v < 50");
    sqls.push_back("SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h >= " +
                   std::to_string(3 * i) + " ORDER BY Fact.v LIMIT 4");
  }
  db1.device().channel().ClearTranscript();
  db2.device().channel().ClearTranscript();
  auto r1 = db1.QueryBatch(sqls);
  auto r2 = db2.QueryBatch(sqls);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                             db2.device().channel().transcript());
}

TEST(LeakTest, NewOperatorsSendZeroHiddenDerivedBytesToUntrusted) {
  // For Sort/Limit/Distinct and the batch path alike, everything Secure
  // ever sends Untrusted is the query announcements — nothing sized or
  // timed by hidden data.
  GhostDB db(Config());
  BuildDb(&db, 42);
  std::vector<std::string> sqls = {
      "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 40 AND Fact.h < 50 "
      "ORDER BY Fact.h",
      "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h < 25",
      "SELECT Fact.id FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 35 AND Fact.v < 45 ORDER BY Fact.id DESC LIMIT 2",
  };
  db.device().channel().ClearTranscript();
  auto batch = db.QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  uint64_t announced = 0;
  for (const auto& m : db.device().channel().transcript()) {
    if (m.direction == Direction::kToUntrusted) {
      EXPECT_EQ(m.label, "query");  // only the visible statement text
      announced += m.bytes;
    }
  }
  uint64_t query_text_bytes = 0;
  for (const auto& sql : sqls) query_text_bytes += sql.size();
  EXPECT_EQ(announced, query_text_bytes);
  EXPECT_EQ(batch->total.bytes_to_untrusted, query_text_bytes);
}

TEST(LeakTest, NoHiddenBytesEverReachUntrusted) {
  GhostDB db(Config());
  BuildDb(&db, 42);
  db.device().channel().ClearTranscript();
  auto r = db.Query(
      "SELECT Fact.id, Fact.h FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 50 AND Fact.v < 50");
  ASSERT_TRUE(r.ok());
  // Everything Secure sent to Untrusted is a request derived from the
  // query: the query text and tiny fixed-size descriptors.
  for (const auto& m : db.device().channel().transcript()) {
    if (m.direction == Direction::kToUntrusted) {
      EXPECT_EQ(m.label, "query");
      EXPECT_EQ(m.bytes, r->metrics.bytes_to_untrusted);
    }
  }
}

TEST(LeakTest, VisibleStoreRefusesHiddenWork) {
  // Defense in depth: Untrusted must refuse to evaluate hidden predicates
  // or project hidden columns even if asked.
  GhostDB db(Config());
  BuildDb(&db, 42);
  auto dim = db.schema().FindTable("Dim");
  ASSERT_TRUE(dim.ok());
  sql::BoundPredicate hidden_pred;
  hidden_pred.table = *dim;
  hidden_pred.column = 1;  // h
  hidden_pred.hidden = true;
  hidden_pred.op = catalog::CompareOp::kEq;
  hidden_pred.value = Value::Int32(1);
  auto ids = db.untrusted().store().SelectIds(*dim, {hidden_pred});
  EXPECT_TRUE(ids.status().IsSecurityViolation());
  auto proj = db.untrusted().store().Project(*dim, {}, {1});
  EXPECT_TRUE(proj.status().IsSecurityViolation());
}

TEST(LeakTest, FuzzedQueryShapesAreTranscriptInvariant) {
  // Property-style sweep over the fuzz query generator: for every query
  // shape it produces, two databases that differ ONLY in hidden rows must
  // drive the columnar pipeline through byte-identical transcripts. The
  // user-facing status may differ with the data (e.g. MIN over an empty
  // result) — only what crosses the channel is constrained.
  uint64_t queries = fuzztest::EnvOr("GHOSTDB_LEAK_FUZZ_ITERS", 40);
  uint64_t base_seed = fuzztest::EnvOr("GHOSTDB_LEAK_FUZZ_SEED", 20070611,
                                       /*allow_zero=*/true);
  // Rotate the visible seed every 20 queries so larger budgets also vary
  // schema shape, cardinalities, CHAR widths, and index choices — all of
  // which change the transcript a query produces.
  const uint64_t kQueriesPerShape = 20;
  for (uint64_t done = 0; done < queries;) {
    uint64_t visible_seed = base_seed + 3000 * (done / kQueriesPerShape);
    GhostDB db1(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false));
    GhostDB db2(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false));
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db1, visible_seed, 111).ok());
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db2, visible_seed, 999).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t i = 0; i < kQueriesPerShape && done < queries;
         ++i, ++done) {
      uint64_t query_seed = visible_seed ^ (i * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      db1.device().channel().ClearTranscript();
      db2.device().channel().ClearTranscript();
      auto r1 = db1.Query(sql);
      auto r2 = db2.Query(sql);
      // The user-facing status may legitimately differ (it reflects hidden
      // answers, shown only on the secure display); the transcripts may
      // not.
      (void)r1;
      (void)r2;
      std::string repro = "visible_seed=" + std::to_string(visible_seed) +
                          " query_seed=" + std::to_string(query_seed) +
                          " sql=" + sql;
      SCOPED_TRACE(repro);
      bool had_failure = ::testing::Test::HasFailure();
      ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                                 db2.device().channel().transcript());
      if (!had_failure && ::testing::Test::HasFailure()) {
        // Mirror the differential harness: repro seeds land in the file
        // CI uploads as an artifact.
        std::ofstream out(fuzztest::FailureFile(), std::ios::app);
        out << "[leak] " << repro << "\n";
      }
    }
  }
}

TEST(LeakTest, FuzzedInterleavedSessionsAreTranscriptInvariant) {
  // The multi-session headline property: random queries dealt to K
  // sessions, drained under the arbiter, against two databases that differ
  // ONLY in hidden data. The *global interleaved* transcript — message
  // order, sizes, labels, digests, and session tags — must be
  // byte-identical: neither any session's scheduling slot nor any message
  // it causes may depend on any session's hidden data. This is strictly
  // stronger than the single-query invariance above (an arbiter that
  // consulted, say, result sizes would reorder admissions and fail here
  // even if each individual query's messages were unchanged).
  uint64_t rounds = fuzztest::EnvOr("GHOSTDB_SESSION_LEAK_ROUNDS", 3);
  uint64_t base_seed = fuzztest::EnvOr("GHOSTDB_LEAK_FUZZ_SEED", 20070611,
                                       /*allow_zero=*/true);
  const size_t kSessions = 4;
  const size_t kQueries = 40;
  for (uint64_t round = 0; round < rounds; ++round) {
    uint64_t visible_seed = base_seed + 700 * round + 23;
    GhostDB db1(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false));
    GhostDB db2(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false));
    // A third database varying BOTH axes at once — hidden data and morsel
    // width — pins the interleaved transcript against the worker pool too.
    GhostDB db3(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false,
                                     /*worker_threads=*/4));
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db1, visible_seed, 111).ok());
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db2, visible_seed, 999).ok());
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db3, visible_seed, 999).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    // One deal (visible information) replayed against all databases.
    Rng rng(visible_seed ^ 0xabcddcbaULL);
    auto deal = fuzztest::DealQueries(rng, shape, kQueries, kSessions);
    auto s1 = fuzztest::OpenFuzzSessions(&db1, deal);
    auto s2 = fuzztest::OpenFuzzSessions(&db2, deal);
    auto s3 = fuzztest::OpenFuzzSessions(&db3, deal);
    ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
    std::vector<core::Session*> raw1, raw2, raw3;
    for (auto& s : *s1) raw1.push_back(s.get());
    for (auto& s : *s2) raw2.push_back(s.get());
    for (auto& s : *s3) raw3.push_back(s.get());
    db1.device().channel().ClearTranscript();
    db2.device().channel().ClearTranscript();
    db3.device().channel().ClearTranscript();
    auto r1 = db1.DrainSessions(raw1);
    auto r2 = db2.DrainSessions(raw2);
    auto r3 = db3.DrainSessions(raw3);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();
    std::string repro = "visible_seed=" + std::to_string(visible_seed) +
                        " sessions=" + std::to_string(kSessions) +
                        " queries=" + std::to_string(kQueries);
    SCOPED_TRACE(repro);
    bool had_failure = ::testing::Test::HasFailure();
    ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                               db2.device().channel().transcript());
    ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                               db3.device().channel().transcript());
    if (!had_failure && ::testing::Test::HasFailure()) {
      std::ofstream out(fuzztest::FailureFile(), std::ios::app);
      out << "[session-leak] " << repro << "\n";
    }
  }
}

// The worker pool's determinism contract: the morsel width is performance
// tuning, never semantics. Everything observable — the channel transcript
// AND the answer — must be byte-identical across worker_threads counts.
void ExpectSameAnswer(const exec::QueryResult& a, const exec::QueryResult& b,
                      const std::string& sql) {
  EXPECT_EQ(a.total_rows, b.total_rows) << sql;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << sql;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << sql << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_TRUE(a.rows[r][c] == b.rows[r][c])
          << sql << " row " << r << " col " << c << ": "
          << a.rows[r][c].ToString() << " vs " << b.rows[r][c].ToString();
    }
  }
}

TEST(LeakTest, WorkerCountIsTranscriptAndAnswerInvariant) {
  // Same database, worker_threads 1 vs 4: every query shape must produce
  // identical transcripts and identical answers, including under the
  // forced-spill budget. The pool's one site is the PC's visible scans and
  // projections (VisibleStore::SelectIds/Project), which shard only at
  // 2 x 4096 rows or more; Fact's 4 x 4096 rows run both sharded at width
  // 4, so a shard landing out of order changes the id lists shipped.
  constexpr int kFactRows = 4 * 4096;
  for (bool forced_spill : {false, true}) {
    GhostDBConfig serial = Config(), wide = Config();
    if (forced_spill) {
      serial.exec.sort_budget_buffers = 1;
      wide.exec.sort_budget_buffers = 1;
    }
    wide.worker_threads = 4;
    GhostDB db1(serial), db4(wide);
    BuildDb(&db1, /*hidden_seed=*/42, kFactRows);
    BuildDb(&db4, /*hidden_seed=*/42, kFactRows);
    for (const char* sql : {
             "SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < 70",
             "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 80 AND "
             "Fact.h < 60 ORDER BY Fact.h DESC",
             "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h < 50",
             "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE "
             "Fact.h < 80 GROUP BY Fact.v",
             "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id "
             "AND Fact.v < 60 AND Dim.h < 70 ORDER BY Fact.id LIMIT 9",
         }) {
      SCOPED_TRACE(std::string(sql) +
                   (forced_spill ? " [forced spill]" : ""));
      db1.device().channel().ClearTranscript();
      db4.device().channel().ClearTranscript();
      auto r1 = db1.Query(sql);
      auto r4 = db4.Query(sql);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      ASSERT_TRUE(r4.ok()) << r4.status().ToString();
      ExpectSameAnswer(*r1, *r4, sql);
      ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                                 db4.device().channel().transcript());
    }
  }
}

TEST(LeakTest, FuzzedShapesAreWorkerCountInvariant) {
  // The two invariance axes composed, over the fuzz generator's query
  // space: db(workers=1, hidden=111) vs db(workers=4, hidden=999). A
  // byte-identical transcript here means the morsel width neither changes
  // any message NOR opens a hidden-data channel that only shows at one
  // width. Same-hidden-seed pairs additionally pin the answers equal.
  uint64_t queries = fuzztest::EnvOr("GHOSTDB_WORKER_FUZZ_ITERS", 30);
  uint64_t base_seed = fuzztest::EnvOr("GHOSTDB_LEAK_FUZZ_SEED", 20070611,
                                       /*allow_zero=*/true);
  const uint64_t kQueriesPerShape = 15;
  for (uint64_t done = 0; done < queries;) {
    uint64_t visible_seed = base_seed + 5000 * (done / kQueriesPerShape) + 7;
    auto cfg1 = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false,
                                     /*worker_threads=*/1);
    auto cfg4 = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false,
                                     /*worker_threads=*/4);
    // Half the shapes under the forced-spill budget, so the spill paths
    // run under both widths too.
    if ((done / kQueriesPerShape) % 2 == 1) {
      cfg1.exec.sort_budget_buffers = 1;
      cfg4.exec.sort_budget_buffers = 1;
    }
    GhostDB same1(cfg1), same4(cfg4);   // same hidden data, widths 1 vs 4
    GhostDB other4(cfg4);               // different hidden data, width 4
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&same1, visible_seed, 111).ok());
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&same4, visible_seed, 111).ok());
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&other4, visible_seed, 999).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t i = 0; i < kQueriesPerShape && done < queries;
         ++i, ++done) {
      uint64_t query_seed = visible_seed ^ (i * 0x61C88647ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      std::string repro = "visible_seed=" + std::to_string(visible_seed) +
                          " query_seed=" + std::to_string(query_seed) +
                          " sql=" + sql;
      SCOPED_TRACE(repro);
      same1.device().channel().ClearTranscript();
      same4.device().channel().ClearTranscript();
      other4.device().channel().ClearTranscript();
      auto r1 = same1.Query(sql);
      auto r4 = same4.Query(sql);
      auto ro = other4.Query(sql);
      ASSERT_EQ(r1.ok(), r4.ok()) << r1.status().ToString() << " vs "
                                  << r4.status().ToString();
      if (r1.ok()) ExpectSameAnswer(*r1, *r4, sql);
      (void)ro;  // its status reflects its hidden data; only the
                 // transcript is constrained
      bool had_failure = ::testing::Test::HasFailure();
      ExpectIdenticalTranscripts(same1.device().channel().transcript(),
                                 same4.device().channel().transcript());
      ExpectIdenticalTranscripts(same1.device().channel().transcript(),
                                 other4.device().channel().transcript());
      if (!had_failure && ::testing::Test::HasFailure()) {
        std::ofstream out(fuzztest::FailureFile(), std::ios::app);
        out << "[worker-leak] " << repro << "\n";
      }
    }
  }
}

TEST(LeakTest, ShardedFleetPerShardTranscriptsAreHiddenInvariant) {
  // The sharding axis of the leak property: a fleet of N devices must not
  // leak more than one device does. Rows shard by a hash of the *visible*
  // global id, every scatter leg announces and executes under its own
  // arbiter, and volume padding targets the fleet-wide bound — so EACH
  // shard's channel transcript, taken separately, must be byte-identical
  // across databases differing only in hidden data. (A single combined
  // check could mask a leak that moved bytes between shards.)
  uint64_t queries = fuzztest::EnvOr("GHOSTDB_SHARD_LEAK_ITERS", 15);
  uint64_t base_seed = fuzztest::EnvOr("GHOSTDB_LEAK_FUZZ_SEED", 20070611,
                                       /*allow_zero=*/true);
  for (uint32_t shards : {1u, 2u, 4u}) {
    uint64_t visible_seed = base_seed + 11 * shards;
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/false);
    cfg.shard_count = shards;
    // Half the sweep under the forced-spill budget + worst-case padding:
    // per-shard spill counts and padded volumes are the newest surfaces.
    auto padded = cfg;
    padded.exec.sort_budget_buffers = 1;
    padded.exec.volume_padding = exec::VolumePadding::kWorstCase;
    padded.exec.pad_spill_runs = true;
    for (const auto& config : {cfg, padded}) {
      GhostDB db1(config), db2(config);
      ASSERT_TRUE(fuzztest::BuildFuzzDb(&db1, visible_seed, 111).ok());
      ASSERT_TRUE(fuzztest::BuildFuzzDb(&db2, visible_seed, 999).ok());
      ASSERT_EQ(db1.shard_count(), shards);
      fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
      for (uint64_t i = 0; i < queries; ++i) {
        uint64_t query_seed = visible_seed ^ (i * 0x9E3779B9ULL);
        Rng rng(query_seed);
        std::string sql = fuzztest::GenerateQuery(rng, shape);
        std::string repro =
            "shards=" + std::to_string(shards) +
            " visible_seed=" + std::to_string(visible_seed) +
            " query_seed=" + std::to_string(query_seed) + " sql=" + sql;
        SCOPED_TRACE(repro);
        for (uint32_t s = 0; s < shards; ++s) {
          db1.shard_device(s).channel().ClearTranscript();
          db2.shard_device(s).channel().ClearTranscript();
        }
        auto r1 = db1.Query(sql);
        auto r2 = db2.Query(sql);
        (void)r1;  // statuses reflect hidden answers; transcripts may not
        (void)r2;
        bool had_failure = ::testing::Test::HasFailure();
        for (uint32_t s = 0; s < shards; ++s) {
          SCOPED_TRACE("shard " + std::to_string(s));
          ExpectIdenticalTranscripts(
              db1.shard_device(s).channel().transcript(),
              db2.shard_device(s).channel().transcript());
        }
        if (!had_failure && ::testing::Test::HasFailure()) {
          std::ofstream out(fuzztest::FailureFile(), std::ios::app);
          out << "[shard-leak] " << repro << "\n";
        }
      }
    }
  }
}

TEST(LeakTest, SessionTagsPartitionTheTranscriptByPrincipal) {
  // Sanity on the tagging itself: in a drained two-session run, every
  // query-time message carries one of the two session ids, and both appear.
  GhostDB db(Config());
  BuildDb(&db, 42);
  core::SessionOptions oa, ob;
  oa.name = "alice";
  oa.ram_quota_buffers = 8;
  ob.name = "bob";
  ob.ram_quota_buffers = 8;
  auto alice = db.OpenSession(std::move(oa));
  auto bob = db.OpenSession(std::move(ob));
  ASSERT_TRUE(alice.ok() && bob.ok());
  (*alice)->Enqueue("SELECT Fact.id FROM Fact WHERE Fact.h < 40");
  (*alice)->Enqueue("SELECT Dim.v FROM Dim WHERE Dim.h > 10");
  (*bob)->Enqueue("SELECT Fact.v FROM Fact WHERE Fact.v < 50 AND "
                  "Fact.h < 30");
  db.device().channel().ClearTranscript();
  auto ran = db.DrainSessions({alice->get(), bob->get()});
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(*ran, 3u);
  bool saw_alice = false, saw_bob = false;
  for (const auto& m : db.device().channel().transcript()) {
    ASSERT_TRUE(m.session == (*alice)->id() || m.session == (*bob)->id())
        << "untagged message: " << m.label;
    saw_alice |= m.session == (*alice)->id();
    saw_bob |= m.session == (*bob)->id();
  }
  EXPECT_TRUE(saw_alice);
  EXPECT_TRUE(saw_bob);
}

TEST(LeakTest, InjectedFaultsAreTranscriptInvariantUnderPaddedModes) {
  // The error-status channel, closed: under a padded volume mode a live
  // fault schedule (flash faults, torn run writes, RAM-acquire failures,
  // channel stalls) must not move the wire image. Faults may fire at
  // different operations on the two hidden variants — erase-and-masked-
  // replay converges both to the canonical fault-free transcript, and a
  // third, never-faulted database pins that canon: neither fault
  // occurrence nor fault kind is observable.
  auto cfg = Config();
  cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
  cfg.exec.pad_spill_runs = true;
  cfg.exec.sort_budget_buffers = 1;  // spill paths: run-write faults live
  auto faulted = cfg;
  faulted.fault_config.enabled = true;
  faulted.fault_config.seed = 4242;
  faulted.fault_config.flash_read_p = 0.004;
  faulted.fault_config.flash_write_p = 0.004;
  faulted.fault_config.run_write_p = 0.02;
  faulted.fault_config.ram_acquire_p = 0.03;
  faulted.fault_config.channel_stall_p = 0.02;
  faulted.fault_config.transient_fraction = 0.5;

  GhostDB db1(faulted), db2(faulted), canon(cfg);
  BuildDb(&db1, /*hidden_seed=*/111);
  BuildDb(&db2, /*hidden_seed=*/999);
  BuildDb(&canon, /*hidden_seed=*/111);
  const char* queries[] = {
      "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 50 AND Fact.h < 60 "
      "ORDER BY Fact.h DESC",
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 40 ORDER BY Fact.id",
      "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    db1.device().channel().ClearTranscript();
    db2.device().channel().ClearTranscript();
    canon.device().channel().ClearTranscript();
    auto r1 = db1.Query(sql);
    auto r2 = db2.Query(sql);
    auto r3 = canon.Query(sql);
    // Padded modes recover every injected fault: the queries succeed.
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();
    EXPECT_EQ(r1->rows, r3->rows);
    ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                               db2.device().channel().transcript());
    ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                               canon.device().channel().transcript());
  }
  // The schedule must actually have fired, or the property was tested
  // against nothing.
  EXPECT_GT(db1.device().fault_injector().faults_injected() +
                db2.device().fault_injector().faults_injected(),
            0u);
}

// The worst-case padding bound for a statement whose anchor is Fact and
// whose only visible predicate on Fact is `fact_pred`: |Vis(Fact)|, read
// off an unpadded COUNT(*) over the same visible predicate.
uint64_t VisibleFactCount(const char* fact_pred) {
  GhostDB db(Config());
  BuildDb(&db, /*hidden_seed=*/111);
  auto r = db.Query(std::string("SELECT COUNT(*) FROM Fact WHERE ") +
                    fact_pred);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->rows.size() != 1) return 0;
  return static_cast<uint64_t>(r->rows[0][0].AsInt64());
}

TEST(LeakTest, PinnedPlansArePaddedLikePlannedOnes) {
  // The volume channel through QueryWithPlan: a pinned plan must be lowered
  // with the same padding as a planner-chosen one. Under worst-case
  // padding the observed volume is the visible bound |Vis(Fact)| — equal
  // across hidden variants, across fleet sizes, and to the planner's run.
  const char* sql =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.h < 70";
  const uint64_t visible = VisibleFactCount("Fact.v < 60");
  ASSERT_GT(visible, 0u);
  ASSERT_LT(visible, 3000u);  // the predicate is selective
  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    GhostDBConfig cfg = Config();
    cfg.shard_count = shards;
    cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
    GhostDB db1(cfg), db2(cfg);
    BuildDb(&db1, /*hidden_seed=*/111);
    BuildDb(&db2, /*hidden_seed=*/999);
    auto fact = db1.schema().FindTable("Fact");
    ASSERT_TRUE(fact.ok());
    plan::PlanChoice pinned;
    pinned.vis[*fact] = plan::VisStrategy::kPreFilter;
    auto p1 = db1.QueryWithPlan(sql, pinned);
    auto p2 = db2.QueryWithPlan(sql, pinned);
    auto planned = db1.Query(sql);
    ASSERT_TRUE(p1.ok()) << p1.status().ToString();
    ASSERT_TRUE(p2.ok()) << p2.status().ToString();
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(p1->metrics.observed_volume, p2->metrics.observed_volume);
    EXPECT_EQ(p1->metrics.observed_volume, planned->metrics.observed_volume);
    EXPECT_EQ(p1->metrics.observed_volume, visible);
  }
}

// Every shard's transcript, one line per message (direction, label, size,
// digest, session), shard by shard.
std::string RenderFleetTranscripts(GhostDB& db) {
  std::ostringstream out;
  for (uint32_t s = 0; s < db.shard_count(); ++s) {
    out << "shard " << s << "\n";
    for (const ChannelMessage& m : db.shard_device(s).channel().transcript()) {
      out << (m.direction == Direction::kToSecure ? ">" : "<") << " "
          << m.label << " " << m.bytes << " " << std::hex << m.content_digest
          << std::dec << " s" << m.session << "\n";
    }
  }
  return out.str();
}

TEST(LeakTest, HiddenStatsFlipTheStrategyButNotTheTranscript) {
  // The Pre/Post rule reads sH, the hidden predicates' estimated
  // selectivity from hidden_stats, so two databases differing only in
  // hidden data can plan one statement differently: here sV x sH sits on
  // the crossed-fraction threshold, and the hidden seeds land it on either
  // side. The strategy must then stay inside the key. Transcripts are
  // identical across the two databases in every padding mode and fleet
  // size, and so is each run under the other database's strategy. The
  // observed volume does not move with the strategy on either database;
  // under worst-case padding it is also equal across them (without
  // padding it is each database's own, hidden-derived, result size).
  const char* sql =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.v < 70 AND Dim.h < 3";
  for (uint32_t shards : {1u, 2u}) {
    for (auto mode :
         {exec::VolumePadding::kOff, exec::VolumePadding::kWorstCase}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " padding=" + std::to_string(static_cast<int>(mode)));
      GhostDBConfig cfg = Config();
      cfg.shard_count = shards;
      cfg.exec.volume_padding = mode;
      GhostDB db1(cfg), db2(cfg);
      BuildDb(&db1, /*hidden_seed=*/111);
      BuildDb(&db2, /*hidden_seed=*/999);
      // Not vacuous: the two databases do choose different strategies.
      auto e1 = db1.Explain(sql);
      auto e2 = db2.Explain(sql);
      ASSERT_TRUE(e1.ok()) << e1.status().ToString();
      ASSERT_TRUE(e2.ok()) << e2.status().ToString();
      ASSERT_NE(e1->find("Dim visible selection -> Cross-Pre-Filter"),
                std::string::npos)
          << *e1;
      ASSERT_NE(e2->find("Dim visible selection -> Cross-Post-Filter"),
                std::string::npos)
          << *e2;
      auto dim = db1.schema().FindTable("Dim");
      ASSERT_TRUE(dim.ok());
      plan::PlanChoice post, pre;
      post.vis[*dim] = plan::VisStrategy::kCrossPostFilter;
      pre.vis[*dim] = plan::VisStrategy::kCrossPreFilter;

      // Runs `sql` on `db` (planned, or under `pinned`), returning its
      // rendered transcript and observed volume.
      auto run = [&](GhostDB& db, const plan::PlanChoice* pinned,
                     uint64_t* volume) {
        for (uint32_t s = 0; s < shards; ++s) {
          db.shard_device(s).channel().ClearTranscript();
        }
        auto r = pinned ? db.QueryWithPlan(sql, *pinned) : db.Query(sql);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        *volume = r.ok() ? r->metrics.observed_volume : 0;
        return RenderFleetTranscripts(db);
      };
      uint64_t v1 = 0, v1_post = 0, v2 = 0, v2_pre = 0;
      const std::string t1 = run(db1, nullptr, &v1);
      const std::string t1_post = run(db1, &post, &v1_post);
      const std::string t2 = run(db2, nullptr, &v2);
      const std::string t2_pre = run(db2, &pre, &v2_pre);
      EXPECT_NE(t1.find("vis-ids:Dim"), std::string::npos) << t1;
      EXPECT_EQ(t1, t2);
      EXPECT_EQ(t1, t1_post);
      EXPECT_EQ(t2, t2_pre);
      EXPECT_EQ(v1, v1_post);
      EXPECT_EQ(v2, v2_pre);
      if (mode == exec::VolumePadding::kWorstCase) {
        EXPECT_EQ(v1, v2);
      }
    }
  }
}

TEST(LeakTest, WorstCaseVolumeIsTheAnchorsVisibleCount) {
  // kWorstCase pads to |Vis(anchor)|: a statement whose hidden predicate
  // keeps every row (Fact.h >= 0) already returns that many rows, so it
  // pads nothing; a selective hidden predicate pads back up to the same
  // count, on every hidden variant.
  const uint64_t visible = VisibleFactCount("Fact.v < 60");
  ASSERT_GT(visible, 0u);
  GhostDBConfig cfg = Config();
  cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
  GhostDB db1(cfg), db2(cfg);
  BuildDb(&db1, /*hidden_seed=*/111);
  BuildDb(&db2, /*hidden_seed=*/999);

  auto all_pass =
      db1.Query("SELECT Fact.id FROM Fact WHERE Fact.v < 60 AND Fact.h >= 0");
  ASSERT_TRUE(all_pass.ok()) << all_pass.status().ToString();
  EXPECT_EQ(all_pass->metrics.padding_rows, 0u);
  EXPECT_EQ(all_pass->metrics.observed_volume, visible);

  for (const char* sql : {
           "SELECT Fact.id FROM Fact WHERE Fact.v < 60 AND Fact.h < 30",
           "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
           "Fact.v < 60 AND Dim.h < 20 ORDER BY Dim.v",
       }) {
    SCOPED_TRACE(sql);
    for (GhostDB* db : {&db1, &db2}) {
      auto r = db->Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_LT(r->total_rows, visible);  // the hidden predicate filtered
      EXPECT_EQ(r->metrics.observed_volume, visible);
    }
  }
}

TEST(LeakTest, VisibleOnlyStatementsAreHiddenInvariantInEveryPaddingMode) {
  // A visible-only statement is answered by the PC: its transcript (query,
  // then one vis-result message) is a function of the visible data and
  // the text alone, in every padding mode. It pads nothing and spills
  // nothing, even under a one-buffer tail budget — its volume is already
  // visible-derived.
  for (auto mode : {exec::VolumePadding::kOff, exec::VolumePadding::kQuantize,
                    exec::VolumePadding::kWorstCase}) {
    SCOPED_TRACE(static_cast<int>(mode));
    GhostDBConfig cfg = Config();
    cfg.exec.volume_padding = mode;
    cfg.exec.pad_spill_runs = mode != exec::VolumePadding::kOff;
    cfg.exec.sort_budget_buffers = 1;
    GhostDB db1(cfg), db2(cfg);
    BuildDb(&db1, /*hidden_seed=*/111);
    BuildDb(&db2, /*hidden_seed=*/999);
    for (const char* sql : {
             "SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < 40",
             "SELECT Fact.id FROM Fact WHERE Fact.v > 20 LIMIT 30",
             "SELECT Fact.id, Fact.v FROM Fact ORDER BY Fact.v DESC, Fact.id",
             "SELECT Fact.v, COUNT(*) FROM Fact GROUP BY Fact.v "
             "ORDER BY COUNT(*) DESC LIMIT 5",
             "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.id < 2000",
             "SELECT COUNT(*), MAX(Fact.v) FROM Fact WHERE Fact.v > 95",
             "SELECT Dim.id, Dim.v FROM Dim WHERE Dim.v < 30 LIMIT 10",
         }) {
      SCOPED_TRACE(sql);
      db1.device().channel().ClearTranscript();
      db2.device().channel().ClearTranscript();
      auto r1 = db1.Query(sql);
      auto r2 = db2.Query(sql);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();
      ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                                 db2.device().channel().transcript());
      EXPECT_EQ(db1.device().channel().transcript().size(), 2u);
      EXPECT_EQ(r1->rows, r2->rows);
      for (const auto* r : {&*r1, &*r2}) {
        EXPECT_EQ(r->metrics.padding_rows, 0u);
        EXPECT_EQ(r->metrics.observed_volume, r->total_rows);
        EXPECT_EQ(r->metrics.sort_spill_runs, 0u);
        EXPECT_EQ(r->metrics.padding_spill_runs, 0u);
        EXPECT_EQ(r->metrics.flash.pages_written, 0u);
      }
    }
  }
}

TEST(LeakTest, PerStrategyTranscriptsAreHiddenIndependent) {
  // Pin each strategy explicitly; the property must hold for all of them.
  for (auto strategy :
       {plan::VisStrategy::kPreFilter, plan::VisStrategy::kCrossPreFilter,
        plan::VisStrategy::kPostFilter, plan::VisStrategy::kCrossPostFilter,
        plan::VisStrategy::kPostSelect, plan::VisStrategy::kNoFilter}) {
    GhostDB db1(Config()), db2(Config());
    BuildDb(&db1, 5);
    BuildDb(&db2, 6);
    auto fact = db1.schema().FindTable("Fact");
    ASSERT_TRUE(fact.ok());
    plan::PlanChoice plan;
    plan.vis[*fact] = strategy;
    const char* sql =
        "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
        "Fact.v < 60 AND Dim.h < 70";
    db1.device().channel().ClearTranscript();
    db2.device().channel().ClearTranscript();
    auto r1 = db1.QueryWithPlan(sql, plan);
    auto r2 = db2.QueryWithPlan(sql, plan);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ExpectIdenticalTranscripts(db1.device().channel().transcript(),
                               db2.device().channel().transcript());
  }
}

}  // namespace
}  // namespace ghostdb
