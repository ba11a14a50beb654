// Golden transcripts: the wire image and simulated cost of a database,
// pinned byte for byte.
//
// Each scenario builds the leak tests' two-table database, drives one
// public query surface (planner Query, Session::Query, QueryBatch, pinned
// QueryWithPlan, worst-case padding, a one-buffer forced spill, EXPLAIN, a
// padded fault-recovered run) and renders what an observer of the channel
// sees — every message's direction, label, size, payload digest and
// session tag — plus each statement's simulated total_ns. The shard1_*
// files pin a single device; the shard4_* files pin a four-device fleet,
// one transcript per shard, so the scatter legs' session tags on shards
// 1-3 are pinned too. The rendering must equal the committed file under
// tests/golden/ exactly: a refactor of the execution path may move code,
// not a single byte on the wire or nanosecond on the device clock.
//
// To regenerate after an intended change of the wire format, run with
// GHOSTDB_RECORD_GOLDEN=1 and review the diff of tests/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "device/channel.h"
#include "plan/strategy.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;

GhostDBConfig Config(uint32_t shards = 1) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.shard_count = shards;
  return cfg;
}

/// Stages the two-table database, builds it on `shards` devices and clears
/// every shard's load-time transcript.
void BuildDb(GhostDB* db, uint32_t shards = 1) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Dim (id INT, v INT, h INT HIDDEN)").ok());
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                  "v INT, h INT HIDDEN)")
          .ok());
  Rng shared(7);
  Rng hidden(111);
  auto dim = db->MutableStaging("Dim");
  ASSERT_TRUE(dim.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*dim)
                    ->AppendRow({Value::Int32(static_cast<int32_t>(
                                     shared.Uniform(100))),
                                 Value::Int32(static_cast<int32_t>(
                                     hidden.Uniform(100)))})
                    .ok());
  }
  auto fact = db->MutableStaging("Fact");
  ASSERT_TRUE(fact.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*fact)
                    ->AppendRow({Value::Int32(static_cast<int32_t>(
                                     shared.Uniform(300))),
                                 Value::Int32(static_cast<int32_t>(
                                     shared.Uniform(100))),
                                 Value::Int32(static_cast<int32_t>(
                                     hidden.Uniform(100)))})
                    .ok());
  }
  ASSERT_TRUE(db->Build().ok());
  ASSERT_EQ(db->shard_count(), shards);
  for (uint32_t s = 0; s < shards; ++s) {
    db->shard_device(s).channel().ClearTranscript();
  }
}

const std::vector<std::string>& Statements() {
  static const std::vector<std::string> kSqls = {
      "SELECT Fact.id FROM Fact WHERE Fact.h < 30",
      "SELECT Fact.id FROM Fact WHERE Fact.h < 55",  // same shape: cache hit
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.h < 70",
      "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 20 AND Fact.h < 60 "
      "ORDER BY Fact.h DESC LIMIT 7",
      "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h >= 12 ORDER BY Fact.v "
      "LIMIT 5",
      "SELECT COUNT(*), SUM(Fact.h) FROM Fact WHERE Fact.v > 40",
      "SELECT Fact.v, COUNT(*), MAX(Fact.h) FROM Fact WHERE Fact.h < 80 "
      "GROUP BY Fact.v",
      "SELECT Dim.id, Dim.h FROM Dim WHERE Dim.v < 10",
      // Visible-only: the PC answers, the key receives one vis-result.
      "SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < 50 "
      "ORDER BY Fact.v DESC LIMIT 6",
      "SELECT Fact.v, COUNT(*), MAX(Fact.id) FROM Fact WHERE Fact.id < 2000 "
      "GROUP BY Fact.v",
  };
  return kSqls;
}

/// The observer's rendering of a transcript, one line per message.
void RenderTranscript(const std::vector<device::ChannelMessage>& transcript,
                      std::ostringstream* out) {
  for (const auto& m : transcript) {
    *out << "  " << (m.direction == device::Direction::kToSecure ? ">" : "<")
         << " " << m.label << " " << m.bytes << " " << std::hex
         << m.content_digest << std::dec << " s" << m.session << "\n";
  }
}

/// One statement: its transcript since the previous statement (on a
/// fleet, each shard's under a "shard <s>" header, coordinator first),
/// then its simulated cost (unless `transcript_only`).
void RecordStatement(GhostDB* db, const std::string& sql,
                     const Result<exec::QueryResult>& r,
                     std::ostringstream* out, bool transcript_only = false) {
  *out << "stmt " << sql << "\n";
  for (uint32_t s = 0; s < db->shard_count(); ++s) {
    device::Channel& channel = db->shard_device(s).channel();
    if (db->shard_count() > 1) *out << " shard " << s << "\n";
    RenderTranscript(channel.transcript(), out);
    channel.ClearTranscript();
  }
  if (!r.ok()) {
    *out << "  error " << r.status().ToString() << "\n";
    return;
  }
  if (!transcript_only) {
    *out << "  total_ns " << r->metrics.total_ns << " rows " << r->total_rows
         << "\n";
  }
}

std::string GoldenPath(const std::string& scenario, uint32_t shards) {
  std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/')) + "/golden/shard" +
         std::to_string(shards) + "_" + scenario + ".txt";
}

void ExpectGolden(const std::string& scenario, const std::string& actual,
                  uint32_t shards = 1) {
  const std::string path = GoldenPath(scenario, shards);
  if (std::getenv("GHOSTDB_RECORD_GOLDEN") != nullptr) {
    std::ofstream(path) << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  // Point at the first divergent line rather than dumping both files.
  std::istringstream a(expected.str()), b(actual);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    bool more_a = static_cast<bool>(std::getline(a, la));
    bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || la != lb) {
      ADD_FAILURE() << path << ":" << line << " diverges\n  expected: "
                    << (more_a ? la : "<eof>")
                    << "\n  actual:   " << (more_b ? lb : "<eof>");
      return;
    }
  }
}

TEST(GoldenTranscriptTest, PlannerQuery) {
  GhostDB db(Config());
  BuildDb(&db);
  std::ostringstream out;
  for (const std::string& sql : Statements()) {
    RecordStatement(&db, sql, db.Query(sql), &out);
  }
  ExpectGolden("planner_query", out.str());
}

TEST(GoldenTranscriptTest, SessionQuery) {
  GhostDB db(Config());
  BuildDb(&db);
  auto alice = db.OpenSession({.name = "alice"});
  core::SessionOptions shared_only;
  shared_only.name = "bob";
  shared_only.ram_quota_buffers = 0;
  auto bob = db.OpenSession(shared_only);
  ASSERT_TRUE(alice.ok() && bob.ok());
  db.device().channel().ClearTranscript();
  std::ostringstream out;
  for (size_t i = 0; i < Statements().size(); ++i) {
    core::Session* s = i % 2 == 0 ? alice->get() : bob->get();
    RecordStatement(&db, Statements()[i], s->Query(Statements()[i]), &out);
  }
  ExpectGolden("session_query", out.str());
}

TEST(GoldenTranscriptTest, QueryBatch) {
  GhostDB db(Config());
  BuildDb(&db);
  std::vector<std::string> sqls = Statements();
  sqls.push_back("SELECT Fact.id FROM Fact WHERE Fact.h < 5");
  sqls.push_back("SELECT COUNT(*), SUM(Fact.h) FROM Fact WHERE Fact.v > 90");
  auto batch = db.QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::ostringstream out;
  out << "batch\n";
  RenderTranscript(db.device().channel().transcript(), &out);
  for (size_t i = 0; i < sqls.size(); ++i) {
    out << "stmt " << sqls[i] << "\n  total_ns "
        << batch->results[i].metrics.total_ns << " rows "
        << batch->results[i].total_rows << "\n";
  }
  out << "batch total_ns " << batch->total.total_ns << "\n";
  ExpectGolden("query_batch", out.str());
}

TEST(GoldenTranscriptTest, PinnedQueryWithPlan) {
  GhostDB db(Config());
  BuildDb(&db);
  auto fact = db.schema().FindTable("Fact");
  auto dim = db.schema().FindTable("Dim");
  ASSERT_TRUE(fact.ok() && dim.ok());
  std::ostringstream out;
  const std::string join =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.h < 70";
  const std::string sorted =
      "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.v < 30 AND Fact.h < 50 "
      "ORDER BY Fact.h LIMIT 9";
  for (auto strategy :
       {plan::VisStrategy::kPreFilter, plan::VisStrategy::kCrossPreFilter,
        plan::VisStrategy::kPostFilter, plan::VisStrategy::kCrossPostFilter,
        plan::VisStrategy::kPostSelect, plan::VisStrategy::kNoFilter}) {
    plan::PlanChoice choice;
    choice.vis[*fact] = strategy;
    out << "strategy " << plan::VisStrategyName(strategy) << "\n";
    RecordStatement(&db, join, db.QueryWithPlan(join, choice), &out);
    RecordStatement(&db, sorted, db.QueryWithPlan(sorted, choice), &out);
  }
  plan::PlanChoice brute;
  brute.vis[*fact] = plan::VisStrategy::kPreFilter;
  brute.vis[*dim] = plan::VisStrategy::kPostFilter;
  brute.project = plan::ProjectAlgo::kBruteForce;
  const std::string both =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.v < 50 AND Fact.h < 40";
  out << "strategy brute-force\n";
  RecordStatement(&db, both, db.QueryWithPlan(both, brute), &out);
  ExpectGolden("pinned_query_with_plan", out.str());
}

TEST(GoldenTranscriptTest, WorstCasePaddedQuery) {
  GhostDBConfig cfg = Config();
  cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
  GhostDB db(cfg);
  BuildDb(&db);
  std::ostringstream out;
  for (const std::string& sql : Statements()) {
    RecordStatement(&db, sql, db.Query(sql), &out);
  }
  ExpectGolden("worst_case_query", out.str());
}

TEST(GoldenTranscriptTest, OneBufferForcedSpill) {
  GhostDBConfig cfg = Config();
  cfg.exec.sort_budget_buffers = 1;
  GhostDB db(cfg);
  BuildDb(&db);
  std::ostringstream out;
  for (const char* sql : {
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 60 "
           "ORDER BY Fact.h DESC",
           "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80",
           "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 70 "
           "ORDER BY Fact.h LIMIT 900",
           "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE "
           "Fact.h < 80 GROUP BY Fact.v",
       }) {
    RecordStatement(&db, sql, db.Query(sql), &out);
  }
  ExpectGolden("forced_spill", out.str());
}

TEST(GoldenTranscriptTest, GroupingShapes) {
  // The relational tail's grouping and sort shapes no other scenario pins:
  // a streaming DISTINCT cut short by LIMIT, small and large top-K, keyless
  // aggregates over a hidden-emptied input, and the padded forced spills.
  // Each statement also records its spill-run and spill-page counts.
  std::ostringstream out;
  auto run = [&out](GhostDB* db, const std::vector<std::string>& sqls) {
    for (const std::string& sql : sqls) {
      auto r = db->Query(sql);
      RecordStatement(db, sql, r, &out);
      if (r.ok()) {
        out << "  spill_runs " << r->metrics.sort_spill_runs << " pages "
            << r->metrics.sort_spill_pages << " padding_runs "
            << r->metrics.padding_spill_runs << "\n";
      }
    }
  };
  GhostDBConfig cfg = Config();
  cfg.exec.sort_budget_buffers = 1;
  {
    GhostDB db(cfg);
    BuildDb(&db);
    out << "budget 1\n";
    run(&db, {
                 "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80 "
                 "LIMIT 7",
                 "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 70 "
                 "ORDER BY Fact.h LIMIT 5",
                 "SELECT COUNT(*) FROM Fact WHERE Fact.h < 0",
                 "SELECT SUM(Fact.h) FROM Fact WHERE Fact.h < 0",
             });
  }
  cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
  cfg.exec.pad_spill_runs = true;
  {
    GhostDB db(cfg);
    BuildDb(&db);
    out << "budget 1 worst-case pad_spill_runs\n";
    run(&db, {
                 "SELECT DISTINCT Fact.v, Fact.h FROM Fact WHERE Fact.h < 80",
                 "SELECT Fact.v, COUNT(*), SUM(Fact.h) FROM Fact WHERE "
                 "Fact.h < 80 GROUP BY Fact.v",
                 "SELECT COUNT(*), MAX(Fact.h) FROM Fact WHERE Fact.v > 40",
                 "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 60 "
                 "ORDER BY Fact.h DESC",
                 "SELECT Fact.id, Fact.h FROM Fact WHERE Fact.h < 70 "
                 "ORDER BY Fact.h LIMIT 900",
             });
  }
  ExpectGolden("grouping_shapes", out.str());
}

TEST(GoldenTranscriptTest, Explain) {
  GhostDB db(Config());
  BuildDb(&db);
  std::ostringstream out;
  const std::string sql =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.h < 70 ORDER BY Fact.id LIMIT 3";
  auto text = db.Explain(sql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  out << "explain " << sql << "\n" << *text;
  RenderTranscript(db.device().channel().transcript(), &out);
  db.device().channel().ClearTranscript();
  const std::string stmt = "EXPLAIN SELECT Fact.v, COUNT(*) FROM Fact "
                           "WHERE Fact.h < 10 GROUP BY Fact.v";
  auto r = db.Query(stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  out << "query " << stmt << "\n" << r->rows[0][0].AsString();
  RecordStatement(&db, stmt, r, &out);
  ExpectGolden("explain", out.str());
}

TEST(GoldenTranscriptTest, PaddedFaultRecoveredRun) {
  // Compared on transcript only: a recovery replays execution alone, so
  // the statement's metrics need not match a run that re-planned.
  GhostDBConfig cfg = Config();
  cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
  cfg.exec.sort_budget_buffers = 1;
  cfg.fault_config.enabled = true;
  cfg.fault_config.seed = 4242;
  cfg.fault_config.flash_read_p = 0.004;
  cfg.fault_config.flash_write_p = 0.004;
  cfg.fault_config.run_write_p = 0.02;
  cfg.fault_config.ram_acquire_p = 0.03;
  cfg.fault_config.channel_stall_p = 0.02;
  cfg.fault_config.transient_fraction = 0.5;
  GhostDB db(cfg);
  BuildDb(&db);
  std::ostringstream out;
  for (const std::string& sql : Statements()) {
    RecordStatement(&db, sql, db.Query(sql), &out, /*transcript_only=*/true);
  }
  // At least one fault was terminal (neither an absorbed flash retry nor a
  // stall), so some statement above only succeeded through a recovery.
  const device::FaultInjector& injector = db.device().fault_injector();
  EXPECT_GT(injector.faults_injected(),
            injector.flash_retries() + injector.channel_stalls());
  ExpectGolden("padded_fault_recovered", out.str());
}

/// Fleet statements: root-anchored row streams (a plain filter and a
/// sorted, limited join), a grouped aggregate, and two visible-only
/// statements. Each fans out to all four shards and gathers on the
/// coordinator.
const std::vector<std::string>& FleetStatements() {
  static const std::vector<std::string> kSqls = {
      "SELECT Fact.id FROM Fact WHERE Fact.h < 30",
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Fact.v < 60 AND Dim.h < 70 ORDER BY Fact.id DESC LIMIT 9",
      "SELECT Fact.v, COUNT(*), MAX(Fact.h) FROM Fact WHERE Fact.h < 80 "
      "GROUP BY Fact.v",
      // Visible-only: each shard's key receives its range of the result.
      "SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < 50 "
      "ORDER BY Fact.v DESC LIMIT 6",
      "SELECT Fact.v, COUNT(*), MAX(Fact.id) FROM Fact WHERE Fact.id < 2000 "
      "GROUP BY Fact.v",
  };
  return kSqls;
}

TEST(GoldenTranscriptTest, FleetQuery) {
  GhostDB db(Config(4));
  BuildDb(&db, 4);
  std::ostringstream out;
  for (const std::string& sql : FleetStatements()) {
    RecordStatement(&db, sql, db.Query(sql), &out);
  }
  ExpectGolden("query", out.str(), 4);
}

TEST(GoldenTranscriptTest, FleetSessionQuery) {
  GhostDB db(Config(4));
  BuildDb(&db, 4);
  auto alice = db.OpenSession({.name = "alice"});
  ASSERT_TRUE(alice.ok());
  std::ostringstream out;
  for (const std::string& sql : FleetStatements()) {
    RecordStatement(&db, sql, (*alice)->Query(sql), &out);
  }
  ExpectGolden("session_query", out.str(), 4);
}

}  // namespace
}  // namespace ghostdb
