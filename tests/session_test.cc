// Session-layer tests: K concurrent sessions over one SecureStore with
// per-session RAM partitions, the channel arbiter's deterministic
// interleaving, history independence (a statement's transcript and costs
// never depend on what another session ran before it), per-session
// metrics, and QueryBatch as the degenerate single-session case of the
// scheduler.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "transcript_common.h"
#include "workload/synthetic.h"

namespace ghostdb {
namespace {

using catalog::Value;
using core::GhostDB;
using core::GhostDBConfig;
using core::Session;
using core::SessionOptions;

GhostDBConfig Config(bool retain_staged = false) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.retain_staged_data = retain_staged;
  return cfg;
}

// The two-table database the leak tests use; `hidden_seed` perturbs ONLY
// hidden column values.
void BuildDb(GhostDB* db, uint64_t hidden_seed) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Dim (id INT, v INT, h INT HIDDEN)").ok());
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                  "v INT, h INT HIDDEN)")
          .ok());
  Rng shared(7);
  Rng hidden(hidden_seed);
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
}

// Checks a session's answer for `sql` against the reference oracle (the db
// must retain staged data).
void ExpectMatchesOracle(GhostDB& db, const std::string& sql,
                         const Result<exec::QueryResult>& got) {
  SCOPED_TRACE(sql);
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto bound =
      sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(), sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto expected = reference::Evaluate(db.schema(), db.staged(), *bound);
  if (!expected.ok()) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(expected.status().code(), got.status().code());
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->total_rows, expected->size());
  ASSERT_EQ(got->rows.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(got->rows[i].size(), (*expected)[i].size());
    for (size_t j = 0; j < (*expected)[i].size(); ++j) {
      EXPECT_TRUE(got->rows[i][j] == (*expected)[i][j])
          << "row " << i << " col " << j;
    }
  }
}

TEST(SessionTest, OpenAndCloseSessions) {
  GhostDB db(Config());
  BuildDb(&db, 42);
  uint32_t reserve0 = db.device().ram().reserve_buffers();
  EXPECT_EQ(db.open_sessions(), 0u);
  {
    SessionOptions options;
    options.name = "alice";
    options.ram_quota_buffers = 6;
    auto alice = db.OpenSession(std::move(options));
    ASSERT_TRUE(alice.ok()) << alice.status().ToString();
    EXPECT_EQ((*alice)->name(), "alice");
    EXPECT_EQ(db.open_sessions(), 1u);
    // The pledge left the reserve.
    EXPECT_EQ(db.device().ram().reserve_buffers(), reserve0 - 6);
    auto bob = db.OpenSession();  // default quota: a quarter of the arena
    ASSERT_TRUE(bob.ok());
    EXPECT_NE((*bob)->id(), (*alice)->id());
    EXPECT_EQ(db.open_sessions(), 2u);
  }
  // Sessions closed: partitions returned, arbiter slots freed.
  EXPECT_EQ(db.open_sessions(), 0u);
  EXPECT_EQ(db.device().ram().reserve_buffers(), reserve0);
}

TEST(SessionTest, SessionBeforeBuildIsRejected) {
  GhostDB db(Config());
  EXPECT_TRUE(db.OpenSession().status().IsInvalidArgument());
}

TEST(SessionTest, FourConcurrentSessionsAreOracleCorrect) {
  // K = 4 sessions over one store, each driven by its own thread through
  // the blocking Query() surface. The arbiter interleaves them; every
  // session must still get exactly its own answers (checked against the
  // oracle after the threads join).
  GhostDB db(Config(/*retain_staged=*/true));
  BuildDb(&db, 42);
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::vector<std::string>> sqls(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    SessionOptions options;
    options.name = "t" + std::to_string(s);
    options.ram_quota_buffers = 6;  // 24 pledged, 8 in the shared reserve
    auto session = db.OpenSession(std::move(options));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
    for (int q = 0; q < 6; ++q) {
      int lit = 10 + 13 * s + 7 * q;
      switch (q % 3) {
        case 0:
          sqls[s].push_back("SELECT Fact.id FROM Fact WHERE Fact.h < " +
                            std::to_string(lit % 100));
          break;
        case 1:
          sqls[s].push_back(
              "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE "
              "Fact.fk = Dim.id AND Dim.h < " +
              std::to_string(lit % 100) + " AND Fact.v < 50");
          break;
        default:
          sqls[s].push_back(
              "SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h >= " +
              std::to_string(lit % 100) + " ORDER BY Fact.v LIMIT 7");
          break;
      }
    }
  }
  std::vector<std::vector<Result<exec::QueryResult>>> answers(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (const std::string& sql : sqls[s]) {
        answers[s].push_back(sessions[s]->Query(sql));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(answers[s].size(), sqls[s].size());
    for (size_t q = 0; q < sqls[s].size(); ++q) {
      ExpectMatchesOracle(db, sqls[s][q], answers[s][q]);
    }
    EXPECT_EQ(sessions[s]->queries_executed(), sqls[s].size());
  }
}

TEST(SessionTest, SessionlessCallersShareTheDefaultSession) {
  // GhostDB::Query runs in the default session, which serves any number of
  // threads at once: the arbiter grants each call by ticket, so callers
  // sharing one session id queue like distinct sessions do. One opened
  // session on one thread races three sessionless threads; every answer
  // must be oracle-exact, and the default session never counts as opened.
  GhostDB db(Config(/*retain_staged=*/true));
  BuildDb(&db, 42);
  auto alice = db.OpenSession({.name = "alice"});
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();
  EXPECT_EQ(db.open_sessions(), 1u);
  constexpr int kThreads = 4;  // thread 0 drives alice
  std::vector<std::vector<std::string>> sqls(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < 5; ++q) {
      int lit = (10 + 17 * t + 11 * q) % 100;
      sqls[t].push_back(
          q % 2 == 0
              ? "SELECT Fact.id FROM Fact WHERE Fact.h < " +
                    std::to_string(lit)
              : "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = "
                "Dim.id AND Dim.h < " +
                    std::to_string(lit) + " AND Fact.v < 50");
    }
  }
  std::vector<std::vector<Result<exec::QueryResult>>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& sql : sqls[t]) {
        answers[t].push_back(t == 0 ? (*alice)->Query(sql) : db.Query(sql));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(answers[t].size(), sqls[t].size());
    for (size_t q = 0; q < sqls[t].size(); ++q) {
      ExpectMatchesOracle(db, sqls[t][q], answers[t][q]);
    }
  }
  EXPECT_EQ((*alice)->queries_executed(), sqls[0].size());
  EXPECT_EQ(db.open_sessions(), 1u);
}

TEST(SessionTest, DrainInterleavingIsDeterministic) {
  // The deterministic scheduler: two identically built databases given the
  // same per-session workloads must produce byte-identical global
  // transcripts — the arbiter's DRR interleaving is a pure function of
  // visible inputs (who queues what, at which declared weight).
  auto run = [&](GhostDB* db, std::vector<std::string>* labels) {
    BuildDb(db, 42);
    SessionOptions oa, ob;
    oa.name = "a";
    oa.ram_quota_buffers = 8;
    ob.name = "b";
    ob.ram_quota_buffers = 8;
    auto a = db->OpenSession(std::move(oa));
    auto b = db->OpenSession(std::move(ob));
    ASSERT_TRUE(a.ok() && b.ok());
    for (int i = 0; i < 5; ++i) {
      (*a)->Enqueue("SELECT Fact.id FROM Fact WHERE Fact.h < " +
                    std::to_string(20 + i));
      (*b)->Enqueue(
          "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id "
          "AND Dim.h < " +
          std::to_string(30 + i) + " AND Fact.v < 60");
    }
    db->device().channel().ClearTranscript();
    auto ran = db->DrainSessions({a->get(), b->get()});
    ASSERT_TRUE(ran.ok());
    EXPECT_EQ(*ran, 10u);
    *labels =
        transcript::TranscriptSignature(db->device().channel().transcript());
  };
  GhostDB db1(Config()), db2(Config());
  std::vector<std::string> t1, t2;
  run(&db1, &t1);
  run(&db2, &t2);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
}

// The paper's strategy rules (Figs 9-10) choose per statement from its
// visible selectivity, so a statement's transcript and costs depend only
// on its own text and the visible data. Query Q at sV = 0.5 runs once on a
// fresh database and once after another session posed the same shape at
// sV = 0.01, where the rule picks a different strategy: both runs must be
// identical.
TEST(SessionTest, StatementIgnoresAnotherSessionsHistory) {
  workload::SyntheticConfig wl;
  wl.scale = 0.002;
  const std::string narrow = workload::QueryQ(0.01, 0.1);
  const std::string wide = workload::QueryQ(0.5, 0.1);
  struct Run {
    std::vector<device::ChannelMessage> span;
    exec::QueryMetrics metrics;
    std::string narrow_plan, wide_plan;
  };
  auto run = [&](bool history) {
    Run out;
    GhostDB db(workload::SyntheticDbConfig(wl));
    EXPECT_TRUE(workload::BuildSynthetic(&db, wl).ok());
    auto a = db.OpenSession({.name = "a"});
    auto b = db.OpenSession({.name = "b"});
    EXPECT_TRUE(a.ok() && b.ok());
    if (!a.ok() || !b.ok()) return out;
    if (history) {
      auto r = (*a)->Query(narrow);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    const size_t begin = db.device().channel().transcript_size();
    auto r = (*b)->Query(wide);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
    const auto& transcript = db.device().channel().transcript();
    out.span.assign(transcript.begin() + begin, transcript.end());
    out.metrics = r->metrics;
    out.narrow_plan = db.Explain(narrow).ValueOr("");
    out.wide_plan = db.Explain(wide).ValueOr("");
    return out;
  };
  const Run fresh = run(false);
  const Run after = run(true);
  // The premise: the two literals pick different strategies.
  auto strategy = [](const std::string& explain) {
    const std::string tag = "T1 visible selection -> ";
    size_t at = explain.find(tag);
    if (at == std::string::npos) return std::string();
    at += tag.size();
    return explain.substr(at, explain.find_first_of(" \n", at) - at);
  };
  ASSERT_FALSE(strategy(fresh.narrow_plan).empty()) << fresh.narrow_plan;
  ASSERT_NE(strategy(fresh.narrow_plan), strategy(fresh.wide_plan))
      << fresh.narrow_plan << "\n" << fresh.wide_plan;
  ASSERT_FALSE(fresh.span.empty());
  transcript::ExpectIdenticalTranscripts(fresh.span, after.span);
  EXPECT_EQ(fresh.metrics.bytes_to_secure, after.metrics.bytes_to_secure);
  EXPECT_EQ(fresh.metrics.total_ns, after.metrics.total_ns);
}

TEST(SessionTest, ExhaustedPartitionFailsCleanlyWithoutStarvingNeighbors) {
  GhostDB db(Config());
  BuildDb(&db, 42);
  // Pledge the whole arena: tiny gets 1 buffer and the reserve is empty,
  // so tiny's queries cannot borrow anything.
  SessionOptions ot, o1, o2;
  ot.name = "tiny";
  ot.ram_quota_buffers = 1;
  o1.name = "big1";
  o1.ram_quota_buffers = 16;
  o2.name = "big2";
  o2.ram_quota_buffers = 15;
  auto tiny = db.OpenSession(std::move(ot));
  auto big1 = db.OpenSession(std::move(o1));
  auto big2 = db.OpenSession(std::move(o2));
  ASSERT_TRUE(tiny.ok() && big1.ok() && big2.ok());
  const char* sql =
      "SELECT Fact.id, Dim.v FROM Fact, Dim WHERE Fact.fk = Dim.id AND "
      "Dim.h < 40 AND Fact.v < 50";
  // tiny: clean per-session ResourceExhausted naming its partition.
  auto rt = (*tiny)->Query(sql);
  ASSERT_FALSE(rt.ok());
  EXPECT_TRUE(rt.status().IsResourceExhausted()) << rt.status().ToString();
  EXPECT_NE(rt.status().message().find("'tiny'"), std::string::npos)
      << rt.status().ToString();
  // All of tiny's buffers came back (RAII handles), so the failure left no
  // residue in its partition.
  EXPECT_EQ(db.device().ram().partition_used((*tiny)->ram_partition()), 0u);
  // Neighbors are unaffected: same query completes in their quotas.
  auto r1 = (*big1)->Query(sql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = (*big2)->Query(sql);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->total_rows, r2->total_rows);
  // And tiny still works for queries that fit one buffer's discipline...
  // none do (every plan needs a few), so tiny keeps failing cleanly
  // rather than poisoning the device.
  auto rt2 = (*tiny)->Query(sql);
  EXPECT_TRUE(rt2.status().IsResourceExhausted());
  auto r3 = (*big1)->Query(sql);
  EXPECT_TRUE(r3.ok());
}

TEST(SessionTest, SessionMetricsAccumulatePerSession) {
  GhostDB db(Config());
  BuildDb(&db, 42);
  SessionOptions oa, ob;
  oa.ram_quota_buffers = 8;
  ob.ram_quota_buffers = 8;
  auto a = db.OpenSession(std::move(oa));
  auto b = db.OpenSession(std::move(ob));
  ASSERT_TRUE(a.ok() && b.ok());
  uint64_t rows = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = (*a)->Query("SELECT Fact.id FROM Fact WHERE Fact.h < " +
                         std::to_string(30 + i));
    ASSERT_TRUE(r.ok());
    rows += r->total_rows;
  }
  auto rb = (*b)->Query("SELECT Dim.v FROM Dim WHERE Dim.h < 10");
  ASSERT_TRUE(rb.ok());
  // a's baseline is its own: three queries and their rows.
  exec::QueryMetrics ma = (*a)->metrics();
  EXPECT_EQ((*a)->queries_executed(), 3u);
  EXPECT_EQ(ma.result_rows, rows);
  EXPECT_GT(ma.total_ns, 0u);
  // b saw only its own query.
  exec::QueryMetrics mb = (*b)->metrics();
  EXPECT_EQ((*b)->queries_executed(), 1u);
  EXPECT_EQ(mb.result_rows, rb->total_rows);
}

TEST(SessionTest, QueryBatchIsADegenerateSingleSessionSchedule) {
  GhostDB db1(Config()), db2(Config());
  BuildDb(&db1, 42);
  BuildDb(&db2, 42);
  std::vector<std::string> sqls;
  for (int i = 0; i < 8; ++i) {
    sqls.push_back("SELECT Fact.id FROM Fact WHERE Fact.h < " +
                   std::to_string(25 + 5 * i));
    sqls.push_back("SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h >= " +
                   std::to_string(4 * i) + " ORDER BY Fact.v LIMIT 3");
  }
  db1.device().channel().ClearTranscript();
  exec::MetricSnapshot before = exec::MetricSnapshot::Take(&db1.device());
  auto batch = db1.QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), sqls.size());
  // The batch total is the per-statement sum, and on one device that sum
  // is exactly the device's own delta over the batch: no device work
  // happens outside a statement.
  exec::QueryMetrics device_delta;
  before.Delta(&db1.device(), &device_delta);
  EXPECT_EQ(batch->total.total_ns, device_delta.total_ns);
  EXPECT_EQ(batch->total.categories, device_delta.categories);
  EXPECT_EQ(batch->total.bytes_to_secure, device_delta.bytes_to_secure);
  EXPECT_EQ(batch->total.bytes_to_untrusted,
            device_delta.bytes_to_untrusted);
  EXPECT_EQ(batch->total.flash.pages_read, device_delta.flash.pages_read);
  EXPECT_EQ(batch->total.flash.pages_written,
            device_delta.flash.pages_written);
  EXPECT_EQ(batch->total.flash.bytes_transferred,
            device_delta.flash.bytes_transferred);
  EXPECT_EQ(batch->total.flash.blocks_erased,
            device_delta.flash.blocks_erased);
  EXPECT_EQ(batch->total.flash.gc_page_copies,
            device_delta.flash.gc_page_copies);
  EXPECT_EQ(batch->total.flash.trims, device_delta.flash.trims);
  // Statement-for-statement identical to the one-at-a-time path.
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto r = db2.Query(sqls[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(batch->results[i].total_rows, r->total_rows) << sqls[i];
    EXPECT_EQ(batch->results[i].rows, r->rows) << sqls[i];
  }
  // The whole batch ran as one session: every message carries the same
  // (non-main) session tag.
  int32_t tag = -2;
  for (const auto& m : db1.device().channel().transcript()) {
    if (tag == -2) tag = m.session;
    EXPECT_EQ(m.session, tag);
  }
  EXPECT_GE(tag, 0);
  // The ephemeral session is gone.
  EXPECT_EQ(db1.open_sessions(), 0u);
}

TEST(SessionTest, QueryBatchFailsFastOnError) {
  GhostDB db(Config());
  BuildDb(&db, 42);
  db.device().channel().ClearTranscript();
  auto batch = db.QueryBatch({
      "SELECT Fact.id FROM Fact WHERE Fact.h < 20",
      "SELECT Fact.nope FROM Fact",  // bind error
      "SELECT Fact.id FROM Fact WHERE Fact.h < 40",
      "SELECT Fact.id FROM Fact WHERE Fact.h < 60",
  });
  ASSERT_FALSE(batch.ok());
  // Statements after the failing one never reached the device: only the
  // first statement was ever announced.
  int announced = 0;
  for (const auto& m : db.device().channel().transcript()) {
    if (m.label == "query") announced += 1;
  }
  EXPECT_EQ(announced, 1);
}

}  // namespace
}  // namespace ghostdb
