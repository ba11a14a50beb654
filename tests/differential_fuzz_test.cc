// Differential fuzzing: seeded random queries (filters, joins, ORDER BY /
// LIMIT / DISTINCT, aggregates, GROUP BY) over randomized Fig-3-schema
// databases,
// asserting GhostDB's answers through the columnar pipeline equal the
// reference oracle's. Failures print the reproducing seeds + SQL and are
// appended to a failure file for CI artifact upload.
//
// Budget knobs (environment):
//   GHOSTDB_FUZZ_ITERS         total queries (default 500)
//   GHOSTDB_VISIBLE_FUZZ_ITERS visible-only queries (default 240)
//   GHOSTDB_FUZZ_SEED          base seed (default 20070611)
//   GHOSTDB_FUZZ_FAILURE_FILE  failing-seed log (default fuzz_failures.txt)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "device/fault_injector.h"
#include "fuzz_common.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostdb {
namespace {

using core::GhostDB;

using fuzztest::EnvOr;
using fuzztest::FailureFile;

void RecordFailure(const std::string& line) {
  std::ofstream out(FailureFile(), std::ios::app);
  out << line << "\n";
}

// Compares an already-obtained GhostDB answer for `sql` against the
// oracle; returns false on divergence. Shared by the single-stream sweep
// and the multi-session drain mode (whose answers arrive via the session
// result surface).
bool CheckAgainstOracle(GhostDB* db, const std::string& sql,
                        const Result<exec::QueryResult>& got,
                        std::string* why) {
  auto stmt = sql::Parse(sql);
  if (!stmt.ok()) {
    *why = "parse: " + stmt.status().ToString();
    return false;
  }
  auto bound =
      sql::Bind(std::get<sql::SelectStmt>(*stmt), db->schema(), sql);
  if (!bound.ok()) {
    *why = "bind: " + bound.status().ToString();
    return false;
  }
  auto expected = reference::Evaluate(db->schema(), db->staged(), *bound);
  if (!expected.ok() || !got.ok()) {
    // Data-dependent errors (e.g. MIN over an empty result) must agree in
    // kind, not just in failing — a masked engine error would hide here.
    if (!expected.ok() && !got.ok() &&
        expected.status().code() == got.status().code()) {
      return true;
    }
    *why = "status mismatch: oracle=" + expected.status().ToString() +
           " ghostdb=" + got.status().ToString();
    return false;
  }
  if (got->total_rows != expected->size()) {
    *why = "row count: ghostdb=" + std::to_string(got->total_rows) +
           " oracle=" + std::to_string(expected->size());
    return false;
  }
  if (got->rows.size() != expected->size()) {
    *why = "materialized rows: " + std::to_string(got->rows.size()) +
           " of " + std::to_string(expected->size());
    return false;
  }
  for (size_t i = 0; i < expected->size(); ++i) {
    if (got->rows[i].size() != (*expected)[i].size()) {
      *why = "row " + std::to_string(i) + " arity";
      return false;
    }
    for (size_t j = 0; j < (*expected)[i].size(); ++j) {
      if (!(got->rows[i][j] == (*expected)[i][j])) {
        *why = "row " + std::to_string(i) + " col " + std::to_string(j) +
               ": ghostdb=" + got->rows[i][j].ToString() +
               " oracle=" + (*expected)[i][j].ToString();
        return false;
      }
    }
  }
  return true;
}

// Runs one query against GhostDB (cached-plan path or a pinned
// Brute-Force plan) and the oracle; returns false on divergence.
bool CheckQuery(GhostDB* db, const std::string& sql, bool brute_force,
                std::string* why) {
  Result<exec::QueryResult> got =
      brute_force
          ? db->QueryWithPlan(
                sql, [] {
                  plan::PlanChoice c;
                  c.project = plan::ProjectAlgo::kBruteForce;
                  return c;
                }())
          : db->Query(sql);
  return CheckAgainstOracle(db, sql, got, why);
}

TEST(DifferentialFuzzTest, GhostDBMatchesOracleOnRandomQueries) {
  const uint64_t iters = EnvOr("GHOSTDB_FUZZ_ITERS", 500);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  // Start from a clean failure log: stale lines from a previous (since
  // fixed) run must not survive a green rerun.
  std::remove(FailureFile().c_str());
  // Spread the budget over several database shapes; rebuilding dominates
  // runtime, so shapes get a fixed share of queries each.
  const uint64_t kQueriesPerDb = 125;
  const uint64_t dbs = (iters + kQueriesPerDb - 1) / kQueriesPerDb;

  uint64_t ran = 0, failures = 0;
  for (uint64_t d = 0; d < dbs && ran < iters; ++d) {
    uint64_t visible_seed = base_seed + 1000 * d;
    uint64_t hidden_seed = base_seed + 1000 * d + 1;
    // Alternate the morsel width so half the sweep runs every parallel
    // site at 4 workers — answers must stay oracle-exact at any width.
    // Every other pair of databases pads to the worst case, so both widths
    // also run the padded tail, whose grouped statements on visible anchor
    // keys target the PC's distinct key count: a count below the real
    // group count fails the statement.
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true,
                                    /*worker_threads=*/d % 2 == 0 ? 1 : 4);
    if ((d / 2) % 2 == 1) {
      cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
    }
    GhostDB db(cfg);
    Status built = fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed);
    ASSERT_TRUE(built.ok()) << "db build failed for visible_seed="
                            << visible_seed << ": " << built.ToString();
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t q = 0; q < kQueriesPerDb && ran < iters; ++q, ++ran) {
      uint64_t query_seed = base_seed ^ (d << 32) ^ (q * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      bool brute_force = (q % 5) == 4;  // exercise both projection algos
      std::string why;
      if (!CheckQuery(&db, sql, brute_force, &why)) {
        failures += 1;
        std::string repro = "visible_seed=" + std::to_string(visible_seed) +
                            " hidden_seed=" + std::to_string(hidden_seed) +
                            " query_seed=" + std::to_string(query_seed) +
                            (brute_force ? " [brute-force]" : "") +
                            " sql=" + sql + " | " + why;
        RecordFailure(repro);
        ADD_FAILURE() << repro;
        if (failures >= 10) {
          FAIL() << "too many divergences; stopping early (see "
                 << FailureFile() << ")";
        }
      }
    }
  }
  EXPECT_EQ(ran, iters);
  EXPECT_EQ(failures, 0u);
}

TEST(DifferentialFuzzTest, VisibleOnlyShapesMatchOracle) {
  // Visible-only mode: every generated statement touches no hidden column
  // (one table; ids and visible columns with DISTINCT, GROUP BY,
  // aggregates, ORDER BY and LIMIT), so the PC runs the tail operators and
  // the key receives only the final rows. Fleet size, pool width, padding
  // and the tail budget cycle across databases; answers must be the
  // oracle's, and nothing may be padded or spilled.
  const uint64_t iters = EnvOr("GHOSTDB_VISIBLE_FUZZ_ITERS", 240);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  const uint64_t kQueriesPerDb = 80;
  const uint64_t dbs = (iters + kQueriesPerDb - 1) / kQueriesPerDb;
  const uint32_t kShardCycle[] = {1, 4, 2};

  uint64_t ran = 0, failures = 0;
  for (uint64_t d = 0; d < dbs && ran < iters; ++d) {
    uint64_t visible_seed = base_seed + 8000 * d + 41;
    uint64_t hidden_seed = visible_seed + 1;
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true,
                                    /*worker_threads=*/d % 2 == 0 ? 4 : 1);
    cfg.shard_count = kShardCycle[d % 3];
    if (d % 2 == 1) {
      cfg.exec.sort_budget_buffers = 1;
      cfg.exec.volume_padding = exec::VolumePadding::kWorstCase;
      cfg.exec.pad_spill_runs = true;
    }
    GhostDB db(cfg);
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t q = 0; q < kQueriesPerDb && ran < iters; ++q, ++ran) {
      uint64_t query_seed =
          (base_seed + 313) ^ (d << 32) ^ (q * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql =
          fuzztest::GenerateQuery(rng, shape, /*visible_only=*/true);
      auto stmt = sql::Parse(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      auto bound =
          sql::Bind(std::get<sql::SelectStmt>(*stmt), db.schema(), sql);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      ASSERT_FALSE(bound->TouchesHidden(db.schema())) << sql;
      auto got = db.Query(sql);
      std::string why;
      bool ok = CheckAgainstOracle(&db, sql, got, &why);
      if (ok && got.ok() &&
          (got->metrics.padding_rows != 0 ||
           got->metrics.sort_spill_runs != 0 ||
           got->metrics.flash.pages_written != 0 ||
           got->metrics.observed_volume != got->total_rows)) {
        ok = false;
        why = "padded, spilled or wrote flash";
      }
      if (!ok) {
        failures += 1;
        std::string repro =
            "[visible-only] shards=" + std::to_string(cfg.shard_count) +
            " visible_seed=" + std::to_string(visible_seed) +
            " query_seed=" + std::to_string(query_seed) + " sql=" + sql +
            " | " + why;
        RecordFailure(repro);
        ADD_FAILURE() << repro;
        if (failures >= 10) {
          FAIL() << "too many divergences; stopping early (see "
                 << FailureFile() << ")";
        }
      }
    }
  }
  EXPECT_EQ(ran, iters);
  EXPECT_EQ(failures, 0u);
}

TEST(DifferentialFuzzTest, MatchesOracleUnderForcedTinySortBudget) {
  // Forced-small-sort-budget mode: the same random query sweep, but with
  // the relational-tail budget pinned to one buffer, so every ORDER BY /
  // DISTINCT / fused top-K that sees more than a handful of rows takes the
  // spill (or large-k fallback) path instead of the in-memory one. Answers
  // must stay oracle-exact.
  const uint64_t iters = EnvOr("GHOSTDB_SPILL_FUZZ_ITERS", 150);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  const uint64_t kQueriesPerDb = 75;
  const uint64_t dbs = (iters + kQueriesPerDb - 1) / kQueriesPerDb;

  uint64_t ran = 0, failures = 0;
  for (uint64_t d = 0; d < dbs && ran < iters; ++d) {
    uint64_t visible_seed = base_seed + 2000 * d + 7;
    uint64_t hidden_seed = visible_seed + 1;
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true,
                                    /*worker_threads=*/d % 2 == 0 ? 4 : 1);
    cfg.exec.sort_budget_buffers = 1;
    // Cycle the volume-padding defense through the sweep: padded databases
    // must stay oracle-exact (every dummy row stripped before the result
    // surface), including on the spill paths this test forces.
    cfg.exec.volume_padding = (d + 1) % 3 == 0
                                  ? exec::VolumePadding::kOff
                                  : ((d + 1) % 3 == 1
                                         ? exec::VolumePadding::kQuantize
                                         : exec::VolumePadding::kWorstCase);
    cfg.exec.pad_spill_runs =
        cfg.exec.volume_padding != exec::VolumePadding::kOff;
    GhostDB db(cfg);
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t q = 0; q < kQueriesPerDb && ran < iters; ++q, ++ran) {
      uint64_t query_seed =
          (base_seed + 77) ^ (d << 32) ^ (q * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      std::string why;
      if (!CheckQuery(&db, sql, /*brute_force=*/(q % 7) == 6, &why)) {
        failures += 1;
        std::string repro =
            "[tiny-sort-budget] visible_seed=" + std::to_string(visible_seed) +
            " hidden_seed=" + std::to_string(hidden_seed) +
            " query_seed=" + std::to_string(query_seed) + " padding=" +
            std::to_string(static_cast<int>(cfg.exec.volume_padding)) +
            " sql=" + sql + " | " + why;
        RecordFailure(repro);
        ADD_FAILURE() << repro;
        if (failures >= 10) {
          FAIL() << "too many divergences; stopping early (see "
                 << FailureFile() << ")";
        }
      }
    }
  }
  EXPECT_EQ(ran, iters);
  EXPECT_EQ(failures, 0u);
}

TEST(DifferentialFuzzTest, ShardedFleetsMatchOracleAcrossShardCounts) {
  // Sharding axis: the same random sweep with the fleet size alternating
  // 2 / 4 / 3 across database rounds (shard_count 1 is the baseline every
  // other test runs). The oracle evaluates the *logical* staged data, so a
  // match here pins the whole scatter-gather path — global-id predicate
  // substitution, per-shard legs shipping seq-stamped projected rows, the
  // merge-by-seq reassembly, and the gather's one run of the relational
  // tail (grouping and aggregates included) — to the single-device
  // semantics.
  const uint64_t iters = EnvOr("GHOSTDB_SHARD_DIFF_ITERS", 150);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  const uint64_t kQueriesPerDb = 75;
  const uint64_t dbs = (iters + kQueriesPerDb - 1) / kQueriesPerDb;
  const uint32_t kShardCycle[] = {2, 4, 3};

  uint64_t ran = 0, failures = 0;
  for (uint64_t d = 0; d < dbs && ran < iters; ++d) {
    uint64_t visible_seed = base_seed + 4000 * d + 13;
    uint64_t hidden_seed = visible_seed + 1;
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true,
                                    /*worker_threads=*/d % 2 == 0 ? 1 : 4);
    cfg.shard_count = kShardCycle[d % 3];
    // Alternate the forced-spill budget so the gather tail (the only part
    // of a fleet statement that sorts, groups or spills) exercises both
    // the in-memory and the spill paths.
    if (d % 2 == 1) cfg.exec.sort_budget_buffers = 1;
    GhostDB db(cfg);
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed).ok());
    ASSERT_EQ(db.shard_count(), kShardCycle[d % 3]);
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t q = 0; q < kQueriesPerDb && ran < iters; ++q, ++ran) {
      uint64_t query_seed =
          (base_seed + 131) ^ (d << 32) ^ (q * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      std::string why;
      if (!CheckQuery(&db, sql, /*brute_force=*/(q % 6) == 5, &why)) {
        failures += 1;
        std::string repro =
            "[sharded] shards=" + std::to_string(cfg.shard_count) +
            " visible_seed=" + std::to_string(visible_seed) +
            " hidden_seed=" + std::to_string(hidden_seed) +
            " query_seed=" + std::to_string(query_seed) + " sql=" + sql +
            " | " + why;
        RecordFailure(repro);
        ADD_FAILURE() << repro;
        if (failures >= 10) {
          FAIL() << "too many divergences; stopping early (see "
                 << FailureFile() << ")";
        }
      }
    }
  }
  EXPECT_EQ(ran, iters);
  EXPECT_EQ(failures, 0u);
}

TEST(DifferentialFuzzTest, MatchesOracleUnderInjectedFaultSchedules) {
  // Fault-schedule dimension: the random query sweep with a live seeded
  // fault schedule. Padded rounds must absorb every injected fault (masked
  // replay) and stay oracle-exact; unpadded rounds may surface cleanly
  // tagged injected errors, after which the SAME query must answer
  // oracle-exactly on retry with the schedule rolling forward — faults
  // never corrupt, they only fail.
  const uint64_t iters = EnvOr("GHOSTDB_FAULT_FUZZ_ITERS", 120);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  const uint64_t kQueriesPerDb = 60;
  const uint64_t dbs = (iters + kQueriesPerDb - 1) / kQueriesPerDb;
  const uint32_t kShardCycle[] = {1, 3, 2};

  uint64_t ran = 0, failures = 0, injected_errors = 0;
  for (uint64_t d = 0; d < dbs && ran < iters; ++d) {
    uint64_t visible_seed = base_seed + 6000 * d + 29;
    uint64_t hidden_seed = visible_seed + 1;
    auto cfg = fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true);
    cfg.shard_count = kShardCycle[d % 3];
    bool padded = d % 2 == 0;
    if (padded) {
      cfg.exec.volume_padding = exec::VolumePadding::kQuantize;
      cfg.exec.pad_spill_runs = true;
    }
    if (d % 2 == 1) cfg.exec.sort_budget_buffers = 1;
    cfg.fault_config.enabled = true;
    cfg.fault_config.seed = visible_seed * 31 + d;
    cfg.fault_config.flash_read_p = 0.002;
    cfg.fault_config.flash_write_p = 0.002;
    cfg.fault_config.run_write_p = 0.01;
    cfg.fault_config.ram_acquire_p = 0.01;
    cfg.fault_config.channel_stall_p = 0.01;
    cfg.fault_config.shard_reset_p = 0.02;
    cfg.fault_config.transient_fraction = 0.5;
    GhostDB db(cfg);
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    for (uint64_t q = 0; q < kQueriesPerDb && ran < iters; ++q, ++ran) {
      uint64_t query_seed =
          (base_seed + 211) ^ (d << 32) ^ (q * 0x9E3779B9ULL);
      Rng rng(query_seed);
      std::string sql = fuzztest::GenerateQuery(rng, shape);
      auto got = db.Query(sql);
      if (!got.ok() &&
          device::FaultInjector::IsInjectedFault(got.status())) {
        if (padded) {
          // A tagged error surfacing under padding means the masked
          // replay failed its one job.
          failures += 1;
          std::string repro =
              "[fault-fuzz] padded injected error leaked: visible_seed=" +
              std::to_string(visible_seed) + " query_seed=" +
              std::to_string(query_seed) + " sql=" + sql + " | " +
              got.status().ToString();
          RecordFailure(repro);
          ADD_FAILURE() << repro;
          continue;
        }
        injected_errors += 1;
        got = db.Query(sql);  // serviceability: the retry must be clean
        if (!got.ok() &&
            device::FaultInjector::IsInjectedFault(got.status())) {
          // The schedule may fire again; tolerate, but don't loop.
          continue;
        }
      }
      std::string why;
      if (!CheckAgainstOracle(&db, sql, got, &why)) {
        failures += 1;
        std::string repro =
            "[fault-fuzz] shards=" + std::to_string(cfg.shard_count) +
            " padded=" + std::to_string(padded) +
            " visible_seed=" + std::to_string(visible_seed) +
            " fault_seed=" + std::to_string(cfg.fault_config.seed) +
            " query_seed=" + std::to_string(query_seed) + " sql=" + sql +
            " | " + why;
        RecordFailure(repro);
        ADD_FAILURE() << repro;
        if (failures >= 10) {
          FAIL() << "too many divergences; stopping early (see "
                 << FailureFile() << ")";
        }
      }
    }
  }
  EXPECT_EQ(ran, iters);
  EXPECT_EQ(failures, 0u);
}

TEST(DifferentialFuzzTest, InterleavedSessionsMatchOraclePerSession) {
  // Multi-session mode: random queries dealt to K sessions, drained under
  // the arbiter's interleaving (which varies with the deal), each
  // session's answers checked in its own statement order. Correctness must
  // be per-session — the interleaving may not bleed state across sessions.
  const uint64_t rounds = EnvOr("GHOSTDB_SESSION_FUZZ_ROUNDS", 4);
  const uint64_t base_seed =
      EnvOr("GHOSTDB_FUZZ_SEED", 20070611, /*allow_zero=*/true);
  const size_t kSessions = 4;
  const size_t kQueriesPerRound = 60;

  uint64_t failures = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    uint64_t visible_seed = base_seed + 500 * round + 17;
    uint64_t hidden_seed = visible_seed + 1;
    GhostDB db(fuzztest::FuzzConfig(visible_seed, /*retain_staged=*/true,
                                    /*worker_threads=*/round % 2 == 0 ? 1
                                                                      : 4));
    ASSERT_TRUE(fuzztest::BuildFuzzDb(&db, visible_seed, hidden_seed).ok());
    fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
    Rng rng(visible_seed ^ 0xdeadbeefULL);
    auto deal =
        fuzztest::DealQueries(rng, shape, kQueriesPerRound, kSessions);
    auto sessions = fuzztest::OpenFuzzSessions(&db, deal);
    ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
    std::vector<core::Session*> raw;
    for (auto& s : *sessions) raw.push_back(s.get());
    auto ran = db.DrainSessions(raw);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_EQ(*ran, kQueriesPerRound);
    for (size_t s = 0; s < kSessions; ++s) {
      auto results = (*sessions)[s]->TakeResults();
      ASSERT_EQ(results.size(), deal[s].size());
      for (size_t q = 0; q < results.size(); ++q) {
        std::string why;
        if (!CheckAgainstOracle(&db, deal[s][q], results[q], &why)) {
          failures += 1;
          std::string repro =
              "[session] visible_seed=" + std::to_string(visible_seed) +
              " hidden_seed=" + std::to_string(hidden_seed) + " session=" +
              std::to_string(s) + " sql=" + deal[s][q] + " | " + why;
          RecordFailure(repro);
          ADD_FAILURE() << repro;
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace ghostdb
