// Batch workload throughput: host-side wall-clock of QueryBatch() over a
// mixed statement stream with full row materialization. Unlike the paper
// figures (simulated device seconds), this measures the engine's own CPU —
// planning, the value-space pipeline and result assembly — which is
// what the columnar batches are for. Usage: bench_batch_throughput
// [statements, default 400] [--json FILE] — the JSON results join the
// BENCH_*.json trajectory artifacts CI uploads.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/database.h"

using namespace ghostdb;

int main(int argc, char** argv) {
  int statements =
      argc > 1 && argv[1][0] != '-' ? std::atoi(argv[1]) : 400;
  bench::JsonReporter json(argc, argv);

  core::GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 256 * 1024;
  core::GhostDB db(cfg);
  auto die = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  die(db.Execute("CREATE TABLE Dim (id INT, v INT, name CHAR(12), "
                 "h INT HIDDEN)"));
  die(db.Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                 "v INT, h INT HIDDEN)"));
  Rng rng(7);
  {
    auto dim = db.MutableStaging("Dim");
    die(dim.status());
    for (int i = 0; i < 2000; ++i) {
      die((*dim)->AppendRow(
          {catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000))),
           catalog::Value::String("n" + std::to_string(rng.Uniform(500))),
           catalog::Value::Int32(
               static_cast<int32_t>(rng.Uniform(1000)))}));
    }
    auto fact = db.MutableStaging("Fact");
    die(fact.status());
    for (int i = 0; i < 20000; ++i) {
      die((*fact)->AppendRow(
          {catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(2000))),
           catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000))),
           catalog::Value::Int32(
               static_cast<int32_t>(rng.Uniform(1000)))}));
    }
  }
  die(db.Build());

  // Mixed shapes with rotating literals: wide scans (hundreds of rows
  // materialized), sorts, DISTINCT, joins, aggregates, grouped
  // aggregation.
  std::vector<std::string> sqls;
  sqls.reserve(statements);
  for (int i = 0; i < statements; ++i) {
    switch (i % 6) {
      case 0:
        sqls.push_back("SELECT Fact.id, Fact.v, Fact.h FROM Fact WHERE "
                       "Fact.h < " + std::to_string(100 + i % 400));
        break;
      case 1:
        sqls.push_back("SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < " +
                       std::to_string(200 + i % 300) +
                       " AND Fact.h < 500 ORDER BY Fact.v DESC");
        break;
      case 2:
        sqls.push_back("SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h < " +
                       std::to_string(300 + i % 200));
        break;
      case 3:
        sqls.push_back("SELECT Fact.id, Dim.v, Dim.name FROM Fact, Dim "
                       "WHERE Fact.fk = Dim.id AND Dim.v < " +
                       std::to_string(150 + i % 100) +
                       " AND Fact.h < 300 LIMIT 200");
        break;
      case 4:
        sqls.push_back("SELECT COUNT(*), SUM(Fact.v), MAX(Fact.h) FROM "
                       "Fact WHERE Fact.h >= " + std::to_string(i % 500));
        break;
      default:
        sqls.push_back("SELECT Dim.v, COUNT(*), SUM(Fact.v) FROM Fact, "
                       "Dim WHERE Fact.fk = Dim.id AND Fact.h < " +
                       std::to_string(400 + i % 300) +
                       " GROUP BY Dim.v ORDER BY SUM(Fact.v) DESC "
                       "LIMIT 10");
        break;
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  auto batch = db.QueryBatch(sqls);
  auto t1 = std::chrono::steady_clock::now();
  die(batch.status());

  double wall = std::chrono::duration<double>(t1 - t0).count();
  uint64_t rows = 0;
  for (const auto& r : batch->results) rows += r.rows.size();
  std::printf("batch workload: %d statements, %llu materialized rows\n",
              statements, static_cast<unsigned long long>(rows));
  std::printf("host wall: %.3f s  (%.0f stmts/s, %.0f rows/s)\n", wall,
              statements / wall, static_cast<double>(rows) / wall);
  std::printf("simulated device time: %.3f s\n",
              static_cast<double>(batch->total.total_ns) / 1e9);
  json.Record("batch_" + std::to_string(statements) + "_statements",
              wall * 1e3, static_cast<double>(batch->total.total_ns) / 1e9,
              batch->total);
  json.Write();
  return 0;
}
