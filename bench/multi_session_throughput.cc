// Multi-session serving throughput, on two axes:
//
//  * the session layer's structural win: K sessions over ONE shared GhostDB
//    (one store partitioned/indexed/encrypted once, shared plan cache,
//    arbitrated channel) versus K separate serial instances;
//  * the morsel-pool scaling: the same K-session drain with
//    worker_threads 1 / 2 / 4. The drain itself is the deterministic
//    single-threaded scheduler, so the pool is the *only* parallelism axis
//    — wall-clock differences are the worker pool's alone, and every
//    width must produce identical answers (asserted). The ratio is
//    printed and recorded, not gated.
//
// The pool's one site is the PC's visible scans and projection payloads
// (sharded + SIMD, VisibleStore::SelectIds/Project); the key's operators,
// the relational tail and all device work (hidden scans, flash, channel)
// run single-threaded, so the workload leans on visible columns. Needs
// >1 host core for the widths to separate.
//
//  * the sharded-fleet scaling win: the same drain over a store
//    hash-partitioned across shard_count 1 / 2 / 4 SecureDevices.
//    Scatter-gather divides the per-query device work (hidden scans,
//    flash, projection streaming) across per-shard clocks, so *simulated*
//    serving time — a deterministic function of the cost model — must
//    drop monotonically and reach >= 1.5x at 4 shards (asserted, with the
//    answers pinned to the serial baseline).
//
// Usage: bench_multi_session_throughput [sessions=4] [stmts/session=40]
//                                       [--json FILE] [--shard-json FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/database.h"

using namespace ghostdb;

namespace {

void Die(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
}

// The serving dataset: a large, mostly visible Fact table (the PC-side
// scans are what the pool shards) over a small Dim.
void BuildDb(core::GhostDB* db) {
  Die(db->Execute("CREATE TABLE Dim (id INT, v INT, name CHAR(12), "
                  "h INT HIDDEN)"));
  Die(db->Execute("CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, "
                  "v INT, tag CHAR(16), h INT HIDDEN)"));
  Rng rng(7);
  auto dim = db->MutableStaging("Dim");
  Die(dim.status());
  for (int i = 0; i < 2000; ++i) {
    Die((*dim)->AppendRow(
        {catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000))),
         catalog::Value::String("n" + std::to_string(rng.Uniform(500))),
         catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000)))}));
  }
  auto fact = db->MutableStaging("Fact");
  Die(fact.status());
  for (int i = 0; i < 60000; ++i) {
    Die((*fact)->AppendRow(
        {catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(2000))),
         catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000))),
         catalog::Value::String("t" + std::to_string(rng.Uniform(900))),
         catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000)))}));
  }
  Die(db->Build());
}

// One principal's statement stream: shapes whose cost is host-side value
// work (visible scans, sorts, DISTINCT, GROUP BY), rotating literals,
// per-session offsets so streams differ without changing the shape mix.
std::vector<std::string> SessionWorkload(int session, int statements) {
  std::vector<std::string> sqls;
  sqls.reserve(static_cast<size_t>(statements));
  for (int i = 0; i < statements; ++i) {
    int lit = 37 * session + i;
    switch (i % 5) {
      case 0:
        // Wide visible scan + projection payload: the sharded SIMD path.
        sqls.push_back("SELECT Fact.id, Fact.v, Fact.tag FROM Fact "
                       "WHERE Fact.v < " + std::to_string(600 + lit % 300));
        break;
      case 1:
        // Large multi-key ORDER BY: parallel generation sorts; every
        // comparator byte is morsel work.
        sqls.push_back("SELECT Fact.id, Fact.tag, Fact.v FROM Fact WHERE "
                       "Fact.v < " + std::to_string(500 + lit % 300) +
                       " ORDER BY Fact.v DESC, Fact.tag, Fact.id");
        break;
      case 2:
        // String-keyed sort: the memcmp comparator, all morsel-parallel.
        sqls.push_back("SELECT Fact.tag, Fact.v, Fact.id FROM Fact WHERE "
                       "Fact.v < " + std::to_string(500 + lit % 300) +
                       " ORDER BY Fact.tag, Fact.v, Fact.id DESC");
        break;
      case 3:
        // Grouped aggregation: morsel key extraction + host folds.
        sqls.push_back("SELECT Fact.tag, COUNT(*), SUM(Fact.v) FROM Fact "
                       "WHERE Fact.v < " + std::to_string(600 + lit % 300) +
                       " GROUP BY Fact.tag");
        break;
      default:
        // One joined + hidden-predicate shape so the serial device path
        // (QEP_SJ, hidden scan) stays in the mix.
        sqls.push_back("SELECT Fact.id, Fact.tag, Dim.v FROM Fact, Dim "
                       "WHERE Fact.fk = Dim.id AND Dim.v < " +
                       std::to_string(150 + lit % 100) +
                       " AND Fact.h < 300 LIMIT 200");
        break;
    }
  }
  return sqls;
}

core::GhostDBConfig Config(uint32_t workers, uint32_t shards = 1) {
  core::GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 256 * 1024;
  cfg.worker_threads = workers;
  cfg.shard_count = shards;
  // Row counts stay exact; capping materialization keeps the serial
  // decode-to-Values tail from flattening the scaling signal.
  cfg.exec.result_row_limit = 64;
  // A generous relational-tail budget: ORDER BY/DISTINCT working sets stay
  // in memory, so their cost is the morsel-parallel generation sort rather
  // than serialized spill I/O — the host-compute serving profile this
  // bench scales across worker counts.
  cfg.exec.sort_budget_buffers = 512;
  return cfg;
}

struct DrainOutcome {
  double wall_s = 0.0;
  uint64_t rows = 0;
  exec::QueryMetrics totals;
};

// Builds a fresh shared store with `workers` pool width (partitioned across
// `shards` devices), opens K sessions, queues every workload, and drains
// under the deterministic scheduler.
DrainOutcome RunSharedStore(int sessions, int per_session, uint32_t workers,
                            uint32_t shards = 1) {
  core::GhostDB db(Config(workers, shards));
  BuildDb(&db);
  std::vector<std::unique_ptr<core::Session>> handles;
  for (int s = 0; s < sessions; ++s) {
    core::SessionOptions options;
    options.name = "bench" + std::to_string(s);
    // A healthy quota: sorts mostly stay in memory, so the serving cost is
    // the host-side value work the pool shards, not serialized spill I/O.
    options.ram_quota_buffers = 6;
    auto session = db.OpenSession(std::move(options));
    Die(session.status());
    handles.push_back(std::move(*session));
  }
  for (int s = 0; s < sessions; ++s) {
    for (std::string& sql : SessionWorkload(s, per_session)) {
      handles[static_cast<size_t>(s)]->Enqueue(std::move(sql));
    }
  }
  std::vector<core::Session*> raw;
  for (auto& h : handles) raw.push_back(h.get());
  auto t0 = std::chrono::steady_clock::now();
  auto drained = db.DrainSessions(raw);
  Die(drained.status());
  DrainOutcome out;
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& h : handles) {
    for (auto& r : h->TakeResults()) {
      Die(r.status());
      out.rows += r->total_rows;
    }
    out.totals.Accumulate(h->metrics());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = argc > 1 && argv[1][0] != '-' ? std::atoi(argv[1]) : 4;
  int per_session = argc > 2 && argv[2][0] != '-' ? std::atoi(argv[2]) : 40;
  bench::JsonReporter json(argc, argv);
  int total = sessions * per_session;
  std::printf("multi-session serving: %d sessions x %d statements "
              "(%d total, %u host core%s)\n",
              sessions, per_session, total,
              std::thread::hardware_concurrency(),
              std::thread::hardware_concurrency() == 1 ? "" : "s");

  // ---- Baseline: K serial instances, own store each ---------------------
  uint64_t serial_rows = 0;
  double serial_wall = 0.0;
  exec::QueryMetrics serial_totals;
  auto b0 = std::chrono::steady_clock::now();
  for (int s = 0; s < sessions; ++s) {
    core::GhostDB instance(Config(1));
    BuildDb(&instance);
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string& sql : SessionWorkload(s, per_session)) {
      auto r = instance.Query(sql);
      Die(r.status());
      serial_rows += r->total_rows;
      serial_totals.Accumulate(r->metrics);
    }
    serial_wall +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  double serial_batch =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - b0)
          .count();
  json.Record("serial_instances", serial_wall * 1e3,
              bench::Sec(serial_totals.total_ns), serial_totals);
  std::printf("  K serial instances:          batch %.3f s (serve %.3f; "
              "%.0f stmts/s, %llu rows)\n",
              serial_batch, serial_wall, total / serial_wall,
              static_cast<unsigned long long>(serial_rows));

  // ---- K sessions, one shared store, worker_threads axis ----------------
  double wall_w1 = 0.0, wall_w4 = 0.0;
  for (uint32_t workers : {1u, 2u, 4u}) {
    DrainOutcome out = RunSharedStore(sessions, per_session, workers);
    json.Record("sessions_w" + std::to_string(workers), out.wall_s * 1e3,
                bench::Sec(out.totals.total_ns), out.totals);
    std::printf("  K sessions, %u worker%s:      serve %.3f s "
                "(%.0f stmts/s, %llu rows)\n",
                workers, workers == 1 ? " " : "s", out.wall_s,
                total / out.wall_s,
                static_cast<unsigned long long>(out.rows));
    if (out.rows != serial_rows) {
      std::fprintf(stderr,
                   "row mismatch vs serial baseline at %u workers: "
                   "%llu vs %llu\n",
                   workers, static_cast<unsigned long long>(out.rows),
                   static_cast<unsigned long long>(serial_rows));
      return 1;
    }
    if (workers == 1) wall_w1 = out.wall_s;
    if (workers == 4) wall_w4 = out.wall_s;
  }
  std::printf("  worker-pool scaling (w1/w4): %.2fx%s\n", wall_w1 / wall_w4,
              std::thread::hardware_concurrency() < 4
                  ? "  (needs >=4 host cores to mean anything)"
                  : "");

  // ---- Sharded fleet axis: shard_count 1 / 2 / 4 ------------------------
  // One logical store hash-partitioned across N simulated SecureDevices;
  // the same K-session drain. Root-anchored statements scatter across the
  // fleet (each shard's device does ~1/N of the hidden scans, flash reads,
  // and projection streaming on its own clock) and gather on shard 0, so
  // the *simulated* serving time — max over scatter legs plus the gather
  // tail, summed over statements — is the scaling signal. It is a pure
  // function of the cost model, so the monotonicity and speedup criteria
  // below are deterministic, unlike wall-clock. Answers must not move.
  bench::JsonReporter shard_json(argc, argv, "--shard-json");
  double sim_s1 = 0.0, sim_s4 = 0.0;
  bool shard_scaling_ok = true;
  double prev_sim = 0.0;
  for (uint32_t shards : {1u, 2u, 4u}) {
    DrainOutcome out = RunSharedStore(sessions, per_session, /*workers=*/1,
                                      shards);
    double sim = bench::Sec(out.totals.total_ns);
    shard_json.Record("shards_" + std::to_string(shards), out.wall_s * 1e3,
                      sim, out.totals);
    std::printf("  %u-shard fleet:              serve %.3f s sim "
                "(%.0f stmts/sim-s; wall %.3f s, %llu rows)\n",
                shards, sim, total / sim, out.wall_s,
                static_cast<unsigned long long>(out.rows));
    if (out.rows != serial_rows) {
      std::fprintf(stderr,
                   "row mismatch vs serial baseline at %u shards: "
                   "%llu vs %llu\n",
                   shards, static_cast<unsigned long long>(out.rows),
                   static_cast<unsigned long long>(serial_rows));
      return 1;
    }
    if (prev_sim > 0.0 && sim > prev_sim) {
      std::fprintf(stderr,
                   "shard scaling not monotonic: %u shards took %.6f "
                   "sim-s after %.6f\n",
                   shards, sim, prev_sim);
      shard_scaling_ok = false;
    }
    prev_sim = sim;
    if (shards == 1) sim_s1 = sim;
    if (shards == 4) sim_s4 = sim;
  }
  double shard_speedup = sim_s1 / sim_s4;
  shard_json.RecordCustom(
      "shard_scaling",
      "\"speedup_4v1\": " + std::to_string(shard_speedup) +
          ", \"criterion\": 1.5");
  std::printf("  shard-fleet scaling (1/4):   %.2fx simulated (criterion "
              ">= 1.50x, monotonic)\n", shard_speedup);
  if (shard_speedup < 1.5) {
    std::fprintf(stderr,
                 "shard scaling criterion failed: %.2fx < 1.5x at 4 "
                 "shards\n", shard_speedup);
    shard_scaling_ok = false;
  }
  return shard_scaling_ok ? 0 : 1;
}
