// Tests for the morsel-execution machinery: the worker pool's sharding and
// lifetime discipline, the SIMD kernels against their scalar references,
// the worker_threads config validation, and answer equality
// across pool widths. The concurrent stress cases double as the TSan
// surface for everything a worker thread may touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/value.h"
#include "common/rng.h"
#include "core/database.h"
#include "exec/operator.h"
#include "exec/simd.h"
#include "exec/thread_pool.h"

namespace ghostdb {
namespace {

using catalog::CompareOp;
using catalog::DataType;
using catalog::Value;
using exec::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ShardRangeCoversExactlyOnce) {
  for (uint64_t n : {0ull, 1ull, 7ull, 64ull, 1000ull, 4097ull}) {
    for (uint32_t shards : {1u, 2u, 3u, 8u}) {
      uint64_t covered = 0;
      uint64_t prev_end = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        auto [begin, end] = ThreadPool::ShardRange(n, shards, s);
        EXPECT_EQ(begin, prev_end) << "gap/overlap at shard " << s;
        EXPECT_LE(begin, end);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " shards=" << shards;
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ThreadPoolTest, ShardRangesAreBalanced) {
  for (uint32_t shards : {2u, 3u, 7u}) {
    uint64_t n = 1000;
    uint64_t lo = n, hi = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      auto [begin, end] = ThreadPool::ShardRange(n, shards, s);
      lo = std::min(lo, end - begin);
      hi = std::max(hi, end - begin);
    }
    EXPECT_LE(hi - lo, 1u) << shards << " shards of " << n;
  }
}

TEST(ThreadPoolTest, ShardCountRespectsGrainAndWidth) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.width(), 4u);
  EXPECT_EQ(pool.ShardCount(0, 100), 1u);     // empty range: one no-op shard
  EXPECT_EQ(pool.ShardCount(99, 100), 1u);    // under one grain: serial
  EXPECT_EQ(pool.ShardCount(200, 100), 2u);   // two grains: two shards
  EXPECT_EQ(pool.ShardCount(100000, 100), 4u);  // clamped to width
}

TEST(ThreadPoolTest, ParallelShardsRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 100000;
  std::vector<std::atomic<uint32_t>> hits(kN);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.ParallelShards(kN, 64, [&](uint32_t, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, WidthOneRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.ParallelShards(1000, 1, [&](uint32_t, uint64_t, uint64_t) {
    same_thread = same_thread && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool) {
  // Several threads submit regions to one pool at once — the shape of
  // concurrent sessions' PC-side prefetches. Every region must complete
  // exactly its own work.
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr uint64_t kN = 20000;
  std::vector<std::atomic<uint64_t>> sums(kSubmitters);
  for (auto& s : sums) s.store(0);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelShards(kN, 64,
                            [&](uint32_t, uint64_t begin, uint64_t end) {
                              uint64_t local = 0;
                              for (uint64_t i = begin; i < end; ++i) {
                                local += i;
                              }
                              sums[t].fetch_add(local,
                                                std::memory_order_relaxed);
                            });
      }
    });
  }
  for (auto& s : submitters) s.join();
  const uint64_t expect = 20 * (kN * (kN - 1) / 2);
  for (int t = 0; t < kSubmitters; ++t) {
    EXPECT_EQ(sums[t].load(), expect) << "submitter " << t;
  }
}

// ---------------------------------------------------------------------------
// SIMD kernels vs scalar references
// ---------------------------------------------------------------------------

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

// A strided encoded column with adversarial sizes (not multiples of the
// vector width) and value ties around the literal.
struct EncodedColumn {
  std::vector<uint8_t> bytes;
  size_t stride;
  size_t n;
};

EncodedColumn MakeColumn(DataType type, uint32_t width, size_t n,
                         uint64_t seed) {
  EncodedColumn col;
  col.stride = width + 5;  // unaligned on purpose
  col.n = n;
  col.bytes.assign(n * col.stride + 3, 0xEE);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* cell = col.bytes.data() + i * col.stride;
    switch (type) {
      case DataType::kInt32:
        Value::Int32(static_cast<int32_t>(rng.Uniform(41)) - 20)
            .Encode(cell, width);
        break;
      case DataType::kInt64:
        Value::Int64((static_cast<int64_t>(rng.Uniform(41)) - 20) *
                     3000000000LL)
            .Encode(cell, width);
        break;
      case DataType::kDouble: {
        uint64_t pick = rng.Uniform(10);
        double v = pick == 0   ? 0.0
                   : pick == 1 ? -0.0
                               : static_cast<double>(rng.Uniform(21)) - 10.5;
        Value::Double(v).Encode(cell, width);
        break;
      }
      case DataType::kString:
        Value::String("k" + std::to_string(rng.Uniform(30)))
            .Encode(cell, width);
        break;
    }
  }
  return col;
}

struct TypeCase {
  DataType type;
  uint32_t width;
  std::vector<uint8_t> literal;
};

std::vector<TypeCase> TypeCases() {
  std::vector<TypeCase> cases;
  {
    TypeCase c{DataType::kInt32, 4, std::vector<uint8_t>(4)};
    Value::Int32(3).Encode(c.literal.data(), 4);
    cases.push_back(std::move(c));
  }
  {
    TypeCase c{DataType::kInt64, 8, std::vector<uint8_t>(8)};
    Value::Int64(9000000000LL).Encode(c.literal.data(), 8);
    cases.push_back(std::move(c));
  }
  {
    TypeCase c{DataType::kDouble, 8, std::vector<uint8_t>(8)};
    Value::Double(0.0).Encode(c.literal.data(), 8);
    cases.push_back(std::move(c));
  }
  {
    TypeCase c{DataType::kString, 8, std::vector<uint8_t>(8)};
    Value::String("k7").Encode(c.literal.data(), 8);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(SimdKernelTest, FilterEncodedMatchesScalarForAllTypesAndOps) {
  for (const auto& tc : TypeCases()) {
    for (size_t n : {0ull, 1ull, 7ull, 8ull, 9ull, 333ull, 1024ull}) {
      EncodedColumn col = MakeColumn(tc.type, tc.width, n, 0xFACE + n);
      for (CompareOp op : kAllOps) {
        std::vector<uint32_t> want(n + 1, 0xDDDDDDDD);
        std::vector<uint32_t> got(n + 1, 0xDDDDDDDD);
        size_t want_count = exec::simd::scalar::FilterEncoded(
            tc.type, tc.width, col.bytes.data(), col.stride, n,
            tc.literal.data(), op, /*id_base=*/100, want.data());
        size_t got_count = exec::simd::FilterEncoded(
            tc.type, tc.width, col.bytes.data(), col.stride, n,
            tc.literal.data(), op, /*id_base=*/100, got.data());
        ASSERT_EQ(want_count, got_count)
            << "type=" << static_cast<int>(tc.type)
            << " op=" << static_cast<int>(op) << " n=" << n;
        for (size_t i = 0; i < want_count; ++i) {
          ASSERT_EQ(want[i], got[i])
              << "type=" << static_cast<int>(tc.type)
              << " op=" << static_cast<int>(op) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, RefineEncodedMatchesScalarUnderConjunction) {
  for (const auto& tc : TypeCases()) {
    size_t n = 531;
    EncodedColumn col = MakeColumn(tc.type, tc.width, n, 0xBEEF);
    for (CompareOp op : kAllOps) {
      // Start from a mixed flag vector, as the second predicate of a
      // conjunction would.
      std::vector<uint8_t> want(n), got(n);
      Rng rng(17);
      for (size_t i = 0; i < n; ++i) want[i] = rng.Uniform(2) ? 1 : 0;
      got = want;
      exec::simd::scalar::RefineEncoded(tc.type, tc.width, col.bytes.data(),
                                        col.stride, n, tc.literal.data(), op,
                                        want.data());
      exec::simd::RefineEncoded(tc.type, tc.width, col.bytes.data(),
                                col.stride, n, tc.literal.data(), op,
                                got.data());
      ASSERT_EQ(want, got) << "type=" << static_cast<int>(tc.type)
                           << " op=" << static_cast<int>(op);
    }
  }
}

TEST(SimdKernelTest, CompactFlagsMatchesScalar) {
  for (size_t n : {0ull, 1ull, 31ull, 32ull, 33ull, 555ull, 4096ull}) {
    std::vector<uint8_t> flags(n);
    Rng rng(n + 1);
    for (auto& f : flags) f = rng.Uniform(2) ? 1 : 0;
    std::vector<uint32_t> want(n + 1, 0xAAAAAAAA), got(n + 1, 0xAAAAAAAA);
    size_t want_count = exec::simd::scalar::CompactFlags(flags.data(), n,
                                                         /*id_base=*/7,
                                                         want.data());
    size_t got_count =
        exec::simd::CompactFlags(flags.data(), n, /*id_base=*/7, got.data());
    ASSERT_EQ(want_count, got_count) << "n=" << n;
    for (size_t i = 0; i < want_count; ++i) {
      ASSERT_EQ(want[i], got[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelTest, GatherCellsMatchesScalar) {
  constexpr size_t kRows = 700;
  constexpr size_t kStride = 21;
  std::vector<uint8_t> src(kRows * kStride);
  Rng rng(99);
  for (auto& b : src) b = static_cast<uint8_t>(rng.Uniform(256));
  for (uint32_t width : {1u, 3u, 4u, 8u, 12u}) {
    for (size_t offset : {0ull, 4ull, 9ull}) {
      ASSERT_LE(offset + width, kStride);
      for (size_t n : {0ull, 1ull, 5ull, 64ull, 257ull}) {
        std::vector<uint32_t> idx(n);
        for (auto& i : idx) {
          i = static_cast<uint32_t>(rng.Uniform(kRows));
        }
        size_t dst_stride = width + 6;
        std::vector<uint8_t> want(n * dst_stride + 1, 0x11);
        std::vector<uint8_t> got(n * dst_stride + 1, 0x11);
        exec::simd::scalar::GatherCells(src.data(), kStride, offset, width,
                                        idx.data(), n, want.data(),
                                        dst_stride);
        exec::simd::GatherCells(src.data(), kStride, offset, width,
                                idx.data(), n, got.data(), dst_stride);
        ASSERT_EQ(want, got)
            << "width=" << width << " offset=" << offset << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ParallelConfigTest, ValidateExecConfigRejectsAbsurdKnobs) {
  exec::ExecConfig good;
  EXPECT_TRUE(exec::ValidateExecConfig(good).ok());

  exec::ExecConfig too_wide = good;
  too_wide.worker_threads = 65;
  EXPECT_TRUE(exec::ValidateExecConfig(too_wide).IsInvalidArgument());
}

core::GhostDBConfig TinyConfig() {
  core::GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  return cfg;
}

Status TryBuild(core::GhostDBConfig cfg) {
  core::GhostDB db(cfg);
  GHOSTDB_RETURN_NOT_OK(db.Execute("CREATE TABLE T (id INT, v INT)"));
  return db.Build();
}

TEST(ParallelConfigTest, BuildRejectsBadWorkerThreads) {
  auto zero = TinyConfig();
  zero.worker_threads = 0;
  EXPECT_TRUE(TryBuild(zero).IsInvalidArgument());

  auto absurd = TinyConfig();
  absurd.worker_threads = 1000;
  EXPECT_TRUE(TryBuild(absurd).IsInvalidArgument());

  auto bad_exec = TinyConfig();
  bad_exec.exec.worker_threads = 65;
  EXPECT_TRUE(TryBuild(bad_exec).IsInvalidArgument());

  auto fine = TinyConfig();
  fine.worker_threads = 4;
  EXPECT_TRUE(TryBuild(fine).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: width invariance and concurrent sessions (the TSan surface)
// ---------------------------------------------------------------------------

void BuildSmallDb(core::GhostDB* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE T (id INT, v INT, s CHAR(8), "
                          "h INT HIDDEN)")
                  .ok());
  auto staged = db->MutableStaging("T");
  ASSERT_TRUE(staged.ok());
  Rng rng(31);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE((*staged)
                    ->AppendRow({Value::Int32(static_cast<int32_t>(
                                     rng.Uniform(500))),
                                 Value::String("s" + std::to_string(
                                                         rng.Uniform(40))),
                                 Value::Int32(static_cast<int32_t>(
                                     rng.Uniform(500)))})
                    .ok());
  }
  ASSERT_TRUE(db->Build().ok());
}

TEST(ParallelExecTest, AnswersAreIdenticalAcrossPoolWidths) {
  auto cfg1 = TinyConfig();
  auto cfg4 = TinyConfig();
  cfg4.worker_threads = 4;
  core::GhostDB db1(cfg1), db4(cfg4);
  BuildSmallDb(&db1);
  BuildSmallDb(&db4);
  for (const char* sql : {
           "SELECT T.id, T.v FROM T WHERE T.v < 400",
           "SELECT T.id, T.v FROM T WHERE T.v < 350 ORDER BY T.v DESC",
           "SELECT DISTINCT T.s FROM T WHERE T.v < 300",
           "SELECT T.s, COUNT(*), SUM(T.v) FROM T WHERE T.h < 400 "
           "GROUP BY T.s ORDER BY T.s",
       }) {
    SCOPED_TRACE(sql);
    auto r1 = db1.Query(sql);
    auto r4 = db4.Query(sql);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    EXPECT_EQ(r1->total_rows, r4->total_rows);
    ASSERT_EQ(r1->rows.size(), r4->rows.size());
    for (size_t r = 0; r < r1->rows.size(); ++r) {
      for (size_t c = 0; c < r1->rows[r].size(); ++c) {
        EXPECT_TRUE(r1->rows[r][c] == r4->rows[r][c])
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(ParallelExecTest, ConcurrentSessionQueriesOverSharedPool) {
  // The cross-layer stress: distinct sessions issue queries from distinct
  // threads, all sharing one GhostDB, one planner, one RAM manager, one
  // worker pool. Under TSan this is the race detector for every structure
  // a worker or a concurrent session may touch; under plain builds it
  // checks answers stay per-session correct.
  auto cfg = TinyConfig();
  cfg.worker_threads = 4;
  core::GhostDB db(cfg);
  BuildSmallDb(&db);
  constexpr int kSessions = 4;
  constexpr int kRounds = 12;
  std::vector<std::unique_ptr<core::Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    core::SessionOptions options;
    options.name = "stress" + std::to_string(s);
    options.ram_quota_buffers = 4;
    auto session = db.OpenSession(std::move(options));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kRounds; ++i) {
        int lit = 100 + 17 * s + 11 * i;
        std::string sql;
        switch (i % 4) {
          case 0:
            sql = "SELECT T.id, T.v FROM T WHERE T.v < " +
                  std::to_string(lit);
            break;
          case 1:
            sql = "SELECT T.id, T.v FROM T WHERE T.v < " +
                  std::to_string(lit) + " ORDER BY T.v DESC LIMIT 20";
            break;
          case 2:
            sql = "SELECT DISTINCT T.s FROM T WHERE T.v < " +
                  std::to_string(lit);
            break;
          default:
            sql = "SELECT T.s, COUNT(*) FROM T WHERE T.h < " +
                  std::to_string(lit) + " GROUP BY T.s";
            break;
        }
        auto r = sessions[s]->Query(sql);
        if (!r.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (auto& s : sessions) {
    EXPECT_EQ(s->queries_executed(), static_cast<uint64_t>(kRounds));
  }
}

}  // namespace
}  // namespace ghostdb
