// Wall-clock micro-benchmarks (google-benchmark) of the hot primitives:
// crypto (AES block; ChaCha20, AES-CTR and SHA-256 over a page, each
// against its crypto::scalar reference), Bloom insert/probe, encoded key
// comparison, B+-tree page search, RNG, the SIMD scan kernels against
// their scalar references, and the channel wire codec. These measure the
// host implementation, not the simulated device.
//
// `--json FILE` additionally writes the wire codec's record (host ns per
// row to encode + decode, raw vs wire bytes) through bench::JsonReporter:
//   ./bench_micro_ops --benchmark_filter=WireCodec --json BENCH_wire_codec.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/hash.h"
#include "crypto/sha256.h"
#include "bench_common.h"
#include "device/ram_manager.h"
#include "device/wire_codec.h"
#include "exec/bloom.h"
#include "exec/simd.h"

namespace {

using namespace ghostdb;

void BM_AesEncryptBlock(benchmark::State& state) {
  uint8_t key[16] = {1, 2, 3};
  crypto::Aes128 aes(key);
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

// The page-sized crypto kernels, dispatched (kSimd) against the
// crypto::scalar reference bodies. On a build without the extensions both
// rows run the scalar body.
constexpr size_t kPageBytes = 2048;

template <bool kSimd>
void BM_ChaCha20Page(benchmark::State& state) {
  uint8_t key[32] = {7};
  uint8_t nonce[12] = {9};
  crypto::ChaCha20 cipher(key, nonce);
  std::vector<uint8_t> page(kPageBytes, 0xAB);
  for (auto _ : state) {
    if constexpr (kSimd) {
      cipher.Crypt(page.data(), page.size());
    } else {
      crypto::scalar::Crypt(cipher, page.data(), page.size(), 0);
    }
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kPageBytes);
}
BENCHMARK(BM_ChaCha20Page<false>)->Name("BM_ChaCha20Page_scalar");
BENCHMARK(BM_ChaCha20Page<true>)->Name("BM_ChaCha20Page_simd");

template <bool kSimd>
void BM_AesCtrPage(benchmark::State& state) {
  uint8_t key[16] = {1, 2, 3};
  uint8_t nonce[12] = {4, 5, 6};
  crypto::Aes128Ctr ctr(key, nonce);
  std::vector<uint8_t> page(kPageBytes, 0x3C);
  for (auto _ : state) {
    if constexpr (kSimd) {
      ctr.Crypt(page.data(), page.size());
    } else {
      crypto::scalar::Crypt(ctr, page.data(), page.size(), 0);
    }
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kPageBytes);
}
BENCHMARK(BM_AesCtrPage<false>)->Name("BM_AesCtrPage_scalar");
BENCHMARK(BM_AesCtrPage<true>)->Name("BM_AesCtrPage_simd");

// The compression function over a page's 32 blocks (Sha256::Hash adds one
// padding block to this).
template <bool kSimd>
void BM_Sha256Page(benchmark::State& state) {
  std::vector<uint8_t> page(kPageBytes, 0x5C);
  uint32_t digest[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    if constexpr (kSimd) {
      crypto::Sha256Compress(digest, page.data(), kPageBytes / 64);
    } else {
      crypto::scalar::Sha256Compress(digest, page.data(), kPageBytes / 64);
    }
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * kPageBytes);
}
BENCHMARK(BM_Sha256Page<false>)->Name("BM_Sha256Page_scalar");
BENCHMARK(BM_Sha256Page<true>)->Name("BM_Sha256Page_simd");

void BM_BloomInsert(benchmark::State& state) {
  device::RamManager ram(64 * 1024, 2048);
  auto bloom = exec::BloomFilter::Create(&ram, 100000, 32);
  Rng rng(3);
  for (auto _ : state) {
    bloom->Insert(static_cast<catalog::RowId>(rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert);

void BM_BloomProbe(benchmark::State& state) {
  device::RamManager ram(64 * 1024, 2048);
  auto bloom = exec::BloomFilter::Create(&ram, 100000, 32);
  for (catalog::RowId id = 0; id < 100000; ++id) bloom->Insert(id * 3);
  Rng rng(4);
  size_t hits = 0;
  for (auto _ : state) {
    hits += bloom->MightContain(static_cast<catalog::RowId>(rng.Next()));
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_CompareEncodedStrings(benchmark::State& state) {
  uint8_t a[10], b[10];
  catalog::Value::String("042731").Encode(a, 10);
  catalog::Value::String("042732").Encode(b, 10);
  for (auto _ : state) {
    int c = catalog::CompareEncoded(catalog::DataType::kString, 10, a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareEncodedStrings);

void BM_HashId(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    uint64_t h = crypto::HashId(static_cast<uint32_t>(rng.Next()), 0x51);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashId);

// ---- SIMD scan kernels vs scalar references -------------------------------
// A synthetic encoded partition: 64K rows, 24-byte stride, an INT column at
// offset 4 and a DOUBLE column at offset 8 — the layout the visible-store
// and hidden-image scans run over. ~50% selectivity.

constexpr size_t kScanRows = 64 * 1024;
constexpr size_t kScanStride = 24;

std::vector<uint8_t> ScanPartition() {
  std::vector<uint8_t> part(kScanRows * kScanStride);
  Rng rng(11);
  for (size_t i = 0; i < kScanRows; ++i) {
    uint8_t* row = part.data() + i * kScanStride;
    catalog::Value::Int32(static_cast<int32_t>(i)).Encode(row, 4);
    catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000)))
        .Encode(row + 4, 4);
    catalog::Value::Double(static_cast<double>(rng.Uniform(1000)))
        .Encode(row + 8, 8);
  }
  return part;
}

template <bool kSimd>
void BM_FilterEncodedI32(benchmark::State& state) {
  auto part = ScanPartition();
  uint8_t lit[4];
  catalog::Value::Int32(500).Encode(lit, 4);
  std::vector<uint32_t> out(kScanRows);
  for (auto _ : state) {
    size_t count;
    if constexpr (kSimd) {
      count = exec::simd::FilterEncoded(
          catalog::DataType::kInt32, 4, part.data() + 4, kScanStride,
          kScanRows, lit, catalog::CompareOp::kLt, 0, out.data());
    } else {
      count = exec::simd::scalar::FilterEncoded(
          catalog::DataType::kInt32, 4, part.data() + 4, kScanStride,
          kScanRows, lit, catalog::CompareOp::kLt, 0, out.data());
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterEncodedI32<false>)->Name("BM_FilterEncodedI32_scalar");
BENCHMARK(BM_FilterEncodedI32<true>)->Name("BM_FilterEncodedI32_simd");

template <bool kSimd>
void BM_FilterEncodedF64(benchmark::State& state) {
  auto part = ScanPartition();
  uint8_t lit[8];
  catalog::Value::Double(500.0).Encode(lit, 8);
  std::vector<uint32_t> out(kScanRows);
  for (auto _ : state) {
    size_t count;
    if constexpr (kSimd) {
      count = exec::simd::FilterEncoded(
          catalog::DataType::kDouble, 8, part.data() + 8, kScanStride,
          kScanRows, lit, catalog::CompareOp::kGe, 0, out.data());
    } else {
      count = exec::simd::scalar::FilterEncoded(
          catalog::DataType::kDouble, 8, part.data() + 8, kScanStride,
          kScanRows, lit, catalog::CompareOp::kGe, 0, out.data());
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterEncodedF64<false>)->Name("BM_FilterEncodedF64_scalar");
BENCHMARK(BM_FilterEncodedF64<true>)->Name("BM_FilterEncodedF64_simd");

template <bool kSimd>
void BM_CompactFlags(benchmark::State& state) {
  std::vector<uint8_t> flags(kScanRows);
  Rng rng(12);
  for (auto& f : flags) f = rng.Uniform(2) ? 1 : 0;
  std::vector<uint32_t> out(kScanRows);
  for (auto _ : state) {
    size_t count;
    if constexpr (kSimd) {
      count = exec::simd::CompactFlags(flags.data(), kScanRows, 0,
                                       out.data());
    } else {
      count = exec::simd::scalar::CompactFlags(flags.data(), kScanRows, 0,
                                               out.data());
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_CompactFlags<false>)->Name("BM_CompactFlags_scalar");
BENCHMARK(BM_CompactFlags<true>)->Name("BM_CompactFlags_simd");

template <bool kSimd>
void BM_GatherCells(benchmark::State& state) {
  auto part = ScanPartition();
  Rng rng(13);
  std::vector<uint32_t> idx(kScanRows / 2);
  for (auto& i : idx) i = static_cast<uint32_t>(rng.Uniform(kScanRows));
  std::vector<uint8_t> dst(idx.size() * 16);
  for (auto _ : state) {
    if constexpr (kSimd) {
      exec::simd::GatherCells(part.data(), kScanStride, 4, 4, idx.data(),
                              idx.size(), dst.data(), 16);
    } else {
      exec::simd::scalar::GatherCells(part.data(), kScanStride, 4, 4,
                                      idx.data(), idx.size(), dst.data(), 16);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * idx.size());
}
BENCHMARK(BM_GatherCells<false>)->Name("BM_GatherCells_scalar");
BENCHMARK(BM_GatherCells<true>)->Name("BM_GatherCells_simd");

void BM_RngNext(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

// The serving store's whole Fact table as one projection payload:
// 60000 rows of (id, v INT in [0, 1000), tag CHAR(16) "t0".."t899").
constexpr uint64_t kFactRows = 60000;
const device::WireLayout kFactLayout{
    {{catalog::DataType::kInt32, 4}, {catalog::DataType::kString, 16}}};

std::vector<uint8_t> FactPayload() {
  Rng rng(14);
  const uint32_t width = kFactLayout.row_width();
  std::vector<uint8_t> rows(kFactRows * width);
  for (uint64_t r = 0; r < kFactRows; ++r) {
    uint8_t* row = rows.data() + r * width;
    catalog::Value::Int32(static_cast<int32_t>(r)).Encode(row, 4);
    catalog::Value::Int32(static_cast<int32_t>(rng.Uniform(1000)))
        .Encode(row + 4, 4);
    catalog::Value::String("t" + std::to_string(rng.Uniform(900)))
        .Encode(row + 8, 16);
  }
  return rows;
}

/// One encode (PC) + decode (key) round of the Fact payload at the
/// paper's 1.5 MB/s; returns the decoded message, its wire size in
/// `wire_size`.
device::WireRows WireRoundTrip(const std::vector<uint8_t>& rows,
                               size_t* wire_size) {
  std::vector<uint8_t> wire =
      device::EncodeRows(device::WireFormat::kCompact, kFactLayout,
                         rows.data(), kFactRows, 1.5e6);
  auto decoded = device::DecodeRows(device::WireFormat::kCompact, kFactLayout,
                                    wire.data(), wire.size(), kFactRows);
  if (!decoded.ok() || decoded->bytes != rows) {
    std::fprintf(stderr, "wire codec round trip failed\n");
    std::exit(1);
  }
  *wire_size = wire.size();
  return std::move(*decoded);
}

void BM_WireCodecFact(benchmark::State& state) {
  auto rows = FactPayload();
  size_t wire = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(WireRoundTrip(rows, &wire));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFactRows);
  state.counters["raw_bytes"] = static_cast<double>(rows.size());
  state.counters["wire_bytes"] = static_cast<double>(wire);
}
BENCHMARK(BM_WireCodecFact)->Unit(benchmark::kMillisecond);

/// The JsonReporter record of the wire codec: median of a few timed
/// rounds, plus the simulated channel and decode cost of one message.
void RecordWireCodec(bench::JsonReporter* json) {
  auto rows = FactPayload();
  std::vector<double> ns;
  size_t wire = 0;
  uint64_t compact_bytes = 0;
  for (int round = 0; round < 15; ++round) {
    auto start = std::chrono::steady_clock::now();
    compact_bytes = WireRoundTrip(rows, &wire).compact_bytes;
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  std::sort(ns.begin(), ns.end());
  double ns_per_row = ns[ns.size() / 2] / kFactRows;
  double ms_per_byte = 1e3 / 1.5e6;
  char fields[512];
  std::snprintf(
      fields, sizeof(fields),
      "\"status\": \"ok\", \"rows\": %llu, \"raw_bytes\": %zu, "
      "\"wire_bytes\": %zu, \"host_ns_per_row\": %.2f, "
      "\"sim_comm_raw_ms\": %.3f, \"sim_comm_wire_ms\": %.3f, "
      "\"sim_decode_ms\": %.3f",
      static_cast<unsigned long long>(kFactRows), rows.size(), wire,
      ns_per_row, rows.size() * ms_per_byte, wire * ms_per_byte,
      static_cast<double>(compact_bytes * device::kDecodeNsPerByte) / 1e6);
  json->RecordCustom("wire_codec_fact_60000", fields);
  std::printf("wire codec: %zu raw -> %zu wire bytes, %.1f host ns/row\n",
              rows.size(), wire, ns_per_row);
}

}  // namespace

int main(int argc, char** argv) {
  ghostdb::bench::JsonReporter json(argc, argv);
  // Google Benchmark rejects flags it does not know: drop `--json FILE`.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int count = static_cast<int>(args.size());
  if (json.enabled()) RecordWireCodec(&json);
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
