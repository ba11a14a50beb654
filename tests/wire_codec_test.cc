// Hostile input to the key's wire decoder. The PC is untrusted, so
// device::DecodeRows (with CheckPositionKeys for a `vis-result` keyed by
// position) is the key's input boundary: every malformed message must come
// back as InvalidArgument, never as an out-of-bounds read (the ASan+UBSan
// build runs this suite too). Hand-built messages cover each
// named malformation; a seeded mutation loop covers the rest.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/coding.h"
#include "common/rng.h"
#include "device/wire_codec.h"

namespace ghostdb::device {
namespace {

using catalog::DataType;
using catalog::Value;

constexpr double kThroughput = 1.5e6;  // the paper's USB link
constexpr uint64_t kRows = 60000;      // id limit of the decoded table

const WireLayout kIds{};
const WireLayout kFact{{{DataType::kInt32, 4}, {DataType::kString, 16}}};
const WireLayout kTag4{{{DataType::kString, 4}}};
// A visible-only statement's final rows (`vis-result`): a GROUP BY key,
// COUNT(*), AVG and MIN of a CHAR column, keyed by position.
const WireLayout kResult{{{DataType::kInt32, 4},
                          {DataType::kInt64, 8},
                          {DataType::kDouble, 8},
                          {DataType::kString, 16}}};

// Block modes, as documented in wire_codec.h.
constexpr uint8_t kRaw = 0;
constexpr uint8_t kDelta = 1;
constexpr uint8_t kBitmap = 2;

std::vector<uint8_t> FactRows(const std::vector<uint32_t>& ids, Rng* rng) {
  std::vector<uint8_t> rows(ids.size() * kFact.row_width());
  for (size_t i = 0; i < ids.size(); ++i) {
    uint8_t* row = rows.data() + i * kFact.row_width();
    EncodeFixed32(row, ids[i]);
    Value::Int32(static_cast<int32_t>(rng->Uniform(1000))).Encode(row + 4, 4);
    Value::String("t" + std::to_string(rng->Uniform(900))).Encode(row + 8, 16);
  }
  return rows;
}

/// `n` result rows keyed by position first..first+n-1.
std::vector<uint8_t> ResultRows(uint32_t first, uint32_t n, Rng* rng) {
  std::vector<uint8_t> rows(static_cast<size_t>(n) * kResult.row_width());
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t* row = rows.data() + static_cast<size_t>(i) * kResult.row_width();
    EncodeFixed32(row, first + i);
    Value::Int32(static_cast<int32_t>(rng->Uniform(1000))).Encode(row + 4, 4);
    Value::Int64(static_cast<int64_t>(rng->Uniform(60000))).Encode(row + 8, 8);
    Value::Double(static_cast<double>(rng->Uniform(1000)) / 7).Encode(row + 16,
                                                                      8);
    Value::String("t" + std::to_string(rng->Uniform(900))).Encode(row + 24,
                                                                  16);
  }
  return rows;
}

std::vector<uint8_t> IdRows(const std::vector<uint32_t>& ids) {
  std::vector<uint8_t> rows(ids.size() * 4);
  for (size_t i = 0; i < ids.size(); ++i) EncodeFixed32(&rows[i * 4], ids[i]);
  return rows;
}

std::vector<uint32_t> Subset(Rng* rng, double density, size_t max) {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < kRows && ids.size() < max; ++id) {
    if (rng->NextDouble() < density) ids.push_back(id);
  }
  return ids;
}

Status Decode(const WireLayout& layout, const std::vector<uint8_t>& msg,
              uint64_t limit = kRows,
              WireFormat format = WireFormat::kCompact) {
  return DecodeRows(format, layout, msg.data(), msg.size(), limit).status();
}

#define EXPECT_MALFORMED(expr)                                   \
  do {                                                           \
    Status s_ = (expr);                                          \
    EXPECT_TRUE(s_.IsInvalidArgument()) << s_.ToString();        \
  } while (0)

TEST(WireCodecHostileTest, TruncatedBlock) {
  Rng rng(1);
  for (const auto& [layout, rows] :
       {std::make_pair(kIds, IdRows(Subset(&rng, 0.3, 3000))),
        std::make_pair(kFact, FactRows(Subset(&rng, 0.5, 900), &rng))}) {
    std::vector<uint8_t> msg = EncodeRows(WireFormat::kCompact, layout,
                                          rows.data(),
                                          rows.size() / layout.row_width(),
                                          kThroughput);
    ASSERT_TRUE(Decode(layout, msg).ok());
    for (size_t cut = 1; cut < msg.size(); ++cut) {
      std::vector<uint8_t> head(msg.begin(), msg.begin() + cut);
      EXPECT_MALFORMED(Decode(layout, head));
    }
  }
  // Raw format: a partial row.
  std::vector<uint8_t> raw = IdRows({1, 2, 3});
  raw.pop_back();
  EXPECT_MALFORMED(Decode(kIds, raw, kRows, WireFormat::kRaw));
}

TEST(WireCodecHostileTest, BitWidthAbove32) {
  // Delta-coded ids: 2 rows from id 0 with 33-bit gaps.
  EXPECT_MALFORMED(Decode(kIds, {2, kDelta, 2, 0, 33, 0, 0, 0, 0, 0}));
  // A zero-gap id section, then an INT frame of 40 bits.
  EXPECT_MALFORMED(Decode(WireLayout{{{DataType::kInt32, 4}}},
                          {1, kDelta, 1, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 0, 0}));
  // A CHAR length field of 255 bits.
  EXPECT_MALFORMED(Decode(kTag4, {1, kDelta, 1, 0, 0, 255, 0, 0, 0, 0}));
}

TEST(WireCodecHostileTest, BlockRowCountDisagreesWithHeader) {
  // Header 3 rows, one raw block claiming 5.
  std::vector<uint8_t> msg = {3, kRaw, 5};
  std::vector<uint8_t> ids = IdRows({1, 2, 3, 4, 5});
  msg.insert(msg.end(), ids.begin(), ids.end());
  EXPECT_MALFORMED(Decode(kIds, msg));
  // Header 5 rows, blocks carrying only 3.
  msg = {5, kRaw, 3};
  ids = IdRows({1, 2, 3});
  msg.insert(msg.end(), ids.begin(), ids.end());
  EXPECT_MALFORMED(Decode(kIds, msg));
  // A zero-row block, and a zero-row header with a body.
  EXPECT_MALFORMED(Decode(kIds, {1, kRaw, 0, 1, 0, 0, 0}));
  EXPECT_MALFORMED(Decode(kIds, {0, kRaw, 1, 1, 0, 0, 0}));
  // A header past the table's row count.
  EXPECT_MALFORMED(Decode(kIds, {0xE1, 0xD4, 0x03, kDelta, 1, 0, 0}));
  // A bitmap whose set bits disagree with its block's row count.
  EXPECT_MALFORMED(Decode(kIds, {2, kBitmap, 2, 0, 8, 0x01}));
  EXPECT_MALFORMED(Decode(kIds, {1, kBitmap, 1, 0, 8, 0x03}));
}

TEST(WireCodecHostileTest, NonAscendingIds) {
  // Within a raw block.
  std::vector<uint8_t> msg = {2, kRaw, 2};
  std::vector<uint8_t> ids = IdRows({5, 3});
  msg.insert(msg.end(), ids.begin(), ids.end());
  EXPECT_MALFORMED(Decode(kIds, msg));
  // A repeated id.
  msg = {2, kRaw, 2};
  ids = IdRows({4, 4});
  msg.insert(msg.end(), ids.begin(), ids.end());
  EXPECT_MALFORMED(Decode(kIds, msg));
  // Across blocks: a delta block starting at id 7, then one starting at 2.
  EXPECT_MALFORMED(Decode(kIds, {4, kDelta, 2, 7, 0, kDelta, 2, 2, 0}));
  // The raw format checks order too.
  EXPECT_MALFORMED(Decode(kIds, IdRows({9, 8}), kRows, WireFormat::kRaw));
}

TEST(WireCodecHostileTest, IdsAtOrBeyondRowCount) {
  std::vector<uint8_t> rows = IdRows({0, 10, 99});
  for (WireFormat format : {WireFormat::kCompact, WireFormat::kRaw}) {
    std::vector<uint8_t> msg =
        EncodeRows(format, kIds, rows.data(), 3, kThroughput);
    EXPECT_TRUE(Decode(kIds, msg, 100, format).ok());
    EXPECT_MALFORMED(Decode(kIds, msg, 99, format));
    EXPECT_MALFORMED(Decode(kIds, msg, 50, format));
  }
  // A bitmap reaching past the limit, and a delta gap that overflows it.
  EXPECT_MALFORMED(Decode(kIds, {1, kBitmap, 1, 90, 20, 0x01, 0, 0}, 100));
  EXPECT_MALFORMED(
      Decode(kIds, {2, kDelta, 2, 0, 32, 0xFF, 0xFF, 0xFF, 0xFF}, 100));
}

TEST(WireCodecHostileTest, CharLengthAboveWidth) {
  // One row: id 0, CHAR(4) with a 3-bit length of 5 and five bytes.
  EXPECT_MALFORMED(
      Decode(kTag4, {1, kDelta, 1, 0, 0, 3, 5, 'a', 'b', 'c', 'd', 'e'}));
  // Length 4 is the width: accepted.
  EXPECT_TRUE(
      Decode(kTag4, {1, kDelta, 1, 0, 0, 3, 4, 'a', 'b', 'c', 'd'}).ok());
}

TEST(WireCodecHostileTest, UnknownModeAndTrailingBytes) {
  EXPECT_MALFORMED(Decode(kIds, {1, 7, 1, 0}));
  std::vector<uint8_t> rows = IdRows({1, 2, 3});
  std::vector<uint8_t> msg =
      EncodeRows(WireFormat::kCompact, kIds, rows.data(), 3, kThroughput);
  msg.push_back(0);
  EXPECT_MALFORMED(Decode(kIds, msg));
  // An overlong varint header.
  EXPECT_MALFORMED(Decode(kIds, {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}));
}

TEST(WireCodecHostileTest, PositionKeysMustBeZeroToNMinusOne) {
  Rng rng(3);
  auto check = [&](uint32_t first, uint32_t n, bool any_first) {
    std::vector<uint8_t> rows = ResultRows(first, n, &rng);
    std::vector<uint8_t> msg = EncodeRows(WireFormat::kCompact, kResult,
                                          rows.data(), n, kThroughput);
    auto decoded = DecodeRows(WireFormat::kCompact, kResult, msg.data(),
                              msg.size(), kRows);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.ok() ? CheckPositionKeys(*decoded, kResult, any_first)
                        : decoded.status();
  };
  EXPECT_TRUE(check(0, 900, /*any_first=*/false).ok());
  EXPECT_TRUE(check(0, 0, /*any_first=*/false).ok());
  EXPECT_MALFORMED(check(5, 900, /*any_first=*/false));
  // One leg's range of a fan-out may start anywhere, but stays consecutive.
  EXPECT_TRUE(check(5, 900, /*any_first=*/true).ok());
  // Ascending keys with a gap are valid ids but not positions.
  std::vector<uint8_t> rows = ResultRows(0, 4, &rng);
  EncodeFixed32(rows.data() + 3 * kResult.row_width(), 7);
  std::vector<uint8_t> msg =
      EncodeRows(WireFormat::kCompact, kResult, rows.data(), 4, kThroughput);
  auto decoded = DecodeRows(WireFormat::kCompact, kResult, msg.data(),
                            msg.size(), kRows);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (bool any_first : {false, true}) {
    EXPECT_MALFORMED(CheckPositionKeys(*decoded, kResult, any_first));
  }
}

TEST(WireCodecHostileTest, SeededMutationsFailCleanly) {
  const uint64_t iters = [] {
    const char* env = std::getenv("GHOSTDB_WIRE_FUZZ_ITERS");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 20000;
  }();
  Rng rng(20070611);
  struct Sample {
    WireLayout layout;
    std::vector<uint8_t> message;
    bool positions = false;  ///< a `vis-result` keyed by position
  };
  std::vector<Sample> samples;
  for (double density : {0.95, 0.5, 0.05}) {
    std::vector<uint32_t> ids = Subset(&rng, density, 1500);
    std::vector<uint8_t> rows = IdRows(ids);
    samples.push_back({kIds, EncodeRows(WireFormat::kCompact, kIds,
                                        rows.data(), ids.size(),
                                        kThroughput)});
    rows = FactRows(ids, &rng);
    samples.push_back({kFact, EncodeRows(WireFormat::kCompact, kFact,
                                         rows.data(), ids.size(),
                                         kThroughput)});
  }
  for (uint32_t n : {1u, 60u, 1500u}) {
    std::vector<uint8_t> rows = ResultRows(0, n, &rng);
    samples.push_back({kResult,
                       EncodeRows(WireFormat::kCompact, kResult, rows.data(),
                                  n, kThroughput),
                       /*positions=*/true});
  }
  // Raw-fallback blocks (past the break-even throughput).
  std::vector<uint32_t> ids = Subset(&rng, 0.2, 400);
  std::vector<uint8_t> rows = FactRows(ids, &rng);
  samples.push_back({kFact, EncodeRows(WireFormat::kCompact, kFact,
                                       rows.data(), ids.size(),
                                       2 * kWireBreakEvenThroughput)});
  uint64_t rejected = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    const Sample& sample = samples[rng.Uniform(samples.size())];
    std::vector<uint8_t> msg = sample.message;
    uint64_t edits = 1 + rng.Uniform(3);
    for (uint64_t e = 0; e < edits && !msg.empty(); ++e) {
      size_t at = rng.Uniform(msg.size());
      switch (rng.Uniform(5)) {
        case 0:  // flip one bit
          msg[at] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
          break;
        case 1:  // overwrite a byte
          msg[at] = static_cast<uint8_t>(rng.Uniform(256));
          break;
        case 2:  // truncate
          msg.resize(at);
          break;
        case 3:  // insert a byte
          msg.insert(msg.begin() + static_cast<long>(at),
                     static_cast<uint8_t>(rng.Uniform(256)));
          break;
        default:  // delete a byte
          msg.erase(msg.begin() + static_cast<long>(at));
          break;
      }
    }
    auto decoded = DecodeRows(WireFormat::kCompact, sample.layout,
                              msg.data(), msg.size(), kRows);
    Status status = decoded.status();
    if (decoded.ok() && sample.positions) {
      status = CheckPositionKeys(*decoded, sample.layout,
                                 /*any_first=*/false);
    }
    if (!status.ok()) {
      ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
      ++rejected;
      continue;
    }
    // Accepted: a well-formed message of ascending in-range ids, and of
    // exactly the positions 0..n-1 when keyed by position.
    const uint32_t width = sample.layout.row_width();
    ASSERT_EQ(decoded->bytes.size(), decoded->rows * width);
    for (uint64_t r = 1; r < decoded->rows; ++r) {
      ASSERT_LT(DecodeFixed32(&decoded->bytes[(r - 1) * width]),
                DecodeFixed32(&decoded->bytes[r * width]));
    }
    if (sample.positions) {
      for (uint64_t r = 0; r < decoded->rows; ++r) {
        ASSERT_EQ(DecodeFixed32(&decoded->bytes[r * width]), r);
      }
    }
  }
  EXPECT_GT(rejected, iters / 2);
}

}  // namespace
}  // namespace ghostdb::device
