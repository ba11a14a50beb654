// Untrusted-side tests: visible store predicate evaluation, projection
// payloads, stats, the engine's channel accounting, and the wire codec's
// round trip and determinism.
#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <functional>

#include "catalog/schema.h"
#include "common/coding.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "device/channel.h"
#include "device/wire_codec.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "untrusted/engine.h"

namespace ghostdb::untrusted {
namespace {

using catalog::ColumnId;
using catalog::DataType;
using catalog::RowId;
using catalog::TableId;
using catalog::Value;

class UntrustedTest : public ::testing::Test {
 protected:
  UntrustedTest() : channel_(&clock_, 1.5e6) {
    catalog::TableDef def{
        "People",
        {{"age", DataType::kInt32, 4, false, ""},
         {"city", DataType::kString, 8, false, ""},
         {"secret", DataType::kInt32, 4, true, ""}},
        false};
    EXPECT_TRUE(schema_.AddTable(def).ok());
    EXPECT_TRUE(schema_.Finalize().ok());
    engine_ = std::make_unique<UntrustedEngine>(&schema_, &channel_, &pool_);
    LoadPeople(engine_.get());
  }

  /// Visible partition: age + city (secret is NOT here), row i = id i.
  /// Rows: (20+i%50, City<i%3>).
  static void LoadPeople(UntrustedEngine* engine) {
    const uint32_t width = 12;
    std::vector<uint8_t> packed(100 * width);
    for (RowId i = 0; i < 100; ++i) {
      Value::Int32(20 + static_cast<int32_t>(i % 50))
          .Encode(packed.data() + i * width, 4);
      Value::String("City" + std::to_string(i % 3))
          .Encode(packed.data() + i * width + 4, 8);
    }
    EXPECT_TRUE(engine->store().LoadTable(0, std::move(packed), 100).ok());
  }

  Result<sql::BoundQuery> BindQuery(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    return sql::Bind(std::get<sql::SelectStmt>(*stmt), schema_, sql);
  }

  sql::BoundPredicate Pred(ColumnId col, catalog::CompareOp op, Value v,
                           bool on_id = false) {
    sql::BoundPredicate p;
    p.table = 0;
    p.on_id = on_id;
    p.column = col;
    p.hidden = false;
    p.op = op;
    p.value = std::move(v);
    return p;
  }

  SimClock clock_;
  device::Channel channel_;
  catalog::Schema schema_;
  exec::ThreadPool pool_{1};
  std::unique_ptr<UntrustedEngine> engine_;
};

TEST_F(UntrustedTest, SelectIdsByIntPredicate) {
  auto ids = engine_->store().SelectIds(
      0, {Pred(0, catalog::CompareOp::kEq, Value::Int32(25))});
  ASSERT_TRUE(ids.ok());
  // age == 25 -> i % 50 == 5 -> ids 5 and 55.
  EXPECT_EQ(*ids, (std::vector<RowId>{5, 55}));
}

TEST_F(UntrustedTest, SelectIdsConjunction) {
  auto ids = engine_->store().SelectIds(
      0, {Pred(0, catalog::CompareOp::kLt, Value::Int32(23)),
          Pred(1, catalog::CompareOp::kEq, Value::String("City0"))});
  ASSERT_TRUE(ids.ok());
  for (RowId id : *ids) {
    EXPECT_LT(id % 50, 3u);
    EXPECT_EQ(id % 3, 0u);
  }
  EXPECT_FALSE(ids->empty());
}

TEST_F(UntrustedTest, SelectIdsOnIdPredicate) {
  auto ids = engine_->store().SelectIds(
      0, {Pred(0, catalog::CompareOp::kLt, Value::Int32(4), true)});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<RowId>{0, 1, 2, 3}));
}

TEST_F(UntrustedTest, SelectIdsAreSorted) {
  auto ids = engine_->store().SelectIds(
      0, {Pred(1, catalog::CompareOp::kNe, Value::String("City1"))});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
}

TEST_F(UntrustedTest, ProjectionPayloadLayout) {
  auto ids = engine_->store().SelectIds(
      0, {Pred(0, catalog::CompareOp::kEq, Value::Int32(25))});
  ASSERT_TRUE(ids.ok());
  auto payload = engine_->store().Project(0, *ids, {0, 1});
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rows, 2u);
  EXPECT_EQ(payload->row_width, 4u + 4u + 8u);
  // First row: id 5, age 25, City2.
  EXPECT_EQ(DecodeFixed32(payload->bytes.data()), 5u);
  EXPECT_EQ(Value::Decode(payload->bytes.data() + 4, DataType::kInt32, 4),
            Value::Int32(25));
  EXPECT_EQ(Value::Decode(payload->bytes.data() + 8, DataType::kString, 8),
            Value::String("City2"));
  // An id past the partition is refused, never gathered.
  EXPECT_TRUE(engine_->store().Project(0, {100}, {0}).status().IsOutOfRange());
}

TEST_F(UntrustedTest, HiddenColumnAccessRefused) {
  auto ids = engine_->store().SelectIds(
      0, {[&] {
        auto p = Pred(2, catalog::CompareOp::kEq, Value::Int32(1));
        p.hidden = true;
        return p;
      }()});
  EXPECT_TRUE(ids.status().IsSecurityViolation());
  EXPECT_TRUE(
      engine_->store().Project(0, {}, {2}).status().IsSecurityViolation());
  EXPECT_TRUE(
      engine_->store().GetValue(0, 0, 2).status().IsSecurityViolation());
  EXPECT_TRUE(
      engine_->store().BuildStats(0, 2).status().IsSecurityViolation());
}

TEST_F(UntrustedTest, StatsEstimateFromVisibleData) {
  auto stats = engine_->store().BuildStats(0, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count(), 100u);
  // age uniform over [20, 70): P(age < 45) = 0.5.
  EXPECT_NEAR(stats->EstimateSelectivity(catalog::CompareOp::kLt,
                                         Value::Int32(45)),
              0.5, 0.1);
}

/// The wire message of an id list.
std::vector<uint8_t> IdMessage(device::WireFormat format,
                               const std::vector<RowId>& ids,
                               double throughput = 1.5e6) {
  std::vector<uint8_t> rows(ids.size() * 4);
  for (size_t i = 0; i < ids.size(); ++i) {
    EncodeFixed32(rows.data() + i * 4, ids[i]);
  }
  return device::EncodeRows(format, device::WireLayout{}, rows.data(),
                            ids.size(), throughput);
}

TEST_F(UntrustedTest, EngineChargesChannelForServedData) {
  // Bind a tiny query against the schema to drive the engine API. The
  // hidden predicate keeps the statement on the key, whose requests the
  // prepared set serves (a visible-only statement is answered by the PC).
  auto bound = BindQuery(
      "SELECT People.id FROM People WHERE age < 23 AND People.secret >= 0");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto ids = engine_->store().SelectIds(0, bound->VisiblePredicatesOn(0));
  ASSERT_TRUE(ids.ok());
  EXPECT_FALSE(ids->empty());
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok()) << prefetch.status().ToString();
  EXPECT_TRUE(channel_.transcript().empty());  // preparing transfers nothing
  SimNanos before = clock_.now();
  auto message = engine_->ServeVisibleIds(0, &*prefetch);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_GT(clock_.now(), before);  // transfer time charged
  const auto& last = channel_.transcript().back();
  EXPECT_EQ(last.label, "vis-ids:People");
  // Default format: the codec's size of the id list, which is what was
  // shipped.
  EXPECT_EQ(last.bytes,
            IdMessage(device::WireFormat::kCompact, *ids).size());
  EXPECT_EQ(last.bytes, (*message)->size());
  EXPECT_EQ(static_cast<int>(last.direction),
            static_cast<int>(device::Direction::kToSecure));

  // The paper's raw format: 4 bytes per id.
  SimClock raw_clock;
  device::Channel raw_channel(&raw_clock, 1.5e6, device::WireFormat::kRaw);
  UntrustedEngine raw_engine(&schema_, &raw_channel, &pool_);
  LoadPeople(&raw_engine);
  auto raw_prefetch = raw_engine.PrefetchVisible(*bound);
  ASSERT_TRUE(raw_prefetch.ok());
  ASSERT_TRUE(raw_engine.ServeVisibleIds(0, &*raw_prefetch).ok());
  EXPECT_EQ(raw_channel.transcript().back().bytes, ids->size() * 4);
}

TEST_F(UntrustedTest, ServeVisibleCountMatchesIds) {
  auto bound = BindQuery(
      "SELECT People.id FROM People WHERE age >= 60 AND People.secret >= 0");
  ASSERT_TRUE(bound.ok());
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok());
  auto count = engine_->ServeVisibleCount(0, &*prefetch);
  auto message = engine_->ServeVisibleIds(0, &*prefetch);
  ASSERT_TRUE(count.ok() && message.ok());
  auto ids = device::DecodeRows(channel_.wire_format(), device::WireLayout{},
                                (*message)->data(), (*message)->size(), 100);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*count, ids->rows);
  EXPECT_EQ(*count, 20u);  // ages 60..69, twice each
  EXPECT_EQ(channel_.transcript().front().label, "vis-count:People");
  EXPECT_EQ(channel_.transcript().front().bytes, 8u);
}

TEST_F(UntrustedTest, ExplainPrefetchHoldsOnlyTheIdLists) {
  // An EXPLAIN ships only vis-counts, which read the id lists' sizes: its
  // prefetch evaluates the lists and encodes and projects nothing.
  auto bound = BindQuery(
      "SELECT People.age, People.city FROM People WHERE People.age >= 60 "
      "AND People.secret >= 0");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  bound->explain = true;
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok()) << prefetch.status().ToString();
  ASSERT_EQ(prefetch->ids.size(), 1u);
  EXPECT_EQ(prefetch->ids.at(0).size(), 20u);  // ages 60..69, twice each
  EXPECT_TRUE(prefetch->id_messages.empty());
  EXPECT_TRUE(prefetch->projections.empty());
  EXPECT_TRUE(prefetch->projection_messages.empty());
  auto count = engine_->ServeVisibleCount(0, &*prefetch);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 20u);
  EXPECT_TRUE(engine_->ServeVisibleIds(0, &*prefetch).status().IsInternal());
}

TEST_F(UntrustedTest, ServedMessagesArePureFunctionsOfVisibleData) {
  auto bound = BindQuery(
      "SELECT People.age, People.city FROM People WHERE People.age < 40 "
      "AND People.secret >= 0");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const std::vector<ColumnId> cols = {0, 1};
  // A second engine over the same visible rows, whose channel has already
  // carried other traffic: each engine prepares on its own.
  SimClock clock2;
  device::Channel channel2(&clock2, 1.5e6);
  UntrustedEngine engine2(&schema_, &channel2, &pool_);
  LoadPeople(&engine2);
  engine2.ReceiveQuery("SELECT People.id FROM People");
  auto prefetch = engine_->PrefetchVisible(*bound);
  auto prefetch2 = engine2.PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok() && prefetch2.ok());
  EXPECT_EQ(prefetch->id_messages, prefetch2->id_messages);
  EXPECT_EQ(prefetch->projection_messages, prefetch2->projection_messages);
  auto ids = engine_->ServeVisibleIds(0, &*prefetch);
  auto vals = engine_->ServeProjection(0, cols, &*prefetch);
  auto ids2 = engine2.ServeVisibleIds(0, &*prefetch2);
  auto vals2 = engine2.ServeProjection(0, cols, &*prefetch2);
  ASSERT_TRUE(ids.ok() && vals.ok() && ids2.ok() && vals2.ok());
  EXPECT_EQ(**ids, **ids2);
  EXPECT_EQ(**vals, **vals2);
  const auto& sent = channel_.transcript();
  const auto& sent2 = channel2.transcript();
  ASSERT_EQ(sent.size(), 2u);
  ASSERT_EQ(sent2.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sent[i].label, sent2[i + 1].label);
    EXPECT_EQ(sent[i].bytes, sent2[i + 1].bytes);
    EXPECT_EQ(sent[i].content_digest, sent2[i + 1].content_digest);
  }
}

TEST_F(UntrustedTest, UnpreparedRequestsAreInternalAndShipNothing) {
  // No visible predicate: no id list is prepared, and the projection is
  // prepared for the age column alone.
  auto bound =
      BindQuery("SELECT People.age FROM People WHERE People.secret >= 0");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok());
  EXPECT_TRUE(prefetch->id_messages.empty());
  ASSERT_EQ(prefetch->projection_messages.size(), 1u);
  EXPECT_TRUE(engine_->ServeVisibleIds(0, &*prefetch).status().IsInternal());
  EXPECT_TRUE(
      engine_->ServeVisibleCount(0, &*prefetch).status().IsInternal());
  EXPECT_TRUE(engine_->ServeProjection(0, {0, 1}, &*prefetch)
                  .status()
                  .IsInternal());
  // Nothing prepared at all.
  EXPECT_TRUE(engine_->ServeVisibleIds(0, nullptr).status().IsInternal());
  EXPECT_TRUE(engine_->ServeVisibleCount(0, nullptr).status().IsInternal());
  EXPECT_TRUE(
      engine_->ServeProjection(0, {0}, nullptr).status().IsInternal());
  EXPECT_TRUE(channel_.transcript().empty());
  // The prepared column set is served.
  ASSERT_TRUE(engine_->ServeProjection(0, {0}, &*prefetch).ok());
  EXPECT_EQ(channel_.transcript().size(), 1u);
}

TEST_F(UntrustedTest, PreparedMessagesServedTwiceShipIdenticalBytes) {
  auto bound = BindQuery(
      "SELECT People.age, People.city FROM People WHERE People.age < 40 "
      "AND People.secret >= 0");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok());
  const std::vector<ColumnId> cols = {0, 1};
  // A replay re-requests both messages: each ships the prepared bytes as
  // is, served from the prepared set itself rather than a copy.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto ids = engine_->ServeVisibleIds(0, &*prefetch);
    auto vals = engine_->ServeProjection(0, cols, &*prefetch);
    ASSERT_TRUE(ids.ok() && vals.ok());
    EXPECT_EQ(*ids, &prefetch->id_messages.at(0));
    EXPECT_EQ(*vals, &prefetch->projection_messages.at(0));
  }
  const auto& sent = channel_.transcript();
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(sent[0].label, "vis-ids:People");
  EXPECT_EQ(sent[1].label, "vis-vals:People");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sent[i].label, sent[i + 2].label);
    EXPECT_EQ(sent[i].bytes, sent[i + 2].bytes);
    EXPECT_EQ(sent[i].content_digest, sent[i + 2].content_digest);
  }
}

TEST_F(UntrustedTest, VisibleOnlyStatementsAreServedOneResultMessage) {
  auto bound = BindQuery(
      "SELECT People.city, People.age FROM People WHERE People.age < 30");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // The key requests no Vis list or payload, so nothing is prefetched.
  auto prefetch = engine_->PrefetchVisible(*bound);
  ASSERT_TRUE(prefetch.ok());
  EXPECT_TRUE(prefetch->ids.empty());
  EXPECT_TRUE(prefetch->projections.empty());
  // The PC's projection: [id | the projected visible columns].
  auto rows = engine_->ProjectStatement(*bound);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows, 20u);  // ages 20..29, twice each
  EXPECT_EQ(rows->row_width, 4u + 4u + 8u);
  // No result prepared: the serve refuses rather than inventing one.
  EXPECT_TRUE(engine_->ServeVisibleResult(0, &*prefetch).status()
                  .IsInternal());
  EXPECT_TRUE(engine_->ServeVisibleResult(0, nullptr).status().IsInternal());
  // A prepared message crosses unchanged, and stays for a replay.
  prefetch->result_message = std::vector<uint8_t>{1, 2, 3};
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto sent = engine_->ServeVisibleResult(0, &*prefetch);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    EXPECT_EQ(*sent, &*prefetch->result_message);
    EXPECT_EQ(channel_.transcript().back().label, "vis-result:People");
    EXPECT_EQ(channel_.transcript().back().bytes, 3u);
  }
}

TEST_F(UntrustedTest, LoadRejectsSizeMismatch) {
  std::vector<uint8_t> bad(13);  // not a multiple of the row width
  EXPECT_FALSE(engine_->store().LoadTable(0, std::move(bad), 2).ok());
}

TEST_F(UntrustedTest, GetValueBoundsChecked) {
  EXPECT_TRUE(engine_->store().GetValue(0, 100, 0).status().IsOutOfRange());
  auto v = engine_->store().GetValue(0, 7, 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::String("City1"));
}

// ---- wire codec round trip --------------------------------------------------

/// Rows of [id | columns] with the given ids; `fill(row, col, cell)` writes
/// each column cell (null for an id list).
std::vector<uint8_t> MakeRows(
    const device::WireLayout& layout, const std::vector<RowId>& ids,
    const std::function<void(size_t, size_t, uint8_t*)>& fill) {
  const uint32_t width = layout.row_width();
  std::vector<uint8_t> rows(ids.size() * width);
  for (size_t r = 0; r < ids.size(); ++r) {
    uint8_t* row = rows.data() + r * width;
    EncodeFixed32(row, ids[r]);
    uint32_t off = 4;
    for (size_t c = 0; c < layout.columns.size(); ++c) {
      fill(r, c, row + off);
      off += layout.columns[c].width;
    }
  }
  return rows;
}

std::vector<RowId> Dense(RowId first, size_t n) {
  std::vector<RowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = first + static_cast<RowId>(i);
  return ids;
}

std::vector<RowId> Sampled(size_t n, uint64_t limit, double density,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<RowId> ids;
  for (uint64_t id = 0; id < limit && ids.size() < n; ++id) {
    if (rng.NextDouble() < density) ids.push_back(static_cast<RowId>(id));
  }
  return ids;
}

constexpr uint64_t kIdLimit = 1u << 31;

/// Encode -> decode is byte-identical in both formats, at a slow, the
/// default and a past-break-even throughput; compact encoding is
/// deterministic and never costs more than raw bytes plus framing.
void ExpectRoundTrip(const device::WireLayout& layout,
                     const std::vector<uint8_t>& rows,
                     uint64_t id_limit = kIdLimit) {
  const uint32_t width = layout.row_width();
  const uint64_t count = rows.size() / width;
  for (device::WireFormat format :
       {device::WireFormat::kCompact, device::WireFormat::kRaw}) {
    for (double throughput :
         {0.3e6, 1.5e6, 2 * device::kWireBreakEvenThroughput}) {
      std::vector<uint8_t> wire = device::EncodeRows(
          format, layout, rows.data(), count, throughput);
      EXPECT_EQ(wire, device::EncodeRows(format, layout, rows.data(), count,
                                         throughput));
      auto decoded = device::DecodeRows(format, layout, wire.data(),
                                        wire.size(), id_limit);
      ASSERT_TRUE(decoded.ok())
          << decoded.status().ToString() << " rows=" << count
          << " throughput=" << throughput;
      EXPECT_EQ(decoded->rows, count);
      ASSERT_EQ(decoded->bytes, rows) << "rows=" << count;
      if (format == device::WireFormat::kRaw ||
          throughput >= device::kWireBreakEvenThroughput) {
        EXPECT_EQ(decoded->compact_bytes, 0u);
      }
      uint64_t framing = 8 + 3 * (rows.size() / 2000 + 1);
      EXPECT_LE(wire.size(), rows.size() + framing);
    }
  }
}

const device::WireLayout kIdsOnly{};
const device::WireLayout kFactRow{
    {{DataType::kInt32, 4}, {DataType::kString, 16}}};

TEST(WireCodecTest, RoundTripIdLists) {
  ExpectRoundTrip(kIdsOnly, {});                                  // empty
  ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, {7}, nullptr));    // one
  ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, {0}, nullptr));
  ExpectRoundTrip(kIdsOnly,
                  MakeRows(kIdsOnly, {static_cast<RowId>(kIdLimit - 1)},
                           nullptr));
  ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, Dense(0, 60000), nullptr));
  ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, Dense(12345, 3000), nullptr));
  // Sparse: gaps of a thousand; huge gaps near the id limit.
  std::vector<RowId> sparse;
  for (RowId id = 5; id < 4000000; id += 1000) sparse.push_back(id);
  ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, sparse, nullptr));
  ExpectRoundTrip(kIdsOnly,
                  MakeRows(kIdsOnly, {1, 1u << 20, 1u << 30,
                                      static_cast<RowId>(kIdLimit - 1)},
                           nullptr));
  // Bitmap-dense and delta-sparse random subsets.
  for (double density : {0.9, 0.5, 0.12, 0.01}) {
    ExpectRoundTrip(kIdsOnly,
                    MakeRows(kIdsOnly, Sampled(20000, 1u << 24, density, 3),
                             nullptr));
  }
}

TEST(WireCodecTest, RoundTripProjectionPayloads) {
  auto fact = [](std::vector<int32_t> values, std::vector<std::string> tags,
                 std::vector<RowId> ids) {
    return MakeRows(kFactRow, ids, [&](size_t r, size_t c, uint8_t* cell) {
      if (c == 0) {
        Value::Int32(values[r % values.size()]).Encode(cell, 4);
      } else {
        Value::String(tags[r % tags.size()]).Encode(cell, 16);
      }
    });
  };
  ExpectRoundTrip(kFactRow, fact({1}, {"x"}, {}));
  ExpectRoundTrip(kFactRow, fact({42}, {"t17"}, {9}));
  // All-equal values: zero-bit columns.
  ExpectRoundTrip(kFactRow, fact({7}, {"same"}, Dense(0, 5000)));
  // INT32 extremes and negatives (a 32-bit frame).
  ExpectRoundTrip(kFactRow, fact({INT32_MIN, INT32_MAX, -1, 0},
                                 {"a"}, Dense(3, 1000)));
  ExpectRoundTrip(kFactRow, fact({-5, -1000000, -77}, {"neg"},
                                 Sampled(2000, 100000, 0.3, 5)));
  // Full-width CHAR, interior spaces, empty strings.
  ExpectRoundTrip(kFactRow, fact({1, 2}, {"ABCDEFGHIJKLMNOP"}, Dense(0, 700)));
  ExpectRoundTrip(kFactRow,
                  fact({3}, {"a b  c", " lead", "", "x  y", "16 chars wide!!"},
                       Sampled(3000, 60000, 0.5, 9)));
  // Every column type: INT, CHAR, BIGINT and DOUBLE (sent verbatim).
  const device::WireLayout wide{{{DataType::kInt32, 4},
                                 {DataType::kString, 5},
                                 {DataType::kInt64, 8},
                                 {DataType::kDouble, 8}}};
  Rng rng(11);
  ExpectRoundTrip(wide, MakeRows(wide, Sampled(1500, 5000, 0.4, 13),
                                 [&](size_t, size_t c, uint8_t* cell) {
                                   uint64_t v = rng.Next();
                                   if (c == 0 || c >= 2) {
                                     std::memcpy(cell, &v, c == 0 ? 4 : 8);
                                   } else {
                                     Value::String(std::string(v % 6, 'q'))
                                         .Encode(cell, 5);
                                   }
                                 }));
}

TEST(WireCodecTest, RoundTripMixesRawAndCompactBlocks) {
  // DOUBLE cells ship verbatim, so rows whose ids are 100M apart (27-bit
  // gaps) barely compress and stay raw at 1.5 MB/s; a dense run after
  // them goes compact. One message carries both block kinds.
  const device::WireLayout doubles{{{DataType::kDouble, 8}}};
  std::vector<RowId> ids;
  for (RowId id = 7; ids.size() < 20; id += 100000000) ids.push_back(id);
  for (RowId id = ids.back() + 1; ids.size() < 1800; ++id) ids.push_back(id);
  std::vector<uint8_t> rows =
      MakeRows(doubles, ids, [&](size_t r, size_t, uint8_t* cell) {
        EncodeDouble(cell, static_cast<double>(r) * 0.5);
      });
  ExpectRoundTrip(doubles, rows);
  std::vector<uint8_t> wire = device::EncodeRows(
      device::WireFormat::kCompact, doubles, rows.data(), ids.size(), 1.5e6);
  auto decoded = device::DecodeRows(device::WireFormat::kCompact, doubles,
                                    wire.data(), wire.size(), kIdLimit);
  ASSERT_TRUE(decoded.ok());
  EXPECT_GT(decoded->compact_bytes, 0u);
  EXPECT_LT(decoded->compact_bytes, rows.size());
}

TEST(WireCodecTest, RoundTripEveryBlockBoundarySize) {
  // Every row count up to past two block capacities (a block holds what
  // one raw block fits: 511 ids, 85 Fact rows), for dense, random and
  // wide-gap ids and noisy INT values.
  Rng rng(17);
  std::vector<RowId> ids = Sampled(1100, 1u << 20, 0.5, 19);
  std::vector<RowId> wide_gaps = Sampled(1100, 1u << 30, 0.001, 23);
  std::vector<uint32_t> noise(1100);
  for (auto& v : noise) v = static_cast<uint32_t>(rng.Next());
  for (size_t n = 0; n <= 1100; ++n) {
    std::vector<RowId> head(ids.begin(), ids.begin() + n);
    ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, Dense(0, n), nullptr));
    ExpectRoundTrip(kIdsOnly, MakeRows(kIdsOnly, head, nullptr));
    ExpectRoundTrip(kIdsOnly,
                    MakeRows(kIdsOnly,
                             std::vector<RowId>(wide_gaps.begin(),
                                                wide_gaps.begin() + n),
                             nullptr));
    if (n % 3 != 0 && n > 400) continue;  // the projection sweep thins out
    ExpectRoundTrip(kFactRow,
                    MakeRows(kFactRow, head, [&](size_t r, size_t c,
                                                 uint8_t* cell) {
                      if (c == 0) {
                        EncodeFixed32(cell, noise[r]);
                      } else {
                        Value::String("t" + std::to_string(noise[r] % 900))
                            .Encode(cell, 16);
                      }
                    }));
  }
}

}  // namespace
}  // namespace ghostdb::untrusted
