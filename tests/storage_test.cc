// Storage-layer tests: page allocator, runs, fixed tables, and the
// climbing-index B+-tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "catalog/value.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "device/ram_manager.h"
#include "flash/flash.h"
#include "storage/btree.h"
#include "storage/fixed_table.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::storage {
namespace {

using catalog::RowId;
using catalog::Value;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    flash::FlashConfig cfg;
    cfg.logical_pages = 16 * 1024;  // 32 MiB
    device_ = std::make_unique<flash::FlashDevice>(cfg, &clock_);
    allocator_ = std::make_unique<PageAllocator>(device_.get());
    ram_ = std::make_unique<device::RamManager>(64 * 1024, 2048);
    scratch_.resize(2048);
  }

  SimClock clock_;
  std::unique_ptr<flash::FlashDevice> device_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<device::RamManager> ram_;
  std::vector<uint8_t> scratch_;
};

TEST_F(StorageTest, AllocatorAllocatesDistinctRanges) {
  auto a = allocator_->Alloc(10, "a");
  auto b = allocator_->Alloc(10, "b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(allocator_->used_pages(), 20u);
  EXPECT_EQ(allocator_->usage_by_tag().at("a"), 10);
}

TEST_F(StorageTest, AllocatorReusesFreedRanges) {
  auto a = allocator_->Alloc(10, "t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(allocator_->Free(*a, 10, "t").ok());
  EXPECT_EQ(allocator_->used_pages(), 0u);
  auto b = allocator_->Alloc(5, "t");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);  // first fit reuses the hole
  EXPECT_EQ(allocator_->high_water_pages(), 10u);
}

TEST_F(StorageTest, AllocatorExhaustion) {
  auto a = allocator_->Alloc(16 * 1024, "big");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(allocator_->Alloc(1, "more").status().IsResourceExhausted());
}

TEST_F(StorageTest, AllocatorCoalescesFreedNeighbours) {
  // Fill the device with one-page extents, free them all (out of order),
  // then ask for the whole device at once: the freed pieces must merge
  // back into one extent, or the space is lost to fragmentation even
  // though nothing is live.
  const uint32_t pages = allocator_->capacity_pages();
  std::vector<uint32_t> firsts;
  for (uint32_t i = 0; i < pages; ++i) {
    auto p = allocator_->Alloc(1, "t");
    ASSERT_TRUE(p.ok());
    firsts.push_back(*p);
  }
  Rng rng(3);
  for (size_t i = firsts.size(); i > 1; --i) {
    std::swap(firsts[i - 1], firsts[rng.Uniform(i)]);
  }
  for (uint32_t first : firsts) {
    ASSERT_TRUE(allocator_->Free(first, 1, "t").ok());
  }
  EXPECT_EQ(allocator_->used_pages(), 0u);
  auto all = allocator_->Alloc(pages, "t");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(*all, 0u);
}

TEST_F(StorageTest, AllocatorReturnsTailToBumpPointer) {
  // A freed extent that ends at the bump pointer (here, after its interior
  // neighbour was freed first) folds back into fresh space, so a request
  // larger than any hole still fits.
  auto a = allocator_->Alloc(8, "t");
  auto b = allocator_->Alloc(8, "t");
  auto c = allocator_->Alloc(8, "t");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(allocator_->Free(*b, 8, "t").ok());
  ASSERT_TRUE(allocator_->Free(*c, 8, "t").ok());
  auto big = allocator_->Alloc(allocator_->capacity_pages() - 8, "t");
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(*big, 8u);
}

TEST_F(StorageTest, AllocatorFreeTrimsFlash) {
  auto a = allocator_->Alloc(4, "t");
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> page(2048, 7);
  ASSERT_TRUE(device_->WritePage(*a, page.data()).ok());
  EXPECT_EQ(device_->live_pages(), 1u);
  ASSERT_TRUE(allocator_->Free(*a, 4, "t").ok());
  EXPECT_EQ(device_->live_pages(), 0u);
}

TEST_F(StorageTest, RunRoundTripSmall) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "run");
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(w.Append(data.data(), data.size()).ok());
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->bytes, 5u);
  EXPECT_EQ(ref->page_count(), 1u);

  std::vector<uint8_t> buf(2048);
  RunReader r(device_.get(), *ref, buf.data());
  std::vector<uint8_t> back(5);
  auto n = r.Read(back.data(), 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(back, data);
  EXPECT_TRUE(r.exhausted());
}

TEST_F(StorageTest, RunRoundTripMultiPage) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "run");
  Rng rng(5);
  std::vector<uint8_t> data(3 * 2048 + 777);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(w.Append(data.data(), data.size()).ok());
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->page_count(), 4u);

  std::vector<uint8_t> buf(2048);
  RunReader r(device_.get(), *ref, buf.data());
  std::vector<uint8_t> back(data.size());
  // Read in odd-sized chunks crossing page boundaries.
  size_t off = 0;
  while (off < back.size()) {
    auto n = r.Read(back.data() + off, 1000);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    off += *n;
  }
  EXPECT_EQ(back, data);
}

TEST_F(StorageTest, RunSkipAvoidsReadingSkippedPages) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "run");
  std::vector<uint8_t> data(10 * 2048);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<uint8_t>(i / 2048);
  ASSERT_TRUE(w.Append(data.data(), data.size()).ok());
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());

  std::vector<uint8_t> buf(2048);
  RunReader r(device_.get(), *ref, buf.data());
  uint64_t reads_before = device_->stats().pages_read;
  ASSERT_TRUE(r.Skip(8 * 2048).ok());
  uint8_t byte;
  auto n = r.Read(&byte, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(byte, 8);
  EXPECT_EQ(device_->stats().pages_read - reads_before, 1u);
}

TEST_F(StorageTest, IdRunReaderStreams) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "ids");
  std::vector<RowId> ids;
  for (RowId i = 0; i < 2000; ++i) ids.push_back(i * 3);
  for (RowId id : ids) ASSERT_TRUE(w.AppendU32(id).ok());
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());

  std::vector<uint8_t> buf(2048);
  IdRunReader r(device_.get(), *ref, buf.data());
  ASSERT_TRUE(r.Prime().ok());
  std::vector<RowId> back;
  while (r.valid()) {
    back.push_back(r.head());
    ASSERT_TRUE(r.Advance().ok());
  }
  EXPECT_EQ(back, ids);
}

TEST_F(StorageTest, EmptyRun) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "empty");
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(ref->empty());
  EXPECT_EQ(ref->page_count(), 0u);
  std::vector<uint8_t> buf(2048);
  IdRunReader r(device_.get(), *ref, buf.data());
  ASSERT_TRUE(r.Prime().ok());
  EXPECT_FALSE(r.valid());
}

TEST_F(StorageTest, FreeRunReturnsPages) {
  RunWriter w(device_.get(), allocator_.get(), scratch_.data(), "tmp");
  std::vector<uint8_t> data(5000, 9);
  ASSERT_TRUE(w.Append(data.data(), data.size()).ok());
  auto ref = w.Finish();
  ASSERT_TRUE(ref.ok());
  uint32_t used = allocator_->used_pages();
  ASSERT_TRUE(FreeRun(allocator_.get(), *ref, "tmp").ok());
  EXPECT_LT(allocator_->used_pages(), used);
  EXPECT_EQ(allocator_->usage_by_tag().at("tmp"), 0);
}

TEST_F(StorageTest, FixedTableRoundTrip) {
  const uint32_t width = 12;
  FixedTableBuilder b(device_.get(), allocator_.get(), scratch_.data(),
                      width, "skt");
  std::vector<std::vector<uint8_t>> rows;
  for (uint32_t i = 0; i < 1000; ++i) {
    std::vector<uint8_t> row(width);
    for (uint32_t j = 0; j < width; ++j)
      row[j] = static_cast<uint8_t>(i + j);
    rows.push_back(row);
    ASSERT_TRUE(b.AppendRow(row.data()).ok());
  }
  auto ref = b.Finish();
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->row_count, 1000u);
  EXPECT_EQ(ref->rows_per_page, 2048u / width);

  std::vector<uint8_t> buf(2048);
  FixedTableReader r(device_.get(), *ref, buf.data());
  std::vector<uint8_t> row(width);
  // Random access, then verify.
  for (RowId id : {999u, 0u, 512u, 170u, 171u}) {
    ASSERT_TRUE(r.ReadRow(id, row.data()).ok());
    EXPECT_EQ(row, rows[id]) << "row " << id;
  }
  EXPECT_TRUE(r.ReadRow(1000, row.data()).IsOutOfRange());
}

TEST_F(StorageTest, FixedTableAscendingAccessReadsEachPageOnce) {
  const uint32_t width = 16;  // 128 rows per page
  FixedTableBuilder b(device_.get(), allocator_.get(), scratch_.data(),
                      width, "skt");
  std::vector<uint8_t> row(width, 1);
  for (uint32_t i = 0; i < 128 * 50; ++i) {
    ASSERT_TRUE(b.AppendRow(row.data()).ok());
  }
  auto ref = b.Finish();
  ASSERT_TRUE(ref.ok());

  std::vector<uint8_t> buf(2048);
  FixedTableReader r(device_.get(), *ref, buf.data());
  // Touch rows spread over every 5th page, ascending.
  for (uint32_t p = 0; p < 50; p += 5) {
    ASSERT_TRUE(r.ReadRow(p * 128 + 7, row.data()).ok());
    ASSERT_TRUE(r.ReadRow(p * 128 + 99, row.data()).ok());  // same page
  }
  EXPECT_EQ(r.pages_touched(), 10u);
}

// --- Page-batched span reads (FixedTableReader::ReadRowsOnPage) ---

class SpanReadTest : public StorageTest {
 protected:
  // A table of `rows` rows of `width` bytes; byte j of row i is (i * 7 + j).
  FixedTableRef Build(uint32_t width, uint32_t rows) {
    FixedTableBuilder b(device_.get(), allocator_.get(), scratch_.data(),
                        width, "skt");
    std::vector<uint8_t> row(width);
    for (uint32_t i = 0; i < rows; ++i) {
      for (uint32_t j = 0; j < width; ++j) {
        row[j] = static_cast<uint8_t>(i * 7 + j);
      }
      EXPECT_TRUE(b.AppendRow(row.data()).ok());
    }
    auto ref = b.Finish();
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  // A slot bitmask of a page of `rows_per_page` rows with `set` slots on.
  static std::vector<uint64_t> Slots(uint32_t rows_per_page,
                                     const std::vector<uint32_t>& set) {
    std::vector<uint64_t> slots((rows_per_page + 63) / 64, 0);
    for (uint32_t s : set) slots[s / 64] |= uint64_t{1} << (s % 64);
    return slots;
  }

  const flash::FlashConfig& cfg() const { return device_->config(); }
};

TEST_F(SpanReadTest, OneRowChargesOnlyItsBytes) {
  // One row of a page, 8 of its 16 bytes: one register load plus 8 bytes,
  // not the 2048 a full-page read transfers.
  FixedTableRef ref = Build(16, 128 * 3);
  std::vector<uint8_t> buf(2048, 0);
  FixedTableReader r(device_.get(), ref, buf.data());
  SimNanos t0 = clock_.now();
  uint64_t pages0 = device_->stats().pages_read;
  ASSERT_TRUE(r.ReadRowsOnPage(1, Slots(128, {37}), 4, 12).ok());
  EXPECT_EQ(clock_.now() - t0,
            cfg().read_page_latency + 8 * cfg().byte_transfer_latency);
  EXPECT_EQ(device_->stats().pages_read - pages0, 1u);
  const uint32_t row = 128 + 37;
  for (uint32_t j = 4; j < 12; ++j) {
    EXPECT_EQ(buf[37 * 16 + j], static_cast<uint8_t>(row * 7 + j));
  }
  EXPECT_EQ(r.pages_touched(), 1u);
}

TEST_F(SpanReadTest, FullPageCostsNoMoreThanReadFullPage) {
  FixedTableRef ref = Build(16, 128 * 2);
  std::vector<uint32_t> all(128);
  for (uint32_t s = 0; s < 128; ++s) all[s] = s;
  std::vector<uint8_t> buf(2048, 0);
  FixedTableReader r(device_.get(), ref, buf.data());
  SimNanos t0 = clock_.now();
  uint64_t pages0 = device_->stats().pages_read;
  ASSERT_TRUE(r.ReadRowsOnPage(0, Slots(128, all), 0, 16).ok());
  EXPECT_LE(clock_.now() - t0, cfg().read_page_latency +
                                   cfg().page_size *
                                       cfg().byte_transfer_latency);
  EXPECT_EQ(device_->stats().pages_read - pages0, 1u);
  for (uint32_t i = 0; i < 128 * 16; ++i) {
    EXPECT_EQ(buf[i], static_cast<uint8_t>((i / 16) * 7 + i % 16)) << i;
  }
}

TEST_F(SpanReadTest, GapBridgedJustUnderBreakEvenAndSplitJustOver) {
  // One-byte rows, so the gap between two rows is the slots between them.
  // At the break-even gap transferring it costs exactly one register load.
  ASSERT_EQ(cfg().read_page_latency % cfg().byte_transfer_latency, 0u);
  const uint32_t break_even = static_cast<uint32_t>(
      cfg().read_page_latency / cfg().byte_transfer_latency);
  ASSERT_LT(break_even + 2, cfg().page_size);
  FixedTableRef ref = Build(1, cfg().page_size);
  std::vector<uint8_t> buf(2048, 0);
  FixedTableReader r(device_.get(), ref, buf.data());
  const uint32_t rpp = ref.rows_per_page;
  for (uint32_t gap : {break_even - 1, break_even + 1}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    SimNanos t0 = clock_.now();
    uint64_t pages0 = device_->stats().pages_read;
    uint64_t bytes0 = device_->stats().bytes_transferred;
    ASSERT_TRUE(r.ReadRowsOnPage(0, Slots(rpp, {3, 3 + gap + 1}), 0, 1).ok());
    bool bridged = gap < break_even;
    EXPECT_EQ(device_->stats().pages_read - pages0, bridged ? 1u : 2u);
    EXPECT_EQ(device_->stats().bytes_transferred - bytes0,
              bridged ? gap + 2 : 2u);
    EXPECT_EQ(clock_.now() - t0,
              (bridged ? 1 : 2) * cfg().read_page_latency +
                  (bridged ? gap + 2 : 2) * cfg().byte_transfer_latency);
    EXPECT_EQ(buf[3], static_cast<uint8_t>(3 * 7));
    EXPECT_EQ(buf[3 + gap + 1], static_cast<uint8_t>((3 + gap + 1) * 7));
  }
}

TEST_F(SpanReadTest, RowsPastTheEndAreOutOfRange) {
  // 200 rows of 16 bytes: page 1 holds rows 128..199, slots 0..71.
  FixedTableRef ref = Build(16, 200);
  std::vector<uint8_t> buf(2048, 0);
  FixedTableReader r(device_.get(), ref, buf.data());
  uint64_t pages0 = device_->stats().pages_read;
  EXPECT_TRUE(r.ReadRowsOnPage(1, Slots(128, {3, 72}), 0, 4).IsOutOfRange());
  EXPECT_TRUE(r.ReadRowsOnPage(2, Slots(128, {0}), 0, 4).IsOutOfRange());
  EXPECT_EQ(device_->stats().pages_read, pages0);  // nothing was read
  EXPECT_TRUE(r.ReadRowsOnPage(1, Slots(128, {71}), 0, 4).ok());
  EXPECT_TRUE(r.ReadRowsOnPage(1, Slots(128, {71}), 4, 4).IsInvalidArgument());
  EXPECT_TRUE(
      r.ReadRowsOnPage(1, Slots(128, {71}), 0, 17).IsInvalidArgument());
  // An empty mask reads nothing.
  uint64_t pages1 = device_->stats().pages_read;
  EXPECT_TRUE(r.ReadRowsOnPage(2, Slots(128, {}), 0, 4).ok());
  EXPECT_EQ(device_->stats().pages_read, pages1);
}

TEST_F(SpanReadTest, RowReadAfterSpanReadReloadsThePage) {
  // A span read leaves only the requested bytes in the buffer, so a
  // ReadRow on the same page must not trust it as the cached page.
  FixedTableRef ref = Build(16, 128);
  std::vector<uint8_t> buf(2048, 0);
  FixedTableReader r(device_.get(), ref, buf.data());
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(r.ReadRow(5, row.data()).ok());
  std::fill(buf.begin(), buf.end(), 0xEE);
  ASSERT_TRUE(r.ReadRowsOnPage(0, Slots(128, {100}), 0, 4).ok());
  ASSERT_TRUE(r.ReadRow(6, row.data()).ok());
  for (uint32_t j = 0; j < 16; ++j) {
    EXPECT_EQ(row[j], static_cast<uint8_t>(6 * 7 + j));
  }
}

// --- B+-tree / climbing index ---

struct CiEntry {
  int32_t key;
  std::vector<std::vector<RowId>> levels;
};

class BTreeTest : public StorageTest {
 protected:
  // Builds a 2-level climbing index over `entries` (sorted by key).
  BTreeRef Build(const std::vector<CiEntry>& entries, uint32_t levels) {
    BTreeBuilder builder(device_.get(), allocator_.get(),
                         catalog::DataType::kInt32, 4, levels, "ci");
    for (const auto& e : entries) {
      EXPECT_TRUE(builder.Add(Value::Int32(e.key), e.levels).ok());
    }
    auto ref = builder.Finish();
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    return *ref;
  }

  std::vector<RowId> Drain(const BTreeRef& ref, const PostingRange& range,
                           uint32_t level) {
    std::vector<uint8_t> buf(2048);
    PostingCursor cur(device_.get(), &ref.postings[level], range, buf.data());
    EXPECT_TRUE(cur.Prime().ok());
    std::vector<RowId> out;
    while (cur.valid()) {
      out.push_back(cur.head());
      EXPECT_TRUE(cur.Advance().ok());
    }
    return out;
  }
};

TEST_F(BTreeTest, SingleLeafLookup) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 10; ++k) {
    entries.push_back({k * 10, {{static_cast<RowId>(k)},
                                {static_cast<RowId>(100 + k),
                                 static_cast<RowId>(200 + k)}}});
  }
  auto ref = Build(entries, 2);
  EXPECT_EQ(ref.height, 1u);
  EXPECT_EQ(ref.entry_count, 10u);

  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::Int32(50));
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(*found);
  auto entry = (*reader)->Current();
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->key.AsInt32(), 50);
  EXPECT_EQ(Drain(ref, entry->ranges[0], 0), std::vector<RowId>({5}));
  EXPECT_EQ(Drain(ref, entry->ranges[1], 1), std::vector<RowId>({105, 205}));
}

TEST_F(BTreeTest, LowerBoundBetweenKeys) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 10; ++k) entries.push_back({k * 10, {{0u}}});
  auto ref = Build(entries, 1);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::Int32(45));
  ASSERT_TRUE(found.ok() && *found);
  auto entry = (*reader)->Current();
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->key.AsInt32(), 50);
}

TEST_F(BTreeTest, LowerBoundPastEndInvalid) {
  std::vector<CiEntry> entries = {{1, {{1u}}}, {2, {{2u}}}};
  auto ref = Build(entries, 1);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::Int32(100));
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  EXPECT_FALSE((*reader)->cursor_valid());
}

TEST_F(BTreeTest, MultiLevelTreeLookups) {
  // Enough keys to force height >= 2: leaf stride 4 + 8 = 12 bytes,
  // capacity ~170 entries/leaf.
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 5000; ++k) {
    entries.push_back({k * 2, {{static_cast<RowId>(k)}}});
  }
  auto ref = Build(entries, 1);
  EXPECT_GE(ref.height, 2u);

  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    int32_t k = static_cast<int32_t>(rng.Uniform(5000)) * 2;
    auto found = (*reader)->SeekLowerBound(Value::Int32(k));
    ASSERT_TRUE(found.ok() && *found) << k;
    auto entry = (*reader)->Current();
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->key.AsInt32(), k);
    EXPECT_EQ(Drain(ref, entry->ranges[0], 0),
              std::vector<RowId>({static_cast<RowId>(k / 2)}));
  }
}

TEST_F(BTreeTest, FullScanVisitsAllKeysInOrder) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 3000; ++k) entries.push_back({k * 3 + 1, {{0u}}});
  auto ref = Build(entries, 1);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekToFirst();
  ASSERT_TRUE(found.ok() && *found);
  int32_t expect = 1;
  size_t seen = 0;
  do {
    auto entry = (*reader)->Current();
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->key.AsInt32(), expect);
    expect += 3;
    ++seen;
    auto more = (*reader)->Next();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  } while (true);
  EXPECT_EQ(seen, 3000u);
}

TEST_F(BTreeTest, SortedProbesReuseCachedPages) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 5000; ++k) entries.push_back({k, {{0u}}});
  auto ref = Build(entries, 1);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  // Probe every key in ascending order: leaf pages load once each, so total
  // loads stay near (#leaves + internal pages), far below #probes.
  for (int32_t k = 0; k < 5000; ++k) {
    auto found = (*reader)->SeekLowerBound(Value::Int32(k));
    ASSERT_TRUE(found.ok() && *found);
  }
  uint64_t leaves = ref.leaf_run.page_count();
  EXPECT_LT((*reader)->pages_loaded(), leaves + 50);
  EXPECT_GE((*reader)->pages_loaded(), leaves);
}

TEST_F(BTreeTest, StringKeysUseBinaryPaddedCollation) {
  BTreeBuilder builder(device_.get(), allocator_.get(),
                       catalog::DataType::kString, 10, 1, "ci");
  for (std::string k : {"apple", "banana", "cherry", "melon", "peach"}) {
    ASSERT_TRUE(builder.Add(Value::String(k), {{1u}}).ok());
  }
  auto ref = builder.Finish();
  ASSERT_TRUE(ref.ok());
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &*ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::String("cat"));
  ASSERT_TRUE(found.ok() && *found);
  auto entry = (*reader)->Current();
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->key.AsString(), "cherry");
}

TEST_F(BTreeTest, RejectsNonAscendingKeys) {
  BTreeBuilder builder(device_.get(), allocator_.get(),
                       catalog::DataType::kInt32, 4, 1, "ci");
  ASSERT_TRUE(builder.Add(Value::Int32(5), {{1u}}).ok());
  EXPECT_TRUE(builder.Add(Value::Int32(5), {{2u}}).IsInvalidArgument());
  EXPECT_TRUE(builder.Add(Value::Int32(4), {{3u}}).IsInvalidArgument());
}

TEST_F(BTreeTest, EmptyIndex) {
  auto ref = Build({}, 1);
  EXPECT_EQ(ref.height, 0u);
  EXPECT_EQ(ref.entry_count, 0u);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::Int32(1));
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
}

TEST_F(BTreeTest, ReaderUsesOneBufferPerLevel) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 5000; ++k) entries.push_back({k, {{0u}}});
  auto ref = Build(entries, 1);
  ASSERT_GE(ref.height, 2u);
  uint32_t before = ram_->used_buffers();
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(ram_->used_buffers() - before, ref.height);
}

TEST_F(BTreeTest, LargePostingListsCrossPages) {
  // One key with a sublist far larger than a page (512 ids/page).
  std::vector<RowId> big;
  for (RowId i = 0; i < 5000; ++i) big.push_back(i * 7);
  std::vector<CiEntry> entries = {{42, {big}}};
  auto ref = Build(entries, 1);
  auto reader = BTreeReader::Open(device_.get(), ram_.get(), &ref);
  ASSERT_TRUE(reader.ok());
  auto found = (*reader)->SeekLowerBound(Value::Int32(42));
  ASSERT_TRUE(found.ok() && *found);
  auto entry = (*reader)->Current();
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(Drain(ref, entry->ranges[0], 0), big);
}

TEST_F(BTreeTest, TotalPagesAccountsEverything) {
  std::vector<CiEntry> entries;
  for (int32_t k = 0; k < 2000; ++k)
    entries.push_back({k, {{static_cast<RowId>(k)},
                           {static_cast<RowId>(k), static_cast<RowId>(k + 1)}}});
  auto ref = Build(entries, 2);
  uint64_t counted = ref.leaf_run.page_count();
  for (auto& r : ref.node_runs) counted += r.page_count();
  for (auto& r : ref.postings) counted += r.page_count();
  EXPECT_EQ(ref.total_pages(), counted);
  EXPECT_GT(ref.total_pages(), 0u);
  EXPECT_EQ(ref.level_id_counts[0], 2000u);
  EXPECT_EQ(ref.level_id_counts[1], 4000u);
}

}  // namespace
}  // namespace ghostdb::storage
