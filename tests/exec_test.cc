// Operator tests: Bloom filter calibration, Merge (streaming, reduction,
// sub-buffer windows, the bitmap union, the rule choosing between them),
// id sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "device/fault_injector.h"
#include "device/ram_manager.h"
#include "exec/bloom.h"
#include "exec/id_source.h"
#include "exec/merge.h"
#include "flash/flash.h"
#include "storage/btree.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::exec {
namespace {

using catalog::RowId;

// An id universe whose bitmap (512 KiB, 256 buffers) cannot fit the 32 RAM
// buffers: merges over it take plan A or B, never plan C.
constexpr uint64_t kStreamingUniverse = uint64_t{1} << 22;

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    flash::FlashConfig cfg;
    cfg.logical_pages = 16 * 1024;
    device_ = std::make_unique<flash::FlashDevice>(cfg, &clock_);
    allocator_ = std::make_unique<storage::PageAllocator>(device_.get());
    ram_ = std::make_unique<device::RamManager>(64 * 1024, 2048);
  }

  // Writes a sorted id run to flash.
  storage::RunRef MakeRun(const std::vector<RowId>& ids,
                          const std::string& tag = "t") {
    std::vector<uint8_t> buf(2048);
    storage::RunWriter w(device_.get(), allocator_.get(), buf.data(), tag);
    for (RowId id : ids) EXPECT_TRUE(w.AppendU32(id).ok());
    auto ref = w.Finish();
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  std::vector<RowId> RunMerge(uint64_t universe,
                              std::vector<MergeGroup> groups,
                              uint32_t reserve_buffers = 0) {
    MergeExec merge(device_.get(), ram_.get(), allocator_.get());
    std::vector<RowId> out;
    auto st = merge.Run(
        std::move(groups), universe,
        [&](RowId id) {
          out.push_back(id);
          return Status::OK();
        },
        reserve_buffers);
    EXPECT_TRUE(st.ok()) << st.ToString();
    last_stats_ = merge.stats();
    return out;
  }

  int64_t TagPages(const std::string& tag) const {
    auto it = allocator_->usage_by_tag().find(tag);
    return it == allocator_->usage_by_tag().end() ? 0 : it->second;
  }

  SimClock clock_;
  std::unique_ptr<flash::FlashDevice> device_;
  std::unique_ptr<storage::PageAllocator> allocator_;
  std::unique_ptr<device::RamManager> ram_;
  MergeStats last_stats_;
};

// --- Bloom ---

TEST_F(ExecTest, BloomNoFalseNegatives) {
  auto bloom = BloomFilter::Create(ram_.get(), 1000, 8);
  ASSERT_TRUE(bloom.ok());
  for (RowId id = 0; id < 1000; ++id) bloom->Insert(id * 3);
  for (RowId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(bloom->MightContain(id * 3));
  }
}

TEST_F(ExecTest, BloomFprNearPaperCalibration) {
  // m/n = 8 with k = ln2*8 ≈ 5..6 hashes → fpr in the low percent range
  // (the paper quotes 0.024 with k=4).
  const uint64_t n = 10000;
  auto bloom = BloomFilter::Create(ram_.get(), n, 32);
  ASSERT_TRUE(bloom.ok());
  ASSERT_GE(bloom->bits_per_element(n), 8.0);
  for (RowId id = 0; id < n; ++id) bloom->Insert(id);
  uint64_t fp = 0;
  const uint64_t probes = 20000;
  for (RowId id = 0; id < probes; ++id) {
    if (bloom->MightContain(1000000 + id * 7)) ++fp;
  }
  double fpr = static_cast<double>(fp) / probes;
  EXPECT_LT(fpr, 0.05);
  EXPECT_NEAR(fpr, bloom->EstimatedFpr(n), 0.02);
}

TEST_F(ExecTest, BloomDegradesWhenRamCapped) {
  // 200k ids but only 4 buffers (8 KB = 65536 bits): m/n ≈ 0.33 → fpr high.
  const uint64_t n = 200000;
  auto bloom = BloomFilter::Create(ram_.get(), n, 4);
  ASSERT_TRUE(bloom.ok());
  EXPECT_EQ(bloom->buffers_used(), 4u);
  EXPECT_LT(bloom->bits_per_element(n), 1.0);
  EXPECT_GT(bloom->EstimatedFpr(n), 0.2);
}

TEST_F(ExecTest, BloomRamIsAccounted) {
  uint32_t before = ram_->free_buffers();
  {
    auto bloom = BloomFilter::Create(ram_.get(), 16 * 1024, 32);
    ASSERT_TRUE(bloom.ok());
    // 16Ki ids * 1 byte each = 8 buffers.
    EXPECT_EQ(before - ram_->free_buffers(), bloom->buffers_used());
  }
  EXPECT_EQ(ram_->free_buffers(), before);
}

// --- IdSources ---

TEST_F(ExecTest, VectorAndIotaSources) {
  VectorIdSource v({3, 7, 9});
  ASSERT_TRUE(v.Prime().ok());
  EXPECT_TRUE(v.valid());
  EXPECT_EQ(v.head(), 3u);
  ASSERT_TRUE(v.Advance().ok());
  EXPECT_EQ(v.head(), 7u);

  IotaIdSource iota(3);
  ASSERT_TRUE(iota.Prime().ok());
  std::vector<RowId> got;
  while (iota.valid()) {
    got.push_back(iota.head());
    ASSERT_TRUE(iota.Advance().ok());
  }
  EXPECT_EQ(got, std::vector<RowId>({0, 1, 2}));
}

// --- Merge ---

TEST_F(ExecTest, MergeSingleGroupUnion) {
  MergeGroup g;
  g.runs.push_back(MakeRun({1, 3, 5, 7}));
  g.runs.push_back(MakeRun({2, 3, 6}));
  g.ram_ids = {5, 6, 10};
  g.has_ram_ids = true;
  auto out = RunMerge(kStreamingUniverse, {std::move(g)});
  EXPECT_EQ(out, std::vector<RowId>({1, 2, 3, 5, 6, 7, 10}));
}

TEST_F(ExecTest, MergeIntersectionOfGroups) {
  MergeGroup a, b;
  a.runs.push_back(MakeRun({1, 2, 3, 4, 5, 6}));
  b.runs.push_back(MakeRun({2, 4, 6, 8}));
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_EQ(out, std::vector<RowId>({2, 4, 6}));
}

TEST_F(ExecTest, MergeIntersectionOfUnions) {
  MergeGroup a, b;
  a.runs.push_back(MakeRun({1, 5}));
  a.runs.push_back(MakeRun({3, 7}));
  b.runs.push_back(MakeRun({3, 5, 9}));
  b.ram_ids = {1};
  b.has_ram_ids = true;
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_EQ(out, std::vector<RowId>({1, 3, 5}));
}

TEST_F(ExecTest, MergeEmptyGroupYieldsNothing) {
  MergeGroup a, b;
  a.runs.push_back(MakeRun({1, 2, 3}));
  // b empty.
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_TRUE(out.empty());
}

TEST_F(ExecTest, MergeWithIota) {
  MergeGroup a, b;
  a.has_iota = true;
  a.iota_n = 100;
  b.runs.push_back(MakeRun({5, 50, 99, 150}));
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_EQ(out, std::vector<RowId>({5, 50, 99}));
}

TEST_F(ExecTest, MergeDeduplicatesWithinGroup) {
  MergeGroup g;
  g.runs.push_back(MakeRun({1, 2, 2, 3}));
  g.runs.push_back(MakeRun({2, 3, 3}));
  auto out = RunMerge(kStreamingUniverse, {std::move(g)});
  EXPECT_EQ(out, std::vector<RowId>({1, 2, 3}));
}

TEST_F(ExecTest, MergeManySublistsTriggersReduction) {
  // 1100 runs with 32 buffers: more streams than 64-byte windows can
  // serve (32 * 2048 / 64 = 1024), so the reduction phase must run.
  Rng rng(5);
  std::set<RowId> expected;
  MergeGroup g;
  for (int i = 0; i < 1100; ++i) {
    std::vector<RowId> ids;
    for (int j = 0; j < 5; ++j) {
      RowId id = static_cast<RowId>(rng.Uniform(10000));
      ids.push_back(id);
      expected.insert(id);
    }
    std::sort(ids.begin(), ids.end());
    g.runs.push_back(MakeRun(ids));
  }
  auto out = RunMerge(kStreamingUniverse, {std::move(g)});
  EXPECT_EQ(out, std::vector<RowId>(expected.begin(), expected.end()));
  EXPECT_GT(last_stats_.reduction_rounds, 0u);
  EXPECT_GT(last_stats_.reduction_ids_written, 0u);
}

TEST_F(ExecTest, MergeReductionPreservesIntersection) {
  Rng rng(9);
  std::vector<RowId> big;
  for (RowId id = 0; id < 5000; ++id) big.push_back(id);
  MergeGroup a;  // 80 sublists covering [0,5000) with noise
  std::set<RowId> a_union;
  for (int i = 0; i < 80; ++i) {
    std::vector<RowId> ids;
    for (int j = 0; j < 120; ++j) {
      RowId id = static_cast<RowId>(rng.Uniform(5000));
      ids.push_back(id);
      a_union.insert(id);
    }
    std::sort(ids.begin(), ids.end());
    a.runs.push_back(MakeRun(ids));
  }
  MergeGroup b;
  std::vector<RowId> filter;
  for (RowId id = 0; id < 5000; id += 3) filter.push_back(id);
  b.runs.push_back(MakeRun(filter));

  std::vector<RowId> expected;
  for (RowId id : filter) {
    if (a_union.count(id)) expected.push_back(id);
  }
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_EQ(out, expected);
}

TEST_F(ExecTest, MergeRulePicksWindowsOrReductionOnSameIds) {
  // 60 full-page runs. With all 32 buffers, windows of 1092 bytes cost one
  // extra load per page (60 * 25 us) against a 60-page rewrite (~26 ms):
  // windows win and nothing is written. With 2 usable buffers the windows
  // shrink to 68 bytes (30 extra loads per page, ~45 ms): rewriting the
  // group into 2 runs is cheaper.
  Rng rng(5);
  std::vector<std::vector<RowId>> lists(60);
  std::set<RowId> expected;
  for (auto& ids : lists) {
    for (int j = 0; j < 512; ++j) {
      ids.push_back(static_cast<RowId>(rng.Uniform(100000)));
      expected.insert(ids.back());
    }
    std::sort(ids.begin(), ids.end());
  }
  auto make_group = [&]() {
    MergeGroup g;
    for (const auto& ids : lists) g.runs.push_back(MakeRun(ids));
    return g;
  };
  std::vector<RowId> oracle(expected.begin(), expected.end());

  MergeGroup first = make_group();
  uint64_t writes_before = device_->stats().pages_written;
  auto windowed = RunMerge(kStreamingUniverse, {std::move(first)});
  EXPECT_EQ(device_->stats().pages_written - writes_before, 0u);
  EXPECT_EQ(last_stats_.window_bytes, 1092u);
  EXPECT_EQ(last_stats_.reduction_rounds, 0u);

  MergeGroup second = make_group();
  writes_before = device_->stats().pages_written;
  auto reduced = RunMerge(kStreamingUniverse, {std::move(second)},
                          /*reserve_buffers=*/30);
  EXPECT_GT(device_->stats().pages_written - writes_before, 0u);
  EXPECT_EQ(last_stats_.window_bytes, 0u);
  EXPECT_EQ(last_stats_.reduction_rounds, 1u);

  EXPECT_EQ(windowed, oracle);
  EXPECT_EQ(reduced, windowed);
}

TEST_F(ExecTest, MergeAlternativeRuleTable) {
  // Round costs: rewriting a page (read + program) costs 100, one extra
  // window load (a read latency) 60.
  flash::FlashConfig flash;
  flash.read_page_latency = 60;
  flash.write_page_latency = 40;
  flash.byte_transfer_latency = 0;
  auto spans = [](size_t n, uint64_t bytes) {
    return std::vector<StreamSpan>(n, StreamSpan{0, bytes});
  };
  struct Case {
    const char* name;
    size_t buffers;
    uint64_t full_pages;                     // plan A's reduction writes
    uint64_t window_pages;                   // plan B's reduction writes
    std::vector<StreamSpan> window_streams;  // streams plan B leaves
    size_t want_cap;
    uint32_t want_window;
  };
  std::vector<Case> cases = {
      // 2100 bytes from byte 2000: 48 + 2048 + 4 bytes on three pages.
      // Only the whole page needs a second 1364-byte load (60 < 100); the
      // naive pages * (ceil(page / w) - 1) would charge three (180).
      {"span straddles pages", 2, 1, 0,
       {{2000, 2100}, {0, 4}, {0, 4}}, 64, 1364},
      // 40 streams on one buffer would get 51-byte windows: plan B reduces
      // to 32 streams first (100) and reads them through 64 bytes.
      {"window under 64 bytes", 1, 2, 1, spans(32, 4), 32, 64},
      // One extra 1024-byte load per page: 8 * 60 against 10 * 100.
      {"windows cheaper", 4, 10, 0, spans(8, 2048), 128, 1024},
      // 64-byte windows load a page in 32 reads: 31 extra on each of 32
      // pages against rewriting one.
      {"rewrite cheaper", 1, 1, 0, spans(32, 2048), 1, 0},
      // 5 extra 1636-byte loads (300) against 3 pages (300).
      {"tie goes to full buffers", 4, 3, 0, spans(5, 2048), 4, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<size_t> asked;
    MergeAlternative choice = ChooseMergeAlternative(
        flash, c.buffers, [&](size_t cap) {
          asked.push_back(cap);
          MergeReduction r;
          r.pages_written = cap == c.buffers ? c.full_pages : c.window_pages;
          r.streams = cap == c.buffers ? spans(c.buffers, 2048)
                                       : c.window_streams;
          return r;
        });
    EXPECT_EQ(asked, (std::vector<size_t>{c.buffers,
                                          c.buffers * 2048 / 64}));
    EXPECT_EQ(choice.stream_cap, c.want_cap);
    EXPECT_EQ(choice.window_bytes, c.want_window);
  }
}

TEST_F(ExecTest, WideMergeOfPostingSublistsThroughWindows) {
  // 900 posting sublists of 3 ids each (one postings area), intersected
  // with an in-RAM list of every third id: 900 streams fit 72-byte windows
  // of the 32 buffers, and 12-byte sublists need no extra loads, so the
  // merge streams them all without reduction.
  Rng rng(11);
  std::vector<RowId> area_ids;
  std::set<RowId> sublist_union;
  MergeGroup a;
  std::vector<storage::PostingRange> ranges;
  for (uint32_t i = 0; i < 900; ++i) {
    std::vector<RowId> ids;
    for (int j = 0; j < 3; ++j) {
      ids.push_back(static_cast<RowId>(rng.Uniform(20000)));
    }
    std::sort(ids.begin(), ids.end());
    ranges.push_back({static_cast<uint32_t>(area_ids.size()), 3});
    area_ids.insert(area_ids.end(), ids.begin(), ids.end());
    sublist_union.insert(ids.begin(), ids.end());
  }
  storage::RunRef area = MakeRun(area_ids);
  for (const auto& range : ranges) a.sublists.push_back({&area, range});
  MergeGroup b;
  for (RowId id = 0; id < 20000; id += 3) b.ram_ids.push_back(id);
  b.has_ram_ids = true;

  std::vector<RowId> expected;
  for (RowId id : sublist_union) {
    if (id % 3 == 0) expected.push_back(id);
  }
  auto out = RunMerge(kStreamingUniverse, {std::move(a), std::move(b)});
  EXPECT_EQ(out, expected);
  EXPECT_EQ(last_stats_.reduction_rounds, 0u);
  EXPECT_EQ(last_stats_.peak_streams, 900u);
  EXPECT_EQ(last_stats_.window_bytes, 72u);  // 32 * 2048 / 900, down to 4
}

TEST_F(ExecTest, MergeRespectsReserveBuffers) {
  // 600 one-id runs over 40 distinct ids. 22 free buffers could serve
  // them through 64-byte windows (22 * 2048 / 64 = 704 streams); the 17
  // left after the reserve cannot (544), so reduction must kick in.
  MergeGroup g;
  for (int i = 0; i < 600; ++i) {
    g.runs.push_back(MakeRun({static_cast<RowId>(i % 40)}));
  }
  MergeExec merge(device_.get(), ram_.get(), allocator_.get());
  std::vector<RowId> out;
  auto hold = ram_->Acquire(10, "downstream");
  ASSERT_TRUE(hold.ok());
  std::vector<MergeGroup> groups;
  groups.push_back(std::move(g));
  auto st = merge.Run(
      std::move(groups), kStreamingUniverse,
      [&](RowId id) {
        out.push_back(id);
        return Status::OK();
      },
      /*reserve_buffers=*/5);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.size(), 40u);
  EXPECT_GT(merge.stats().reduction_rounds, 0u);
}

TEST_F(ExecTest, MergeFreesTemporaryPages) {
  Rng rng(3);
  MergeGroup g;
  for (int i = 0; i < 100; ++i) {
    std::vector<RowId> ids;
    for (int j = 0; j < 60; ++j) {
      ids.push_back(static_cast<RowId>(rng.Uniform(100000)));
    }
    std::sort(ids.begin(), ids.end());
    g.runs.push_back(MakeRun(ids));
  }
  RunMerge(kStreamingUniverse, {std::move(g)});
  // All merge-tmp pages must be back.
  auto it = allocator_->usage_by_tag().find("merge-tmp");
  if (it != allocator_->usage_by_tag().end()) {
    EXPECT_EQ(it->second, 0);
  }
  // Input runs are freed as well.
  EXPECT_EQ(allocator_->usage_by_tag().at("t"), 0);
}

TEST_F(ExecTest, MergeChargesMergeCategoryOnly) {
  MergeGroup g;
  g.runs.push_back(MakeRun({1, 2, 3}));
  auto scope = clock_.Enter("merge");
  SimNanos before = clock_.Category("merge");
  RunMerge(kStreamingUniverse, {std::move(g)});
  EXPECT_GT(clock_.Category("merge"), before);
}

// --- Bitmap union (plan C) ---

// One random merge input: up to three groups mixing climbing-index
// sublists (laid out one after another in a postings area, sometimes with
// gaps), temporary runs, an in-RAM list and the id universe itself.
struct RandomMergeInput {
  std::vector<std::vector<std::vector<RowId>>> sublists;  // per group
  std::vector<std::vector<std::vector<RowId>>> runs;      // per group
  std::vector<std::vector<RowId>> ram_ids;                // per group
  std::vector<RowId> iota_n;                              // 0 = none
  std::vector<std::vector<bool>> gap_before;              // per sublist
};

RandomMergeInput MakeRandomMergeInput(Rng& rng, RowId universe) {
  RandomMergeInput in;
  size_t groups = 1 + rng.Uniform(3);
  auto sorted_ids = [&](size_t n) {
    std::vector<RowId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<RowId>(rng.Uniform(universe)));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (size_t g = 0; g < groups; ++g) {
    in.sublists.emplace_back();
    in.gap_before.emplace_back();
    in.runs.emplace_back();
    size_t shape = rng.Uniform(4);
    size_t sublists = shape == 0 ? 0 : shape == 1 ? 1 + rng.Uniform(40)
                                                  : 200 + rng.Uniform(1000);
    for (size_t i = 0; i < sublists; ++i) {
      in.sublists.back().push_back(sorted_ids(1 + rng.Uniform(40)));
      in.gap_before.back().push_back(rng.Uniform(4) == 0);
    }
    size_t runs = rng.Uniform(3) == 0 ? rng.Uniform(60) : 0;
    for (size_t i = 0; i < runs; ++i) {
      in.runs.back().push_back(sorted_ids(1 + rng.Uniform(700)));
    }
    std::vector<RowId> ram;
    if (rng.Uniform(3) == 0) {
      ram = sorted_ids(rng.Uniform(3000));
      ram.erase(std::unique(ram.begin(), ram.end()), ram.end());
    }
    in.ram_ids.push_back(std::move(ram));
    in.iota_n.push_back(rng.Uniform(5) == 0
                            ? static_cast<RowId>(rng.Uniform(universe))
                            : 0);
  }
  return in;
}

TEST_F(ExecTest, MergeBitmapUnionMatchesStreamingPlans) {
  // The same random groups merged under a universe whose bitmap fits (2500
  // bytes: 2 buffers) and under one whose bitmap cannot (plans A/B only)
  // give the same ids; the bitmap union writes nothing and loads no more
  // pages, and merges that reduce or window without it avoid that work.
  constexpr RowId kUniverse = 20000;
  Rng rng(17);
  uint32_t bitmap_merges = 0;
  uint32_t rewrites_avoided = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    RandomMergeInput in = MakeRandomMergeInput(rng, kUniverse);
    // Each group's sublists share one postings area.
    std::vector<storage::RunRef> areas(in.sublists.size());
    std::vector<std::vector<storage::PostingRange>> ranges(areas.size());
    for (size_t g = 0; g < areas.size(); ++g) {
      std::vector<RowId> area_ids;
      for (size_t i = 0; i < in.sublists[g].size(); ++i) {
        if (in.gap_before[g][i]) area_ids.push_back(0);  // unreferenced
        ranges[g].push_back(
            {static_cast<uint32_t>(area_ids.size()),
             static_cast<uint32_t>(in.sublists[g][i].size())});
        area_ids.insert(area_ids.end(), in.sublists[g][i].begin(),
                        in.sublists[g][i].end());
      }
      if (!area_ids.empty()) areas[g] = MakeRun(area_ids);
    }
    int64_t area_pages = TagPages("t");
    auto make_groups = [&]() {
      std::vector<MergeGroup> groups(in.sublists.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        for (const auto& range : ranges[g]) {
          groups[g].sublists.push_back({&areas[g], range});
        }
        for (const auto& ids : in.runs[g]) {
          groups[g].runs.push_back(MakeRun(ids));
        }
        if (!in.ram_ids[g].empty()) {
          groups[g].ram_ids = in.ram_ids[g];
          groups[g].has_ram_ids = true;
        }
        if (in.iota_n[g] > 0) {
          groups[g].has_iota = true;
          groups[g].iota_n = in.iota_n[g];
        }
      }
      return groups;
    };

    std::vector<MergeGroup> wide_groups = make_groups();
    flash::FlashStats before = device_->stats();
    auto streamed = RunMerge(kStreamingUniverse, std::move(wide_groups));
    flash::FlashStats streamed_io = device_->stats() - before;
    EXPECT_EQ(last_stats_.bitmap_groups, 0u);

    std::vector<MergeGroup> fit_groups = make_groups();
    before = device_->stats();
    auto bitmapped = RunMerge(kUniverse, std::move(fit_groups));
    flash::FlashStats bitmap_io = device_->stats() - before;

    EXPECT_EQ(bitmapped, streamed);
    EXPECT_LE(bitmap_io.pages_read, streamed_io.pages_read);
    EXPECT_LE(bitmap_io.pages_written, streamed_io.pages_written);
    if (last_stats_.bitmap_groups > 0) {
      bitmap_merges += 1;
      EXPECT_EQ(bitmap_io.pages_written, 0u);
      EXPECT_EQ(last_stats_.reduction_rounds, 0u);
      if (streamed_io.pages_written > 0) rewrites_avoided += 1;
    }
    EXPECT_EQ(ram_->used_buffers(), 0u);
    EXPECT_EQ(TagPages("t"), area_pages);  // every run freed, areas kept
    for (auto& area : areas) {
      if (!area.empty()) {
        ASSERT_TRUE(storage::FreeRun(allocator_.get(), area, "t").ok());
      }
    }
  }
  EXPECT_GT(bitmap_merges, 10u);
  EXPECT_GT(rewrites_avoided, 0u);
}

TEST_F(ExecTest, MergeBitmapOnlyWhenItSavesLoads) {
  // Two full-page runs: one load per page either way — a tie, which stays
  // with plan A. 40 adjacent 3-id sublists on one page: streaming loads the
  // page 40 times, the bitmap once.
  MergeGroup runs;
  runs.runs.push_back(MakeRun(std::vector<RowId>(512, 7)));
  runs.runs.push_back(MakeRun(std::vector<RowId>(512, 9)));
  EXPECT_EQ(RunMerge(1000, {std::move(runs)}), std::vector<RowId>({7, 9}));
  EXPECT_EQ(last_stats_.bitmap_groups, 0u);

  std::vector<RowId> area_ids;
  for (RowId i = 0; i < 40; ++i) {
    area_ids.insert(area_ids.end(), {i, i + 40, i + 80});
  }
  storage::RunRef area = MakeRun(area_ids);
  MergeGroup adjacent;
  for (uint32_t i = 0; i < 40; ++i) {
    adjacent.sublists.push_back({&area, {i * 3, 3}});
  }
  uint64_t reads_before = device_->stats().pages_read;
  auto out = RunMerge(1000, {std::move(adjacent)});
  EXPECT_EQ(last_stats_.bitmap_groups, 1u);
  EXPECT_EQ(device_->stats().pages_read - reads_before, 1u);
  std::vector<RowId> expected(120);
  for (RowId id = 0; id < 120; ++id) expected[id] = id;
  EXPECT_EQ(out, expected);
}

TEST_F(ExecTest, MergeBitmapReadFaultLeaksNothing) {
  // 1100 one-id sublists (3 pages once coalesced) and 6 temporary runs:
  // more streams than 64-byte windows serve, so the bitmap union beats a
  // reduction. A read fault on the 6th load lands on the 3rd run: the
  // merge returns it, and every run (read or not) and every buffer
  // (map and read buffer) is back.
  std::vector<RowId> area_ids;
  for (RowId id = 0; id < 1100; ++id) area_ids.push_back(id * 7 % 1100);
  storage::RunRef area = MakeRun(area_ids);
  MergeGroup g;
  for (uint32_t i = 0; i < 1100; ++i) g.sublists.push_back({&area, {i, 1}});
  for (RowId r = 0; r < 6; ++r) {
    g.runs.push_back(MakeRun({r, r + 1000}, "merge-tmp"));
  }
  ASSERT_EQ(TagPages("merge-tmp"), 6);
  device::FaultInjector injector(device::FaultConfig{}, &clock_);
  device_->set_fault_injector(&injector);
  injector.ArmOnce(device::FaultSite::kFlashRead,
                   device::FaultKind::kPermanent, /*after_draws=*/5);
  MergeExec merge(device_.get(), ram_.get(), allocator_.get());
  std::vector<MergeGroup> groups;
  groups.push_back(std::move(g));
  uint64_t writes_before = device_->stats().pages_written;
  Status st = merge.Run(std::move(groups), 1100,
                        [](RowId) { return Status::OK(); });
  device_->set_fault_injector(nullptr);
  EXPECT_TRUE(device::FaultInjector::IsInjectedFault(st)) << st.ToString();
  EXPECT_EQ(device_->stats().pages_written, writes_before);  // no reduction
  EXPECT_EQ(TagPages("merge-tmp"), 0);
  EXPECT_EQ(ram_->used_buffers(), 0u);
  EXPECT_EQ(merge.stats().ids_emitted, 0u);
}

TEST_F(ExecTest, MergeBitmapRejectsIdOutsideUniverse) {
  // A sublist id at or above N is an Internal error, never a write past
  // the map; the group's runs are still freed.
  std::vector<RowId> area_ids(64);
  for (RowId id = 0; id < 64; ++id) area_ids[id] = id;
  area_ids[40] = 5000;  // out of range for a universe of 100
  storage::RunRef area = MakeRun(area_ids);
  MergeGroup g;
  for (uint32_t i = 0; i < 32; ++i) g.sublists.push_back({&area, {i * 2, 2}});
  g.runs.push_back(MakeRun({1, 2, 3}, "merge-tmp"));
  MergeExec merge(device_.get(), ram_.get(), allocator_.get());
  std::vector<MergeGroup> groups;
  groups.push_back(std::move(g));
  Status st = merge.Run(std::move(groups), 100,
                        [](RowId) { return Status::OK(); });
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_EQ(merge.stats().bitmap_groups, 0u);
  EXPECT_EQ(TagPages("merge-tmp"), 0);
  EXPECT_EQ(ram_->used_buffers(), 0u);
}

}  // namespace
}  // namespace ghostdb::exec
