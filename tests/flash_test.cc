// Flash simulator tests: cost model exactness, FTL remapping, garbage
// collection, wear leveling, at-rest encryption.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <vector>

#include "common/sim_clock.h"
#include "crypto/chacha20.h"
#include "flash/flash.h"

namespace ghostdb::flash {
namespace {

FlashConfig SmallConfig() {
  FlashConfig cfg;
  cfg.page_size = 2048;
  cfg.pages_per_block = 4;
  cfg.logical_pages = 64;
  cfg.spare_blocks = 4;
  return cfg;
}

std::vector<uint8_t> PatternPage(uint32_t page_size, uint8_t seed) {
  std::vector<uint8_t> page(page_size);
  for (uint32_t i = 0; i < page_size; ++i)
    page[i] = static_cast<uint8_t>(seed + i * 7);
  return page;
}

TEST(FlashTest, WriteThenReadRoundTrip) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 1);
  ASSERT_TRUE(dev.WritePage(5, page.data()).ok());
  std::vector<uint8_t> back(2048);
  ASSERT_TRUE(dev.ReadFullPage(5, back.data()).ok());
  EXPECT_EQ(back, page);
}

TEST(FlashTest, UnwrittenPageReadsAsZeros) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  std::vector<uint8_t> back(2048, 0xFF);
  ASSERT_TRUE(dev.ReadFullPage(9, back.data()).ok());
  for (uint8_t b : back) EXPECT_EQ(b, 0);
}

TEST(FlashTest, PartialReadReturnsSlice) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 3);
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  std::vector<uint8_t> slice(100);
  ASSERT_TRUE(dev.ReadPage(0, slice.data(), 500, 100).ok());
  EXPECT_EQ(std::memcmp(slice.data(), page.data() + 500, 100), 0);
}

TEST(FlashTest, ReadCostIsLatencyPlusPerByteTransfer) {
  SimClock clock;
  auto cfg = SmallConfig();
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 7);
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  SimNanos before = clock.now();
  std::vector<uint8_t> buf(2048);
  ASSERT_TRUE(dev.ReadPage(0, buf.data(), 0, 2048).ok());
  // Full-page read: 25 us + 2048 * 50 ns = 127.4 us (paper's upper bound).
  EXPECT_EQ(clock.now() - before, 25 * kMicrosecond + 2048 * 50);
  before = clock.now();
  ASSERT_TRUE(dev.ReadPage(0, buf.data(), 0, 4).ok());
  // Single-word read: 25 us + 200 ns (paper's lower bound ~25 us).
  EXPECT_EQ(clock.now() - before, 25 * kMicrosecond + 4 * 50);
}

TEST(FlashTest, WriteCostMatchesTable1) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 7);
  SimNanos before = clock.now();
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  // 200 us program + 2048 * 50 ns register fill.
  EXPECT_EQ(clock.now() - before, 200 * kMicrosecond + 2048 * 50);
}

TEST(FlashTest, WriteReadRatioSpansPaperRange) {
  // Section 2.3: writes are roughly 2.5x..12x slower than reads.
  double write_cost = 200.0 + 2048 * 0.05;          // us
  double full_read = 25.0 + 2048 * 0.05;            // us
  double word_read = 25.0 + 4 * 0.05;               // us
  EXPECT_NEAR(write_cost / full_read, 2.38, 0.15);  // ~2.5
  EXPECT_NEAR(write_cost / word_read, 12.0, 0.5);   // ~12
}

TEST(FlashTest, StatsCountPagesAndBytes) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 1);
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  ASSERT_TRUE(dev.WritePage(1, page.data()).ok());
  std::vector<uint8_t> buf(2048);
  ASSERT_TRUE(dev.ReadPage(0, buf.data(), 0, 100).ok());
  EXPECT_EQ(dev.stats().pages_written, 2u);
  EXPECT_EQ(dev.stats().pages_read, 1u);
  EXPECT_EQ(dev.stats().bytes_transferred, 2 * 2048u + 100u);
}

TEST(FlashTest, OverwriteRemapsOutOfPlace) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto v1 = PatternPage(2048, 1);
  auto v2 = PatternPage(2048, 99);
  ASSERT_TRUE(dev.WritePage(3, v1.data()).ok());
  ASSERT_TRUE(dev.WritePage(3, v2.data()).ok());
  std::vector<uint8_t> back(2048);
  ASSERT_TRUE(dev.ReadFullPage(3, back.data()).ok());
  EXPECT_EQ(back, v2);
  EXPECT_EQ(dev.live_pages(), 1u);
  EXPECT_EQ(dev.stats().pages_written, 2u);  // out-of-place: both programs
}

TEST(FlashTest, OutOfRangeAccessFails) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  std::vector<uint8_t> buf(2048);
  EXPECT_TRUE(dev.ReadFullPage(64, buf.data()).IsOutOfRange());
  EXPECT_TRUE(dev.WritePage(1000, buf.data()).IsOutOfRange());
  EXPECT_TRUE(dev.ReadPage(0, buf.data(), 2000, 100).IsInvalidArgument());
}

TEST(FlashTest, ReadBoundsCheckDoesNotWrap) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 8);
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  std::vector<uint8_t> buf(64);
  // offset + len wraps to 0x10 in 32 bits; the read must still be refused.
  EXPECT_TRUE(
      dev.ReadPage(0, buf.data(), 0xFFFFFFF0u, 0x20).IsInvalidArgument());
  EXPECT_TRUE(dev.ReadPage(0, buf.data(), 2049, 0).IsInvalidArgument());
  EXPECT_TRUE(dev.ReadPage(0, buf.data(), 2048, 0).ok());
  EXPECT_EQ(dev.stats().pages_read, 1u);
}

TEST(FlashTest, GarbageCollectionReclaimsDeadPages) {
  SimClock clock;
  auto cfg = SmallConfig();  // 64 logical + 16 spare pages (4 blocks of 4)
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 5);
  // Repeatedly overwrite a handful of logical pages; dead versions pile up
  // and must be erased for writes to keep succeeding.
  for (int round = 0; round < 50; ++round) {
    for (uint32_t lpn = 0; lpn < 8; ++lpn) {
      page[0] = static_cast<uint8_t>(round);
      page[1] = static_cast<uint8_t>(lpn);
      ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  EXPECT_GT(dev.stats().blocks_erased, 0u);
  // All 8 logical pages still hold their last version.
  std::vector<uint8_t> back(2048);
  for (uint32_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(dev.ReadFullPage(lpn, back.data()).ok());
    EXPECT_EQ(back[0], 49);
    EXPECT_EQ(back[1], lpn);
  }
}

TEST(FlashTest, GcPreservesUntouchedData) {
  SimClock clock;
  auto cfg = SmallConfig();
  FlashDevice dev(cfg, &clock);
  // Fill half the logical space with stable data.
  for (uint32_t lpn = 0; lpn < 32; ++lpn) {
    auto page = PatternPage(2048, static_cast<uint8_t>(lpn));
    ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok());
  }
  // Churn the other half hard to force GC cycles.
  auto churn = PatternPage(2048, 200);
  for (int round = 0; round < 40; ++round) {
    for (uint32_t lpn = 32; lpn < 40; ++lpn) {
      ASSERT_TRUE(dev.WritePage(lpn, churn.data()).ok());
    }
  }
  EXPECT_GT(dev.stats().blocks_erased, 0u);
  std::vector<uint8_t> back(2048);
  for (uint32_t lpn = 0; lpn < 32; ++lpn) {
    ASSERT_TRUE(dev.ReadFullPage(lpn, back.data()).ok());
    EXPECT_EQ(back, PatternPage(2048, static_cast<uint8_t>(lpn)))
        << "lpn " << lpn;
  }
}

TEST(FlashTest, TrimFreesLogicalPage) {
  SimClock clock;
  FlashDevice dev(SmallConfig(), &clock);
  auto page = PatternPage(2048, 1);
  ASSERT_TRUE(dev.WritePage(7, page.data()).ok());
  EXPECT_EQ(dev.live_pages(), 1u);
  ASSERT_TRUE(dev.Trim(7).ok());
  EXPECT_EQ(dev.live_pages(), 0u);
  EXPECT_EQ(dev.StoredPage(7), nullptr);
  EXPECT_EQ(dev.stats().trims, 1u);
  std::vector<uint8_t> back(2048, 0xFF);
  ASSERT_TRUE(dev.ReadFullPage(7, back.data()).ok());
  for (uint8_t b : back) EXPECT_EQ(b, 0);
}

TEST(FlashTest, GcCopiesAreCharged) {
  SimClock clock;
  auto cfg = SmallConfig();
  FlashDevice dev(cfg, &clock);
  // Fill the whole logical space so most blocks are fully valid, then churn
  // a working set that straddles a block boundary: under space pressure GC
  // must eventually evict a half-dead block and relocate its valid pages.
  cfg.spare_blocks = 1;
  FlashDevice tight(cfg, &clock);
  auto page = PatternPage(2048, 9);
  for (uint32_t lpn = 0; lpn < cfg.logical_pages; ++lpn) {
    ASSERT_TRUE(tight.WritePage(lpn, page.data()).ok());
  }
  for (int round = 0; round < 40; ++round) {
    for (uint32_t lpn = 0; lpn < 6; ++lpn) {  // 1.5 blocks worth of churn
      ASSERT_TRUE(tight.WritePage(lpn, page.data()).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  EXPECT_GT(tight.stats().blocks_erased, 0u);
  EXPECT_GT(tight.stats().gc_page_copies, 0u);
}

TEST(FlashTest, EncryptedRelocatedPagesReadBack) {
  // GcCopiesAreCharged's workload under a key: GC moves valid pages to new
  // slots, so each must be re-encrypted under its new (ppn, epoch).
  SimClock clock;
  auto cfg = SmallConfig();
  cfg.spare_blocks = 1;
  cfg.cipher_key = std::array<uint8_t, 32>{{3, 1, 4, 1, 5}};
  FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> seed_of(cfg.logical_pages);
  for (uint32_t lpn = 0; lpn < cfg.logical_pages; ++lpn) {
    seed_of[lpn] = static_cast<uint8_t>(lpn);
    auto page = PatternPage(2048, seed_of[lpn]);
    ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok());
  }
  for (int round = 0; round < 40; ++round) {
    for (uint32_t lpn = 0; lpn < 6; ++lpn) {
      seed_of[lpn] = static_cast<uint8_t>(100 + round * 6 + lpn);
      auto page = PatternPage(2048, seed_of[lpn]);
      ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  ASSERT_GT(dev.stats().gc_page_copies, 0u);
  std::vector<uint8_t> back(2048);
  for (uint32_t lpn = 0; lpn < cfg.logical_pages; ++lpn) {
    ASSERT_TRUE(dev.ReadFullPage(lpn, back.data()).ok());
    EXPECT_EQ(back, PatternPage(2048, seed_of[lpn])) << "lpn " << lpn;
  }
}

TEST(FlashTest, ConstructionTouchesNoCells) {
  // A default 256K-page device (512 MiB of cells) makes resident only its
  // FTL tables and the pages actually written.
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const long before = minor_faults();
  SimClock clock;
  FlashDevice dev(FlashConfig{}, &clock);
  auto page = PatternPage(2048, 21);
  ASSERT_TRUE(dev.WritePage(200000, page.data()).ok());
  std::vector<uint8_t> back(2048);
  ASSERT_TRUE(dev.ReadFullPage(200000, back.data()).ok());
  EXPECT_EQ(back, page);
  EXPECT_LT(minor_faults() - before, 4096);
}

TEST(FlashTest, WearLevelingSpreadsErases) {
  SimClock clock;
  auto cfg = SmallConfig();
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 1);
  for (int round = 0; round < 200; ++round) {
    for (uint32_t lpn = 0; lpn < 8; ++lpn) {
      ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok());
    }
  }
  // With erases spread across blocks, the most-worn block should carry far
  // fewer erases than the total.
  EXPECT_GT(dev.stats().blocks_erased, 10u);
  EXPECT_LT(dev.max_block_erases(), dev.stats().blocks_erased);
}

TEST(FlashTest, EncryptedPagesDifferFromPlaintextInCells) {
  SimClock clock;
  auto cfg = SmallConfig();
  cfg.cipher_key = std::array<uint8_t, 32>{};  // all-zero key is fine here
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 4);
  ASSERT_TRUE(dev.WritePage(2, page.data()).ok());
  std::vector<uint8_t> back(2048);
  ASSERT_TRUE(dev.ReadFullPage(2, back.data()).ok());
  EXPECT_EQ(back, page);  // transparent to the caller
}

TEST(FlashTest, EncryptedPartialReadsAlign) {
  SimClock clock;
  auto cfg = SmallConfig();
  cfg.cipher_key = std::array<uint8_t, 32>{{1, 2, 3, 4}};
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 42);
  ASSERT_TRUE(dev.WritePage(2, page.data()).ok());
  // Unaligned slice in the middle of the page.
  std::vector<uint8_t> slice(333);
  ASSERT_TRUE(dev.ReadPage(2, slice.data(), 1001, 333).ok());
  EXPECT_EQ(std::memcmp(slice.data(), page.data() + 1001, 333), 0);
}

TEST(FlashTest, StoredCiphertextMatchesScalarReference) {
  SimClock clock;
  auto cfg = SmallConfig();
  std::array<uint8_t, 32> key{{5, 6, 7, 8}};
  cfg.cipher_key = key;
  FlashDevice dev(cfg, &clock);
  auto page = PatternPage(2048, 77);
  EXPECT_EQ(dev.StoredPage(0), nullptr);
  ASSERT_TRUE(dev.WritePage(0, page.data()).ok());
  // A fresh device programs physical page 0 first, at write epoch 1; the
  // nonce is ppn (LE32) || epoch (LE32) || 0x67 || 0 0 0.
  const uint8_t nonce[12] = {0, 0, 0, 0, 1, 0, 0, 0, 0x67, 0, 0, 0};
  auto expected = page;
  crypto::scalar::Crypt(crypto::ChaCha20(key.data(), nonce), expected.data(),
                        expected.size(), 0);
  ASSERT_NE(dev.StoredPage(0), nullptr);
  EXPECT_EQ(std::memcmp(dev.StoredPage(0), expected.data(), 2048), 0);
  EXPECT_NE(expected, page);
}

TEST(FlashTest, EncryptedDataSurvivesGc) {
  SimClock clock;
  auto cfg = SmallConfig();
  cfg.cipher_key = std::array<uint8_t, 32>{{9, 9, 9}};
  FlashDevice dev(cfg, &clock);
  for (uint32_t lpn = 0; lpn < 16; ++lpn) {
    auto page = PatternPage(2048, static_cast<uint8_t>(lpn * 3));
    ASSERT_TRUE(dev.WritePage(lpn, page.data()).ok());
  }
  auto churn = PatternPage(2048, 111);
  for (int round = 0; round < 60; ++round) {
    for (uint32_t lpn = 16; lpn < 24; ++lpn) {
      ASSERT_TRUE(dev.WritePage(lpn, churn.data()).ok());
    }
  }
  ASSERT_GT(dev.stats().blocks_erased, 0u);
  std::vector<uint8_t> back(2048);
  for (uint32_t lpn = 0; lpn < 16; ++lpn) {
    ASSERT_TRUE(dev.ReadFullPage(lpn, back.data()).ok());
    EXPECT_EQ(back, PatternPage(2048, static_cast<uint8_t>(lpn * 3)))
        << "lpn " << lpn;
  }
}

TEST(FlashTest, StatsDeltaOperator) {
  FlashStats a, b;
  a.pages_read = 10;
  a.pages_written = 7;
  a.bytes_transferred = 1000;
  b.pages_read = 4;
  b.pages_written = 2;
  b.bytes_transferred = 300;
  auto d = a - b;
  EXPECT_EQ(d.pages_read, 6u);
  EXPECT_EQ(d.pages_written, 5u);
  EXPECT_EQ(d.bytes_transferred, 700u);
}

}  // namespace
}  // namespace ghostdb::flash
