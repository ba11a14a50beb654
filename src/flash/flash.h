// I/O-accurate NAND flash simulator with a Flash Translation Layer.
//
// Reproduces the cost model of the Gemalto smart-USB-key simulator the paper
// used (section 6.1, Table 1):
//   * pages of 2048 bytes, the I/O unit with the flash module;
//   * reading a page = 25 us (page -> data register) + 50 ns per byte
//     actually transferred to RAM, i.e. 25..127 us;
//   * programming a page = 200 us (+ the same 50 ns/byte register fill), so
//     the write/read cost ratio spans roughly 2.5x..12x as in section 2.3;
//   * updates are out-of-place: the FTL remaps logical pages, garbage
//     collects dead pages and wear-levels erases, and all of its own I/O is
//     counted, exactly as the paper's simulator did.
//
// The external NAND chip sits outside the tamper-resistant perimeter
// (Fig 2), so page payloads are transparently encrypted (ChaCha20, keyed per
// physical page + write epoch) when a cipher key is configured. Crypto costs
// no *simulated* time: the paper's model neglects CPU cost (section 3.4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/units.h"

namespace ghostdb::device {
class FaultInjector;
}  // namespace ghostdb::device

namespace ghostdb::flash {

/// Geometry and timing of the simulated NAND device (Table 1 defaults).
struct FlashConfig {
  uint32_t page_size = 2048;        ///< Bytes per page (I/O unit).
  uint32_t pages_per_block = 64;    ///< Pages per erase block.
  uint32_t logical_pages = 256 * 1024;  ///< Logical capacity (512 MiB default).
  uint32_t spare_blocks = 16;       ///< Over-provisioned blocks for the FTL.
  SimNanos read_page_latency = 25 * kMicrosecond;   ///< Page -> data register.
  SimNanos write_page_latency = 200 * kMicrosecond; ///< Program time.
  SimNanos byte_transfer_latency = 50;              ///< Register <-> RAM, per byte.
  SimNanos erase_block_latency = 1500 * kMicrosecond;  ///< Block erase.
  /// At-rest encryption key for page payloads; disabled when nullopt.
  std::optional<std::array<uint8_t, 32>> cipher_key;
};

/// Counters exposed by the simulator; exact, not sampled.
struct FlashStats {
  /// Page-to-register loads (incl. FTL's): one per ReadPage call, so a
  /// reader that transfers several byte spans of one page (SJoin's span
  /// reads) counts each span, while bytes_transferred counts only the
  /// bytes those spans carry.
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;     ///< Page programs (incl. GC copies).
  uint64_t bytes_transferred = 0; ///< Register <-> RAM traffic in bytes.
  uint64_t blocks_erased = 0;
  uint64_t gc_page_copies = 0;    ///< Valid pages relocated by GC.
  uint64_t trims = 0;             ///< Logical pages invalidated by callers.

  FlashStats operator-(const FlashStats& rhs) const;
};

/// \brief NAND flash device behind an FTL: a flat logical page space with
/// read/write/trim, exact I/O accounting, and simulated-time charging.
class FlashDevice {
 public:
  FlashDevice(FlashConfig config, SimClock* clock);
  ~FlashDevice();

  FlashDevice(const FlashDevice&) = delete;
  FlashDevice& operator=(const FlashDevice&) = delete;

  /// Reads `len` bytes starting at byte `offset` within logical page `lpn`.
  /// Charges read latency + per-byte transfer for exactly `len` bytes (the
  /// paper's partial-page read cost). Reading a never-written page yields
  /// zero bytes.
  Status ReadPage(uint32_t lpn, uint8_t* dst, uint32_t offset, uint32_t len);

  /// Reads a whole page.
  Status ReadFullPage(uint32_t lpn, uint8_t* dst) {
    return ReadPage(lpn, dst, 0, config_.page_size);
  }

  /// Programs a full logical page (out-of-place; the FTL remaps and may
  /// trigger garbage collection, whose I/O is charged to the caller).
  Status WritePage(uint32_t lpn, const uint8_t* src);

  /// Declares a logical page's content dead (free for GC).
  Status Trim(uint32_t lpn);

  const FlashConfig& config() const { return config_; }
  const FlashStats& stats() const { return stats_; }
  SimClock* clock() const { return clock_; }

  /// The bytes logical page `lpn` occupies on the NAND cells (ciphertext when
  /// a key is configured): what a probe outside the secure perimeter reads.
  /// Null for an unmapped page. Charges nothing.
  const uint8_t* StoredPage(uint32_t lpn) const;

  /// Number of physical erases of the most-erased block (wear indicator).
  uint32_t max_block_erases() const;
  /// Number of live (mapped) logical pages.
  uint32_t live_pages() const;

  /// Optional fault source consulted at the top of ReadPage/WritePage
  /// (after argument validation, before any cost is charged). Owned by the
  /// enclosing SecureDevice; may be null (standalone flash tests).
  void set_fault_injector(device::FaultInjector* injector) {
    injector_ = injector;
  }
  device::FaultInjector* fault_injector() const { return injector_; }

 private:
  struct Impl;

  FlashConfig config_;
  SimClock* clock_;
  FlashStats stats_;
  device::FaultInjector* injector_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ghostdb::flash
