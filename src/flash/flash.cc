#include "flash/flash.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#include "crypto/chacha20.h"
#include "device/fault_injector.h"

namespace ghostdb::flash {

namespace {

constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();

// Derives a per-(physical page, epoch) nonce so rewrites never reuse
// keystream.
void PageNonce(uint32_t ppn, uint32_t epoch, uint8_t nonce[12]) {
  std::memset(nonce, 0, 12);
  for (int i = 0; i < 4; ++i) {
    nonce[i] = static_cast<uint8_t>(ppn >> (8 * i));
    nonce[4 + i] = static_cast<uint8_t>(epoch >> (8 * i));
  }
  nonce[8] = 0x67;  // domain separation tag "g"
}

}  // namespace

FlashStats FlashStats::operator-(const FlashStats& rhs) const {
  FlashStats d;
  d.pages_read = pages_read - rhs.pages_read;
  d.pages_written = pages_written - rhs.pages_written;
  d.bytes_transferred = bytes_transferred - rhs.bytes_transferred;
  d.blocks_erased = blocks_erased - rhs.blocks_erased;
  d.gc_page_copies = gc_page_copies - rhs.gc_page_copies;
  d.trims = trims - rhs.trims;
  return d;
}

// Physical page state tracked by the FTL.
enum class PageState : uint8_t { kFree, kValid, kDead };

struct FlashDevice::Impl {
  // Host copy of the NAND cells, indexed by logical page: page `lpn` holds
  // the bytes programmed at l2p[lpn]. An anonymous private mapping, so no
  // byte is touched at construction and only pages ever written become
  // resident; a rewrite lands on the bytes of the version it replaces.
  uint8_t* cells = nullptr;
  size_t cells_bytes = 0;
  std::vector<PageState> page_state;     // per physical page
  std::vector<uint32_t> l2p;             // logical -> physical (kUnmapped)
  std::vector<uint32_t> p2l;             // physical -> logical (kUnmapped)
  std::vector<uint32_t> page_epoch;      // per physical page write counter
  std::vector<uint32_t> block_erases;    // per block
  std::vector<uint32_t> block_valid;     // valid pages per block
  std::vector<uint32_t> free_blocks;     // fully erased blocks
  uint32_t frontier_block = kUnmapped;   // block currently being filled
  uint32_t frontier_next = 0;            // next page index within frontier
  uint32_t total_blocks = 0;
  std::optional<std::array<uint8_t, 32>> cipher_key;

  ~Impl() {
    if (cells != nullptr) munmap(cells, cells_bytes);
  }

  uint8_t* Cell(uint32_t lpn, uint32_t page_size) const {
    return cells + static_cast<uint64_t>(lpn) * page_size;
  }

  // XORs the keystream of physical page `ppn` at its current epoch over
  // `len` bytes of that page starting at `offset` (encrypt and decrypt are
  // the same operation). No-op without a key.
  void Crypt(uint32_t ppn, uint8_t* data, uint32_t len,
             uint32_t offset = 0) const {
    if (!cipher_key.has_value()) return;
    uint8_t nonce[12];
    PageNonce(ppn, page_epoch[ppn], nonce);
    crypto::ChaCha20(cipher_key->data(), nonce).Crypt(data, len, offset);
  }
};

FlashDevice::FlashDevice(FlashConfig config, SimClock* clock)
    : config_(config), clock_(clock), impl_(std::make_unique<Impl>()) {
  uint32_t logical_blocks =
      (config_.logical_pages + config_.pages_per_block - 1) /
      config_.pages_per_block;
  impl_->total_blocks = logical_blocks + config_.spare_blocks;
  uint64_t physical_pages =
      static_cast<uint64_t>(impl_->total_blocks) * config_.pages_per_block;
  impl_->cells_bytes =
      static_cast<size_t>(config_.logical_pages) * config_.page_size;
  if (impl_->cells_bytes > 0) {
    void* cells = mmap(nullptr, impl_->cells_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (cells == MAP_FAILED) throw std::bad_alloc();
    impl_->cells = static_cast<uint8_t*>(cells);
  }
  impl_->page_state.assign(physical_pages, PageState::kFree);
  impl_->l2p.assign(config_.logical_pages, kUnmapped);
  impl_->p2l.assign(physical_pages, kUnmapped);
  impl_->page_epoch.assign(physical_pages, 0);
  impl_->block_erases.assign(impl_->total_blocks, 0);
  impl_->block_valid.assign(impl_->total_blocks, 0);
  impl_->free_blocks.reserve(impl_->total_blocks);
  // All blocks start erased; keep block 0 as the first frontier.
  for (uint32_t b = impl_->total_blocks; b > 1; --b) {
    impl_->free_blocks.push_back(b - 1);
  }
  impl_->frontier_block = 0;
  impl_->frontier_next = 0;
  impl_->cipher_key = config_.cipher_key;
}

FlashDevice::~FlashDevice() = default;

const uint8_t* FlashDevice::StoredPage(uint32_t lpn) const {
  if (lpn >= config_.logical_pages || impl_->l2p[lpn] == kUnmapped) {
    return nullptr;
  }
  return impl_->Cell(lpn, config_.page_size);
}

uint32_t FlashDevice::max_block_erases() const {
  uint32_t max_erases = 0;
  for (uint32_t e : impl_->block_erases) max_erases = std::max(max_erases, e);
  return max_erases;
}

uint32_t FlashDevice::live_pages() const {
  uint32_t live = 0;
  for (uint32_t p : impl_->l2p) {
    if (p != kUnmapped) ++live;
  }
  return live;
}

Status FlashDevice::ReadPage(uint32_t lpn, uint8_t* dst, uint32_t offset,
                             uint32_t len) {
  if (lpn >= config_.logical_pages) {
    return Status::OutOfRange("flash read: logical page " +
                              std::to_string(lpn) + " out of range");
  }
  if (offset > config_.page_size || len > config_.page_size - offset) {
    return Status::InvalidArgument("flash read crosses page boundary");
  }
  if (injector_ != nullptr) {
    GHOSTDB_RETURN_NOT_OK(injector_->OnFlashOp(device::FaultSite::kFlashRead));
  }
  stats_.pages_read += 1;
  stats_.bytes_transferred += len;
  clock_->Advance(config_.read_page_latency +
                  static_cast<SimNanos>(len) * config_.byte_transfer_latency);

  uint32_t ppn = impl_->l2p[lpn];
  if (ppn == kUnmapped) {
    std::memset(dst, 0, len);
    return Status::OK();
  }
  std::memcpy(dst, impl_->Cell(lpn, config_.page_size) + offset, len);
  // Decrypt the needed slice only (the stream cipher gives random access).
  impl_->Crypt(ppn, dst, len, offset);
  return Status::OK();
}

Status FlashDevice::WritePage(uint32_t lpn, const uint8_t* src) {
  if (lpn >= config_.logical_pages) {
    return Status::OutOfRange("flash write: logical page " +
                              std::to_string(lpn) + " out of range");
  }
  if (injector_ != nullptr) {
    GHOSTDB_RETURN_NOT_OK(injector_->OnFlashOp(device::FaultSite::kFlashWrite));
  }

  // Ensure the frontier has a free page; garbage-collect if not.
  if (impl_->frontier_next == config_.pages_per_block) {
    auto advance_frontier = [&]() -> Status {
      // Advance to a fresh block from the free pool; GC when pool is dry.
      while (impl_->free_blocks.empty()) {
        // Pick the victim: fewest valid pages, wear-aware tie-break.
        uint32_t victim = kUnmapped;
        uint32_t best_valid = std::numeric_limits<uint32_t>::max();
        uint32_t best_erases = std::numeric_limits<uint32_t>::max();
        for (uint32_t b = 0; b < impl_->total_blocks; ++b) {
          if (b == impl_->frontier_block) continue;
          bool has_free = false;
          for (uint32_t i = 0; i < config_.pages_per_block && !has_free; ++i) {
            if (impl_->page_state[b * config_.pages_per_block + i] ==
                PageState::kFree)
              has_free = true;
          }
          if (has_free) continue;  // not fully programmed; skip
          uint32_t valid = impl_->block_valid[b];
          uint32_t erases = impl_->block_erases[b];
          if (valid < best_valid ||
              (valid == best_valid && erases < best_erases)) {
            victim = b;
            best_valid = valid;
            best_erases = erases;
          }
        }
        if (victim == kUnmapped) {
          return Status::ResourceExhausted("flash full: no GC victim");
        }
        if (best_valid >= config_.pages_per_block) {
          return Status::ResourceExhausted(
              "flash full: all blocks fully valid");
        }
        // Relocate the victim's valid pages into the victim itself: the
        // controller reads each into its data register, erases the block,
        // and programs them back into its first slots, a read and a program
        // per valid page. The host keeps a page's bytes at its logical page,
        // so relocation only remaps; under at-rest encryption it re-keys
        // each page from its old (ppn, epoch) to its new one.
        std::vector<uint32_t> moved;  // logical pages, in victim order
        for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
          uint32_t ppn = victim * config_.pages_per_block + i;
          if (impl_->page_state[ppn] != PageState::kValid) continue;
          stats_.pages_read += 1;
          stats_.gc_page_copies += 1;
          clock_->Advance(config_.read_page_latency);
          uint32_t logical = impl_->p2l[ppn];
          impl_->Crypt(ppn, impl_->Cell(logical, config_.page_size),
                       config_.page_size);
          moved.push_back(logical);
        }
        // Erase the victim.
        for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
          uint32_t ppn = victim * config_.pages_per_block + i;
          impl_->page_state[ppn] = PageState::kFree;
          impl_->p2l[ppn] = kUnmapped;
        }
        impl_->block_valid[victim] = 0;
        impl_->block_erases[victim] += 1;
        stats_.blocks_erased += 1;
        clock_->Advance(config_.erase_block_latency);
        uint32_t slot = 0;
        for (uint32_t logical : moved) {
          uint32_t ppn = victim * config_.pages_per_block + slot++;
          impl_->page_epoch[ppn] += 1;
          impl_->Crypt(ppn, impl_->Cell(logical, config_.page_size),
                       config_.page_size);
          impl_->page_state[ppn] = PageState::kValid;
          impl_->p2l[ppn] = logical;
          impl_->l2p[logical] = ppn;
          impl_->block_valid[victim] += 1;
          stats_.pages_written += 1;
          clock_->Advance(config_.write_page_latency);
        }
        // Remaining slots in the victim are free; if any exist the victim
        // becomes the next frontier candidate.
        if (impl_->block_valid[victim] < config_.pages_per_block) {
          impl_->free_blocks.push_back(victim);
          // Note: partially refilled; frontier logic below handles offset.
        }
      }
      uint32_t next = impl_->free_blocks.back();
      impl_->free_blocks.pop_back();
      impl_->frontier_block = next;
      // Find the first free page within the block (GC may have refilled a
      // prefix of it).
      uint32_t i = 0;
      while (i < config_.pages_per_block &&
             impl_->page_state[next * config_.pages_per_block + i] !=
                 PageState::kFree) {
        ++i;
      }
      impl_->frontier_next = i;
      return Status::OK();
    };
    Status advance_status = advance_frontier();
    if (!advance_status.ok()) return advance_status;
  }

  // Invalidate the previous version of this logical page.
  uint32_t old_ppn = impl_->l2p[lpn];
  if (old_ppn != kUnmapped) {
    impl_->page_state[old_ppn] = PageState::kDead;
    impl_->p2l[old_ppn] = kUnmapped;
    impl_->block_valid[old_ppn / config_.pages_per_block] -= 1;
  }

  uint32_t ppn =
      impl_->frontier_block * config_.pages_per_block + impl_->frontier_next;
  impl_->frontier_next += 1;

  stats_.pages_written += 1;
  stats_.bytes_transferred += config_.page_size;
  clock_->Advance(config_.write_page_latency +
                  static_cast<SimNanos>(config_.page_size) *
                      config_.byte_transfer_latency);

  uint8_t* cell = impl_->Cell(lpn, config_.page_size);
  std::memcpy(cell, src, config_.page_size);
  impl_->page_epoch[ppn] += 1;
  impl_->Crypt(ppn, cell, config_.page_size);
  impl_->page_state[ppn] = PageState::kValid;
  impl_->p2l[ppn] = lpn;
  impl_->l2p[lpn] = ppn;
  impl_->block_valid[impl_->frontier_block] += 1;
  return Status::OK();
}

Status FlashDevice::Trim(uint32_t lpn) {
  if (lpn >= config_.logical_pages) {
    return Status::OutOfRange("flash trim: logical page out of range");
  }
  uint32_t ppn = impl_->l2p[lpn];
  if (ppn != kUnmapped) {
    impl_->page_state[ppn] = PageState::kDead;
    impl_->p2l[ppn] = kUnmapped;
    impl_->block_valid[ppn / config_.pages_per_block] -= 1;
    impl_->l2p[lpn] = kUnmapped;
    stats_.trims += 1;
  }
  return Status::OK();
}

}  // namespace ghostdb::flash
