// Sequential byte runs on flash: the storage primitive behind postings
// areas, temporary merge runs, and materialized intermediate results.
//
// Writers and readers operate through an externally supplied page buffer:
// at query time that buffer comes from the device's RamManager, so the
// paper's "one buffer per (sub)list" RAM discipline is enforced by
// construction; at build time the database owner's host supplies scratch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash.h"
#include "storage/page_allocator.h"

namespace ghostdb::storage {

/// A finished run: an ordered list of logical page extents holding `bytes`
/// bytes. Runs are usually one contiguous extent, but may fragment when the
/// free list is fragmented; page lookup stays O(#extents), which is small.
struct RunRef {
  std::vector<std::pair<uint32_t, uint32_t>> extents;  ///< (first, count)
  uint64_t bytes = 0;
  std::string tag;  ///< allocator accounting tag (set by the writer)

  bool empty() const { return bytes == 0; }
  uint32_t page_count() const {
    uint32_t n = 0;
    for (const auto& e : extents) n += e.second;
    return n;
  }
  /// Logical page number of the idx-th page of the run.
  uint32_t PageAt(uint32_t idx) const {
    for (const auto& e : extents) {
      if (idx < e.second) return e.first + idx;
      idx -= e.second;
    }
    return 0;  // callers never index past page_count()
  }
};

/// \brief Appends bytes to freshly allocated pages.
///
/// Abandoning a writer mid-run — an Append/Finish error, or simply going
/// out of scope without Finish() — reclaims every extent it still holds
/// (the destructor runs Abort()), so a torn run write cannot leak flash
/// pages. Finish() moves the extents into the returned RunRef, after which
/// the destructor is a no-op.
class RunWriter {
 public:
  /// `buffer` must hold one flash page and stays owned by the caller.
  RunWriter(flash::FlashDevice* device, PageAllocator* allocator,
            uint8_t* buffer, std::string tag);

  /// Frees any extents still held (best-effort; see Abort()).
  ~RunWriter();

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  /// Appends raw bytes.
  Status Append(const uint8_t* data, size_t len);

  /// Appends one little-endian 32-bit value (ids).
  Status AppendU32(uint32_t v);

  /// Flushes the tail page and returns the run. The writer must not be
  /// reused afterwards.
  Result<RunRef> Finish();

  /// Releases every page extent allocated so far back to the allocator and
  /// resets the writer to empty. Safe to call at any point (idempotent);
  /// the abandoned-run cleanup path after a failed spill.
  Status Abort();

 private:
  Status FlushPage();

  flash::FlashDevice* device_;
  PageAllocator* allocator_;
  uint8_t* buffer_;
  std::string tag_;
  uint32_t page_size_;
  std::vector<std::pair<uint32_t, uint32_t>> extents_;  // (first, count)
  uint32_t pages_used_ = 0;
  uint32_t fill_ = 0;
  uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// \brief Sequential reader over a RunRef.
class RunReader {
 public:
  /// `buffer` must hold `window_bytes` bytes (default: one flash page);
  /// reads are charged per page-load with the partial-transfer cost model.
  /// Smaller windows are the paper's sub-buffer Merge alternative, which
  /// exec::ChooseMergeAlternative picks when it is cheaper: more page
  /// loads (ceil(bytes on the page / window) each), fewer bytes per load.
  RunReader(flash::FlashDevice* device, RunRef ref, uint8_t* buffer,
            uint32_t window_bytes = 0);

  /// Reads up to `len` bytes; returns the number actually read (0 at end).
  Result<size_t> Read(uint8_t* dst, size_t len);

  /// Skips forward; pages that are skipped entirely are never read.
  Status Skip(uint64_t bytes);

  uint64_t remaining() const { return ref_.bytes - position_; }
  bool exhausted() const { return position_ >= ref_.bytes; }

 private:
  Status EnsureWindow();

  flash::FlashDevice* device_;
  RunRef ref_;
  uint8_t* buffer_;
  uint32_t page_size_;
  uint32_t window_;
  uint64_t position_ = 0;
  uint64_t window_start_ = 0;  // absolute byte offset of the buffered window
  uint64_t window_end_ = 0;    // exclusive; 0 = nothing buffered
};

/// \brief Stream of 4-byte row ids over a run, with one-id lookahead —
/// the shape the Merge operator consumes.
class IdRunReader {
 public:
  IdRunReader(flash::FlashDevice* device, RunRef ref, uint8_t* buffer,
              uint32_t window_bytes = 0)
      : reader_(device, std::move(ref), buffer, window_bytes) {}

  /// True if an id is available via head().
  bool valid() const { return has_head_; }
  catalog::RowId head() const { return head_; }

  /// Loads the first id; must be called once before use.
  Status Prime();

  /// Advances to the next id (invalidates at end of run).
  Status Advance();

 private:
  RunReader reader_;
  catalog::RowId head_ = 0;
  bool has_head_ = false;
};

/// Releases a run's pages back to the allocator (trims flash). The run's
/// own tag is used for accounting; `fallback_tag` applies only to runs that
/// carry none.
Status FreeRun(PageAllocator* allocator, const RunRef& ref,
               const std::string& fallback_tag);

}  // namespace ghostdb::storage
