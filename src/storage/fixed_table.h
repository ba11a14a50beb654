// Fixed-width row tables on flash, addressed by dense RowId.
//
// Two uses, both from the paper:
//  * Subtree Key Tables (section 3.2): one row per tuple of a non-leaf
//    table, holding the ids of the joined tuples in every descendant table;
//    the owning id is implicit in the row position (kept sorted on it), so
//    it needs no storage — exactly the paper's trick.
//  * Hidden table images T_iH (section 4): the hidden columns of each
//    table, sorted by id, read at projection time.
//
// Rows never straddle pages (rows_per_page = page_size / row_width), which
// keeps random access to one page read, and lets a reader that needs a few
// rows of a page transfer only their bytes (FixedTableReader::ReadRowsOnPage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::storage {

/// A finished fixed-width table.
struct FixedTableRef {
  RunRef run;                 ///< Page extents.
  uint32_t row_width = 0;     ///< Bytes per row.
  uint32_t rows_per_page = 0;
  uint64_t row_count = 0;
};

/// \brief Builds a fixed-width table by appending rows in id order.
class FixedTableBuilder {
 public:
  /// `buffer` is one flash page owned by the caller (host scratch at load
  /// time).
  FixedTableBuilder(flash::FlashDevice* device, PageAllocator* allocator,
                    uint8_t* buffer, uint32_t row_width, std::string tag);

  /// Appends the next row (row id = number of rows appended so far).
  Status AppendRow(const uint8_t* row);

  Result<FixedTableRef> Finish();

 private:
  flash::FlashDevice* device_;
  PageAllocator* allocator_;
  uint8_t* buffer_;
  uint32_t row_width_;
  std::string tag_;
  uint32_t page_size_;
  uint32_t rows_per_page_;
  uint32_t rows_in_page_ = 0;
  uint64_t row_count_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> extents_;
  uint32_t pages_used_ = 0;
  bool finished_ = false;

  Status FlushPage();
};

/// \brief Random/sequential row reader with a single cached page buffer.
///
/// Ascending ReadRow/RowSpan access (the common case: inputs sorted on id)
/// reads each touched page exactly once, whole, and skips pages with no
/// requested rows. ReadRowsOnPage is the page-batched alternative for
/// sparse access (the paper's SJoin): it transfers only the needed rows'
/// bytes, in as many spans as the device's cost model makes cheapest.
class FixedTableReader {
 public:
  /// `buffer` is one device RAM buffer.
  FixedTableReader(flash::FlashDevice* device, const FixedTableRef& ref,
                   uint8_t* buffer);

  /// Reads row `row` into `dst` (row_width bytes).
  Status ReadRow(catalog::RowId row, uint8_t* dst);

  /// A window of contiguous rows inside the cached page, starting at the
  /// requested row. Valid until the next ReadRow/RowSpan call.
  struct Span {
    const uint8_t* data = nullptr;  ///< first requested row's bytes
    uint32_t rows = 0;              ///< contiguous rows available from it
  };

  /// Loads (if needed) the page holding `row` and exposes it as a span, so
  /// sequential scans can run SIMD kernels over whole pages instead of
  /// copying row by row. Touches pages in exactly the order a row-by-row
  /// ascending scan would.
  Result<Span> RowSpan(catalog::RowId row);

  /// Reads bytes [col_begin, col_end) of every row of page `page` whose slot
  /// bit is set in `slots` (bit s of word s / 64 = row page * rows_per_page
  /// + s), leaving each at its page offset in the buffer: slot s's bytes at
  /// `buffer + s * row_width + col_begin`; other bytes are unspecified. Rows
  /// are read in ascending spans, one ReadPage each: two neighbouring rows
  /// share a span while transferring the gap between them costs less than
  /// a new register load (gap bytes x byte_transfer_latency <
  /// read_page_latency), so a page with every row set costs no more than a
  /// full-page read. A set slot at or past row_count is OutOfRange before
  /// anything is read.
  Status ReadRowsOnPage(uint32_t page, const std::vector<uint64_t>& slots,
                        uint32_t col_begin, uint32_t col_end);

  /// Number of page loads so far (a ReadRowsOnPage call counts once).
  uint64_t pages_touched() const { return pages_touched_; }

 private:
  flash::FlashDevice* device_;
  FixedTableRef ref_;
  uint8_t* buffer_;
  int64_t buffered_page_ = -1;
  uint64_t pages_touched_ = 0;
};

}  // namespace ghostdb::storage
