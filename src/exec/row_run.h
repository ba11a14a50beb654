// Fixed-stride row runs on flash: materialized intermediate results such as
// the SJoin output F' (<id_anchor, id_Ti, ...> rows) and the per-table
// projection outputs (<pos, vlist, hlist> rows), plus the sorted spill runs
// of the memory-bounded relational tail (SortOp, HashGroupOp). Rows are
// packed back-to-back across page boundaries (streamed sequentially, never
// random-accessed). Id-space runs lead with a 4-byte sort key (anchor id or
// position); spill runs order by a RowComparator over encoded value cells
// and end in a 4-byte arrival sequence. A reader streams its run through
// one page buffer or, when more runs must stream at once than there are
// buffers, through a smaller window; RowRunMerger merges any number of
// readers, MergeRowRunsBy rewrites runs into fewer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::exec {

/// Width of the trailing u32 arrival-sequence field of a relational-tail
/// spill row (the stable-sort tie-break). The tail numbers at most one row
/// per anchor row, and anchor rows are counted by catalog::RowId, so a
/// RowId-wide sequence cannot wrap; the operators still fail with Internal
/// rather than wrap if one ever would.
inline constexpr uint32_t kSpillSeqWidth = 4;
static_assert(kSpillSeqWidth == sizeof(catalog::RowId),
              "the arrival sequence numbers at most one row per anchor row");

/// \brief Ordering over fixed-stride encoded rows: a list of typed key
/// cells (compared via catalog::CompareEncoded, each ASC or DESC) plus an
/// optional trailing arrival-sequence field (u32, always ascending) that
/// makes the order total and keeps ties stable across spill generations.
/// The id-space runs (SJoin output, projection position lists) order by
/// their leading u32 instead.
class RowComparator {
 public:
  struct Key {
    uint32_t offset = 0;  ///< byte offset of the cell within the row
    catalog::DataType type = catalog::DataType::kInt32;
    uint32_t width = 4;
    bool descending = false;
  };

  /// The id-space order: ascending on the leading 4-byte key.
  static RowComparator LeadingU32();

  /// Value-space order: `keys` in sequence, then the u32 arrival sequence
  /// at `seq_offset` ascending (pass kNoSeq for none).
  static RowComparator ByKeys(std::vector<Key> keys, uint32_t seq_offset);

  static constexpr uint32_t kNoSeq = UINT32_MAX;

  /// Three-way comparison on the declared keys only (no tie-break) — what
  /// duplicate dropping considers "the same row".
  int CompareKeys(const uint8_t* a, const uint8_t* b) const;

  /// Total order: keys, then the arrival sequence (or the leading u32).
  int Compare(const uint8_t* a, const uint8_t* b) const;

 private:
  std::vector<Key> keys_;
  bool leading_u32_ = false;
  uint32_t seq_offset_ = kNoSeq;
};

/// Flash work done by the spill machinery, folded into
/// QueryMetrics::sort_spill_{runs,pages} by the owning operator.
struct SpillStats {
  uint64_t runs_written = 0;   ///< RunWriter::Finish calls (spills + merges)
  uint64_t pages_written = 0;  ///< flash pages those runs occupy
  /// Of pages_written, the pages MergeRowRunsBy's merge-down rounds wrote.
  uint64_t merge_pages_written = 0;
  /// Dummy runs/pages written only to pad the run count toward the volume
  /// defense's target (ExecConfig::pad_spill_runs); never read or merged,
  /// freed with the real runs.
  uint64_t padding_runs_written = 0;
  uint64_t padding_pages_written = 0;
};

/// \brief Streams fixed-stride rows out of a run, with lookahead on the
/// leading 4-byte key.
///
/// `buffer` holds `window_bytes` bytes (0 = one full page). A window
/// smaller than a page is the paper's sub-buffer alternative: each page is
/// loaded in several partial reads, so more runs stream from the same
/// buffers. Rows may straddle windows and pages.
class RowRunReader {
 public:
  RowRunReader(flash::FlashDevice* device, storage::RunRef ref,
               uint32_t row_width, uint8_t* buffer, uint32_t window_bytes = 0)
      : reader_(device, std::move(ref), buffer, window_bytes),
        row_width_(row_width) {
    row_.resize(row_width);
  }

  Status Prime() { return Advance(); }
  bool valid() const { return has_row_; }
  /// Leading u32 of the current row (anchor id or position).
  catalog::RowId key() const { return DecodeFixed32(row_.data()); }
  const uint8_t* row() const { return row_.data(); }
  uint32_t row_width() const { return row_width_; }

  Status Advance() {
    GHOSTDB_ASSIGN_OR_RETURN(size_t n, reader_.Read(row_.data(), row_width_));
    if (n == row_width_) {
      has_row_ = true;
    } else if (n == 0) {
      has_row_ = false;
    } else {
      return Status::Corruption("torn row in row run");
    }
    return Status::OK();
  }

 private:
  storage::RunReader reader_;
  uint32_t row_width_;
  std::vector<uint8_t> row_;
  bool has_row_ = false;
};

/// \brief k-way merge over RowRunReaders: a binary min-heap ordered by
/// (row under the comparator, input index). The index tie-break makes
/// rows equal under the comparator (LeadingU32 key ties) pop from the
/// lowest-index input first, so the output order is fully determined.
class RowRunMerger {
 public:
  /// `cmp` must outlive the merger.
  explicit RowRunMerger(const RowComparator* cmp) : cmp_(cmp) {}

  /// Primes `reader` and joins it as the next input index.
  Status Add(std::unique_ptr<RowRunReader> reader);

  bool done() const { return heap_.empty(); }
  /// The smallest current row (valid until the next Pop()).
  const uint8_t* top() const { return readers_[heap_.front()]->row(); }
  /// Advances past top().
  Status Pop();

 private:
  bool Less(uint32_t a, uint32_t b) const;
  void SiftDown(size_t pos);

  const RowComparator* cmp_;
  std::vector<std::unique_ptr<RowRunReader>> readers_;
  std::vector<uint32_t> heap_;  ///< indices of readers with a row
};

/// One MergeRowRunsBy round's inputs, given the runs' page counts
/// (pages.size() > target_count, free_buffers >= 3): the indices, in
/// ascending order, of the min(free_buffers - 1, excess + 1) runs with the
/// fewest pages (earliest first among equals), excess = pages.size() -
/// target_count.
std::vector<size_t> PickMergeDownRuns(const std::vector<uint64_t>& pages,
                                      size_t target_count,
                                      uint32_t free_buffers);

/// Merges row runs (each sorted under `cmp`) down to at most `target_count`
/// runs, within the current free-buffer budget. Each round merges the
/// minimal number of runs that reaches the target (never more than the
/// free buffers allow), choosing the smallest runs by page count so the
/// pages rewritten per round are as few as possible. Consumed runs are
/// freed under `tag`. With `drop_key_duplicates`, rows comparing equal on the
/// declared keys collapse to the earliest (smallest tie-break) one — the
/// sort-based grouping of rows with no aggregate state. `stats` (optional) accumulates the flash work.
Status MergeRowRunsBy(flash::FlashDevice* device, device::RamManager* ram,
                      storage::PageAllocator* allocator,
                      std::vector<storage::RunRef>* runs, uint32_t width,
                      size_t target_count, const std::string& tag,
                      const RowComparator& cmp, bool drop_key_duplicates,
                      SpillStats* stats = nullptr);

}  // namespace ghostdb::exec
