// Bulk-loaded B+-tree with multi-level posting lists: the Climbing Index of
// paper section 3.2.
//
// A climbing index on attribute Ti.a holds, for each distinct key, one
// sorted id-sublist per "level": level 0 is Ti itself, further levels are
// Ti's ancestors up to the root. A selection anywhere in the schema tree
// can thus deliver ids of any ancestor table in a single index traversal —
// no cascading lookups, no unions of per-step results.
//
// Layout on flash (all bulk-built bottom-up from sorted entries):
//  * one postings area per level: the concatenation, in key order, of the
//    per-key sorted sublists (4-byte ids, 512 per page);
//  * leaf pages: fixed-stride entries [key | per-level (start,count)] where
//    start/count locate the sublist inside the level's postings area;
//  * internal pages: [key | child page] separators.
//
// Query-time readers borrow device RAM buffers — one per tree level, as the
// paper prescribes ("CI requires at most one buffer per B+-Tree level") —
// and cache the current page per level, so sorted probe batches touch each
// page once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/stats.h"
#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"
#include "flash/flash.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::storage {

/// Locates one sublist inside a level's postings area.
struct PostingRange {
  uint32_t start = 0;  ///< Element offset (ids) into the postings area.
  uint32_t count = 0;
};

/// A finished climbing index.
struct BTreeRef {
  catalog::DataType key_type = catalog::DataType::kInt32;
  uint32_t key_width = 4;
  uint32_t levels = 1;          ///< 1 + number of ancestor levels.
  uint32_t height = 0;          ///< Tree levels including the leaf level.
  uint32_t root_page = 0;
  RunRef leaf_run;              ///< Leaf pages in key order.
  std::vector<RunRef> node_runs;  ///< Internal levels, bottom-up.
  std::vector<RunRef> postings;   ///< One postings area per level.
  uint64_t entry_count = 0;     ///< Distinct keys.
  std::vector<uint64_t> level_id_counts;  ///< Total ids per level.

  /// Total flash pages of the whole structure (for Fig 7 accounting).
  uint64_t total_pages() const;
};

/// \brief Bulk builder; keys must arrive strictly ascending.
class BTreeBuilder {
 public:
  /// `levels` counts the indexed table itself plus each ancestor.
  BTreeBuilder(flash::FlashDevice* device, PageAllocator* allocator,
               catalog::DataType key_type, uint32_t key_width,
               uint32_t levels, std::string tag);
  ~BTreeBuilder();

  /// Adds one distinct key with its per-level sorted id sublists
  /// (`level_ids[0]` = ids of the indexed table, then ancestors nearest
  /// first).
  Status Add(const catalog::Value& key,
             const std::vector<std::vector<catalog::RowId>>& level_ids);

  /// Builds internal levels and returns the finished index.
  Result<BTreeRef> Finish();

 private:
  Status FlushLeaf();

  flash::FlashDevice* device_;
  PageAllocator* allocator_;
  catalog::DataType key_type_;
  uint32_t key_width_;
  uint32_t levels_;
  std::string tag_;
  uint32_t page_size_;
  uint32_t leaf_stride_;
  uint32_t leaf_capacity_;

  std::vector<uint8_t> scratch_;                // one page
  std::vector<std::unique_ptr<RunWriter>> posting_writers_;
  std::vector<std::vector<uint8_t>> posting_buffers_;
  std::unique_ptr<RunWriter> leaf_writer_;
  std::vector<uint8_t> leaf_buffer_;

  std::vector<uint8_t> leaf_page_;              // page under construction
  uint32_t leaf_fill_ = 0;                      // entries in leaf_page_
  std::vector<std::vector<uint8_t>> separators_;  // first key per leaf
  std::vector<uint32_t> posting_cursor_;        // next free elem per level
  uint64_t entry_count_ = 0;
  std::vector<uint64_t> level_id_counts_;
  bool has_last_key_ = false;
  std::vector<uint8_t> last_key_;
};

/// One decoded leaf entry.
struct BTreeEntry {
  catalog::Value key;
  std::vector<PostingRange> ranges;  ///< One per level.
};

/// \brief Query-time reader. Borrows one RAM buffer per tree level and
/// caches the current page of each level, so repeated descents to nearby
/// keys cost no extra I/O (the paper's cost model).
class BTreeReader {
 public:
  /// Acquires `ref.height` buffers from `ram`; fails if RAM is exhausted.
  static Result<std::unique_ptr<BTreeReader>> Open(
      flash::FlashDevice* device, device::RamManager* ram,
      const BTreeRef* ref);

  /// Positions the cursor at the first entry with key >= `key`.
  /// Returns false if no such entry exists.
  Result<bool> SeekLowerBound(const catalog::Value& key);

  /// Positions the cursor at the first entry of the index.
  Result<bool> SeekToFirst();

  /// Entry under the cursor (cursor must be valid).
  Result<BTreeEntry> Current();

  /// Advances the cursor; returns false at the end.
  Result<bool> Next();

  bool cursor_valid() const { return cursor_valid_; }

  /// Pages read by this reader so far (diagnostics).
  uint64_t pages_loaded() const { return pages_loaded_; }

 private:
  BTreeReader(flash::FlashDevice* device, const BTreeRef* ref);

  Status LoadLevelPage(uint32_t level, uint32_t run_page_index);
  // Descends from the root, returns the leaf page index holding the lower
  // bound for `encoded_key` (or the last leaf if the key is past the end).
  Result<uint32_t> DescendToLeaf(const uint8_t* encoded_key);
  int CompareKeyAt(const uint8_t* entry_key, const uint8_t* needle) const;

  flash::FlashDevice* device_;
  const BTreeRef* ref_;
  device::RamGuard buffers_;      // height contiguous buffers
  std::vector<int64_t> loaded_page_;  // per level: run page index or -1
  uint64_t pages_loaded_ = 0;

  // Cursor state: current leaf page index + entry slot.
  bool cursor_valid_ = false;
  uint32_t cursor_leaf_ = 0;
  uint32_t cursor_slot_ = 0;
};

/// \brief Streams the ids of one PostingRange; one RAM buffer (or
/// sub-buffer window), partial page reads — only the bytes inside the range
/// and the window are transferred.
class PostingCursor {
 public:
  /// `window_bytes` = 0 means one full page; smaller values are the
  /// sub-buffer Merge alternative of section 3.4 (a multiple of 4, picked
  /// by exec::ChooseMergeAlternative).
  PostingCursor(flash::FlashDevice* device, const RunRef* area,
                PostingRange range, uint8_t* buffer,
                uint32_t window_bytes = 0);

  bool valid() const { return has_head_; }
  catalog::RowId head() const { return head_; }
  Status Prime();
  Status Advance();

 private:
  flash::FlashDevice* device_;
  const RunRef* area_;
  uint8_t* buffer_;
  uint32_t page_size_;
  uint32_t window_;
  uint32_t next_elem_;
  uint32_t remaining_;
  uint32_t window_first_elem_ = 0;  // absolute elem index of window start
  uint32_t window_elems_ = 0;       // elems buffered; 0 = nothing
  catalog::RowId head_ = 0;
  bool has_head_ = false;
};

}  // namespace ghostdb::storage
