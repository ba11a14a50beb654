// The Merge operator (paper sections 3.3-3.4): evaluates
//   (L1 ∩ L2 ∩ ... ∩ Lk)    where each Li = (Li1 ∪ Li2 ∪ ... ∪ Lij)
// over sorted id (sub)lists, in bounded RAM.
//
// Every flash-resident sublist/run is read into RAM. When the streams
// outnumber the buffers available, the paper gives Merge two alternatives:
// a REDUCTION PHASE (plan A: load as many ids of one group as fit in RAM,
// sort them, write them back as one sorted run, and repeat until the
// streams fit) and SUB-BUFFER SPLITTING (plan B: stream every list through
// a slice of a buffer, loading each page in several partial reads).
// ChooseMergeAlternative prices both from the flash latencies and picks the
// cheaper; MergeExec and the relational tail's sorter (ExternalRowSorter)
// both follow it. MergeExec has a third, the BITMAP UNION (plan C): when the
// merge level's id universe [0, N) fits in RAM as an N-bit map, a group of
// two or more flash streams is read once, page segment by page segment, into
// the map — nothing is written and no page segment is loaded twice — and
// the map joins the intersection as one sorted stream. MergeExec prices C
// against A/B over the same page loads and takes it only when cheaper.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"
#include "exec/id_source.h"
#include "flash/flash.h"
#include "storage/btree.h"
#include "storage/page_allocator.h"
#include "storage/run.h"

namespace ghostdb::exec {

/// One union group: sublists from climbing indexes, temporary sorted runs,
/// and/or an in-RAM sorted id list (a Vis stream).
struct MergeGroup {
  /// Climbing-index sublists: (postings area, range). Sorted individually.
  std::vector<std::pair<const storage::RunRef*, storage::PostingRange>>
      sublists;
  /// Temporary sorted runs (consumed and freed by Merge).
  std::vector<storage::RunRef> runs;
  /// In-RAM sorted ids (arrives via the dedicated comm buffer: no RAM
  /// buffer charge). At most one per group.
  std::vector<catalog::RowId> ram_ids;
  bool has_ram_ids = false;
  /// The id universe [0, iota_n): free, implicit ids (used when no
  /// predicate restricts the anchor path).
  catalog::RowId iota_n = 0;
  bool has_iota = false;

  size_t FlashStreams() const { return sublists.size() + runs.size(); }
};

/// Smallest sub-buffer window a merge reads a stream through: below it
/// the Merge-alternative rule reduces streams instead of narrowing windows.
inline constexpr uint32_t kMinSpillWindowBytes = 64;

/// The bytes of one sorted stream on flash: `bytes` bytes starting at byte
/// `offset` of its run or postings area (whose pages are page-aligned).
struct StreamSpan {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

/// What a merge's own reduction would do to bring its streams down to a
/// cap: the pages it programs (each read back once by the final merge)
/// and the spans of the streams left.
struct MergeReduction {
  bool feasible = true;  ///< false: the reduction cannot run (too few buffers)
  uint64_t pages_written = 0;
  std::vector<StreamSpan> streams;
};

/// The rule's pick: reduce until at most `stream_cap` streams remain, then
/// read each through `window_bytes` (0 = one full buffer per stream).
struct MergeAlternative {
  size_t stream_cap = 0;
  uint32_t window_bytes = 0;
  /// What the pick costs over reading every stream once through a full
  /// page: its rewrites plus its extra window loads. The largest SimNanos
  /// when neither plan can run (too few buffers).
  SimNanos cost = 0;
};

/// The paper's §3.4 choice for a merge of more sorted streams than its
/// `buffers` RAM buffers, made from stream sizes alone.
///   Plan A (full buffers): reduce down to `buffers` streams.
///   Plan B (windows): reduce only down to buffers * page / 64 streams,
///   then read every stream through w = floor(buffers * page / streams)
///   bytes, rounded down to 4 (the id width).
/// A plan costs its reduction's pages_written * (read + program + 2 page
/// transfers) plus, for B, one read latency per extra window load: over
/// each page segment of a stream's span, ceil(segment / w) - 1 — what
/// storage::RunReader and storage::PostingCursor load. `reduce(cap)`
/// describes the caller's reduction down to `cap` streams. Ties go to A.
/// `buffers` may be 0 when no stream is left to read.
MergeAlternative ChooseMergeAlternative(
    const flash::FlashConfig& flash, size_t buffers,
    const std::function<MergeReduction(size_t stream_cap)>& reduce);

/// Execution statistics (observable costs for tests and benches).
struct MergeStats {
  uint32_t reduction_rounds = 0;
  uint64_t reduction_ids_written = 0;
  uint64_t ids_emitted = 0;
  uint32_t peak_streams = 0;
  /// Sub-buffer window the streaming phase read each flash stream
  /// through (0 = one full buffer per stream).
  uint32_t window_bytes = 0;
  /// Groups unioned into an id bitmap (plan C) instead of streamed.
  uint32_t bitmap_groups = 0;
};

/// \brief RAM-bounded n-ary intersection-of-unions over sorted id streams.
class MergeExec {
 public:
  MergeExec(flash::FlashDevice* device, device::RamManager* ram,
            storage::PageAllocator* allocator)
      : device_(device), ram_(ram), allocator_(allocator) {}

  /// Runs the merge; emits ascending, deduplicated ids that appear in every
  /// group. Every id of the groups lies in `universe` = [0, N), the row
  /// count of the merge level's table (per-shard schema metadata, known to
  /// the PC as well). `reserve_buffers` RAM buffers are left free for
  /// downstream pipelined operators; the rest serve the groups: each group
  /// of two or more flash streams may be unioned into an N-bit map (plan C)
  /// while the maps fit beside one read buffer and the remaining groups'
  /// needs, and the remaining streams go through full buffers or sub-buffer
  /// windows as ChooseMergeAlternative picks. Of the feasible numbers of
  /// maps (fattest groups first), the one with the cheapest page loads plus
  /// rewrites wins; ties keep fewer maps. An id at or above N is Internal.
  /// Groups' temporary runs are freed.
  Status Run(std::vector<MergeGroup> groups, uint64_t universe,
             const std::function<Status(catalog::RowId)>& sink,
             uint32_t reserve_buffers = 0);

  const MergeStats& stats() const { return stats_; }

 private:
  /// Reduces `group` so it uses at most `target_streams` flash streams.
  Status ReduceGroup(MergeGroup* group, size_t target_streams);

  /// What reducing groups with these flash stream spans to `stream_cap`
  /// streams would write and leave (the dry run ChooseMergeAlternative
  /// prices).
  MergeReduction ModelReduction(std::vector<std::vector<StreamSpan>> spans,
                                size_t stream_cap) const;

  /// Plan C for one group: unions its flash streams into the zeroed
  /// `map` (at least `universe` bits) through `read_buf` (one buffer);
  /// frees the group's runs and empties its flash streams.
  Status BuildBitmap(MergeGroup* group, uint64_t universe, uint8_t* map,
                     uint8_t* read_buf);

  /// Final streaming phase: one full buffer per flash stream
  /// (`window_bytes` 0), or `usable_buffers` split into windows. `maps`
  /// holds each group's bitmap, if it has one.
  Status StreamingMerge(std::vector<MergeGroup>& groups,
                        std::vector<std::unique_ptr<IdSource>> maps,
                        const std::function<Status(catalog::RowId)>& sink,
                        uint32_t usable_buffers, uint32_t window_bytes);

  flash::FlashDevice* device_;
  device::RamManager* ram_;
  storage::PageAllocator* allocator_;
  MergeStats stats_;
};

}  // namespace ghostdb::exec
