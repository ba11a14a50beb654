// The memory-bounded sorting core behind the relational tail (SortOp's
// sort mode, HashGroupOp's sort-based overflow phases).
//
// Rows are fixed-width encoded cells with a trailing u32 arrival sequence
// (kSpillSeqWidth) that makes every RowComparator order total, so plain
// std::sort reproduces the operators' stable (arrival-order-ties)
// semantics. While the working set fits the relational-tail budget the
// sorter is a plain in-memory permutation sort; past it, each full
// generation is sorted and written to flash as a fixed-stride row run
// (storage::RunWriter under the paper's one-buffer discipline), and the
// result is pulled row-at-a-time through one heap merge over every run —
// O(budget) secure memory regardless of input size. When the runs
// outnumber the buffers the session can give the final merge, the
// Merge-alternative rule every k-way merge follows
// (ChooseMergeAlternative, exec/merge.h) picks the cheaper of the paper's
// two alternatives (§3.4) by the device's flash latencies: merge-down
// passes (MergeRowRunsBy rewrites the smallest runs into one) down to one
// full buffer per run, or fewer such passes and sub-buffer windows (each
// run streams through a slice of a buffer, so every page is loaded in
// several partial reads).
//
// Every flash page the sorter writes or reads (generation runs, merge-down
// passes, padding runs, the final merge's reads) is charged to one clock
// category, kSpillClockCategory, whatever the page tags of its runs
// (group-spill, group-arrival, sort-spill) say.
//
// Nothing here touches the channel: spill runs live on the device's own
// flash, so whether (and how much) a query spills is invisible to
// Untrusted — the transcript contract is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"
#include "exec/operator.h"
#include "exec/row_run.h"

namespace ghostdb::exec {

/// Simulated-clock category of all spill I/O.
inline constexpr const char* kSpillClockCategory = "sort-spill";

/// \brief External-memory sorter over fixed-width encoded rows.
///
/// Lifecycle: Add() every row, Finish(), then Next() until nullptr,
/// then Close() (the destructor cleans up best-effort if the stream is
/// abandoned early, e.g. by a LIMIT above).
class ExternalRowSorter {
 public:
  /// `row_width` includes the trailing arrival sequence. `budget_rows`
  /// bounds the in-memory generation (derived from visible inputs only).
  /// With `drop_key_duplicates`, rows equal under cmp's keys collapse to
  /// their first arrival — the sort-based DISTINCT.
  ExternalRowSorter(ExecContext* ctx, uint32_t row_width, RowComparator cmp,
                    uint64_t budget_rows, bool drop_key_duplicates,
                    std::string tag);
  ~ExternalRowSorter();

  ExternalRowSorter(const ExternalRowSorter&) = delete;
  ExternalRowSorter& operator=(const ExternalRowSorter&) = delete;

  /// Partial-aggregation hook: folds `row` into `acc_row` (both row_width
  /// bytes, equal under cmp's keys), combining their aggregate state in
  /// place. acc_row keeps its own non-aggregate bytes — in particular its
  /// (smaller) arrival sequence.
  using FoldFn = std::function<Status(uint8_t* acc_row, const uint8_t* row)>;

  /// Enables run-write-time folding: when a generation spills, key-equal
  /// adjacent rows collapse into one via `fold` before hitting flash, so a
  /// run carries at most one row per distinct key — the sort-spill analog
  /// of hash-side partial aggregation. Rows with equal keys from
  /// *different* runs (and the never-spilled in-memory path) still emerge
  /// adjacent from Next(); the consumer folds those on the way out.
  /// Mutually exclusive with drop_key_duplicates.
  void set_fold(FoldFn fold) { fold_ = std::move(fold); }

  /// Appends one row (row_width bytes). Past the budget: spills the
  /// current generation as one sorted run.
  Status Add(const uint8_t* row);

  /// Seals the input: sorts the tail generation and, if the sorter
  /// spilled, opens the final merge over its runs (after merge-down
  /// passes and/or through sub-buffer windows, as ChooseMergeAlternative
  /// picks, when they outnumber the fan-in).
  Status Finish();

  /// After Finish(): the next row in sorted order (valid until the next
  /// call), or nullptr at end of stream.
  Result<const uint8_t*> Next();

  /// Releases reader buffers and frees all remaining spill runs.
  Status Close();

  /// Seals a sorter abandoned before Finish() (a LIMIT above stopped
  /// pulling) and writes the dummy runs Finish() would have padded its
  /// real run count with. Buffered rows are dropped, never written.
  Status PadUnfinished();

  bool spilled() const { return !runs_.empty(); }
  /// True once Finish() ran (or PadUnfinished() sealed the sorter).
  bool finished() const { return finished_; }
  uint64_t budget_rows() const { return budget_rows_; }
  const SpillStats& stats() const { return stats_; }

 private:
  /// Sorts the current generation's permutation under the total order.
  void SortGeneration();
  /// Sorts and writes the current generation as one run, then resets it.
  Status SpillGeneration();
  /// The sorter's reduction as ChooseMergeAlternative prices it: what
  /// MergeRowRunsBy would write merging runs_ down to `stream_cap` runs
  /// with `free_buffers` free, and the runs it would leave.
  MergeReduction ModelMergeDown(size_t stream_cap,
                                uint32_t free_buffers) const;
  /// Volume defense (ExecConfig::pad_spill_runs): writes one-row dummy
  /// runs until the total run count reaches the padding mode's target —
  /// next power of two of the real count (kQuantize) or the visible
  /// worst-case generation count ceil(padding_row_bound / budget_rows)
  /// (kWorstCase; the bound is the anchor's visible row count, see
  /// ExecContext::padding_row_bound). Dummies are never read or merged and
  /// are freed in Close(); they reduce the resolution of the per-sorter
  /// spill-count side channel (CloseSorterPhase pads phases that never
  /// finished too). The sorter sees at most one row per anchor row, so its
  /// generation count never exceeds the kWorstCase target and the padded
  /// total equals it exactly — unless the final merge ran merge-down
  /// passes (the rule found them cheaper than windows, or windows would
  /// be under kMinSpillWindowBytes), whose extra runs still show; the
  /// volume channel, not this one, carries the strict guarantee.
  Status PadSpillRuns();
  const uint8_t* GenRow(uint32_t index) const {
    return arena_.data() + static_cast<size_t>(index) * row_width_;
  }

  ExecContext* ctx_;
  uint32_t row_width_;
  RowComparator cmp_;
  uint64_t budget_rows_;
  bool dedup_;
  FoldFn fold_;  ///< run-write partial fold (null = write rows verbatim)
  std::string tag_;

  std::vector<uint8_t> arena_;  ///< current generation, row-major
  uint32_t gen_rows_ = 0;
  std::vector<uint32_t> perm_;  ///< sorted order of the generation
  std::vector<storage::RunRef> runs_;
  std::vector<storage::RunRef> dummy_runs_;  ///< spill-count padding
  SpillStats stats_;
  bool finished_ = false;
  bool closed_ = false;

  // Emission state (after Finish()).
  size_t emit_pos_ = 0;                     // in-memory mode cursor
  device::RamGuard reader_bufs_;  // one buffer, or one window, per run
  std::optional<RowRunMerger> merger_;      // over every run
  std::vector<uint8_t> current_;            // merge-mode output row
  std::vector<uint8_t> last_emitted_;       // dedup reference
  bool have_last_ = false;
};

/// Close-time end of one sorter phase of a relational-tail operator, and
/// the one spill-run padding rule (ExecConfig::pad_spill_runs): with
/// `may_pad`, a phase that did not reach Finish() — never created
/// (`sorter` null: the live input never tripped the budget, or was empty)
/// or abandoned by a LIMIT above — first writes the padded dummy-run
/// signature a finished sorter would have, which would otherwise
/// distinguish it on flash from an input that spilled and padded. `stride`
/// must be the row width the real sorter uses — a pure function of the
/// visible plan, never of the live row count. Then folds the sorter's
/// spill work into ctx->metrics and frees its runs. Called only from
/// Operator::Close(), never from a destructor.
Status CloseSorterPhase(ExecContext* ctx, ExternalRowSorter* sorter,
                        bool may_pad, uint32_t stride,
                        const std::string& tag);

}  // namespace ghostdb::exec
