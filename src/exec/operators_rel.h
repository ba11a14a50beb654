// Value-space operators above the projection: grouping (HashGroupOp:
// DISTINCT, GROUP BY, whole-result aggregates), ORDER BY with optional
// fused LIMIT (SortOp), LIMIT, and the volume-padding root. For a
// statement that touches hidden data these run entirely on the Secure
// side — result rows never cross the channel — so they add no observable
// behavior that could depend on Hidden data; for a visible-only statement
// Untrusted runs the same operators over visible rows (RunUntrustedTail)
// and VisResultOp receives their output on the key. All of
// them work on the encoded columns of ColumnBatch: grouping hashes
// canonical encoded key bytes, Sort compares encoded sort keys
// (catalog::CompareEncoded), Limit and streamed groups drop rows through
// the selection vector without copying cells.
//
// The blocking operators (HashGroupOp, SortOp) are memory-bounded: their
// working set is capped by the relational-tail budget the executor derives
// from the session's RAM partition (ExecContext::sort_budget_bytes). Past
// the budget they spill sorted runs to flash and stream the result back
// through ExternalRowSorter — secure memory stays O(budget) no matter how
// many rows the hidden predicates let through.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/aggregate.h"
#include "exec/operator.h"
#include "exec/spill_sort.h"

namespace ghostdb::exec {

/// Transparent hashing so hash containers over owned string keys can be
/// probed with a string_view (no copy per lookup).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// \brief Gather-leg source of a sharded scatter-gather over a row-boundary
/// plan: emits the seq-merged union of the per-shard projection outputs
/// (ExecContext::gather_rows), batch-wise in the merged stream's layout, so
/// the unmodified relational tail above runs once over the exact
/// single-device global row stream. Honors rows_demanded like the
/// projection (undemanded rows stay counted via skipped_rows) and surfaces
/// the shards' own demand-skipped counts once at end of stream.
class GatherSourceOp final : public Operator {
 public:
  explicit GatherSourceOp(ExecContext* ctx) : Operator(ctx) {}
  std::string_view name() const override { return "GatherSource"; }
  Result<ColumnBatch> Next() override;

 private:
  std::vector<uint32_t> offsets_;  ///< per-column offsets in a merged row
  uint64_t pos_ = 0;               ///< next merged row to emit
  uint64_t emitted_ = 0;           ///< rows materialized so far
  bool done_ = false;
};

/// \brief The key's one operator in a visible-only plan
/// (plan::BuildVisibleOnlyPlan): requests the statement's final rows —
/// which Untrusted computed by running the plan's nodes below this one
/// (RunUntrustedTail) — as one `vis-result:<T>` message, decodes the bytes
/// that crossed, and emits them in the tail's output layout. Each row is
/// [key(4) | cells] (VisResultWireLayout). With `keyed_by_id` the key is
/// the row's anchor id and anchor-id SELECT items are read from it;
/// otherwise it is the row's position. The codec rejects keys that do not
/// ascend strictly and positions other than 0..n-1 — on a scatter leg,
/// positions that are not consecutive (the coordinator checks that the
/// legs' ranges tile, CheckVisResultRanges). Scatter legs stamp each
/// row's key as its seq, so the gather concatenates the ranges by key.
/// Honors rows_demanded like the projection.
class VisResultOp final : public Operator {
 public:
  VisResultOp(ExecContext* ctx, bool keyed_by_id)
      : Operator(ctx), keyed_by_id_(keyed_by_id) {}
  std::string_view name() const override { return "VisResult"; }
  Status Open() override;
  Result<ColumnBatch> Next() override;

 private:
  bool keyed_by_id_;
  BatchLayout layout_;  ///< the tail's output layout
  /// Per output column: its byte offset in a decoded wire row, or -1 when
  /// the cell is the key.
  std::vector<int64_t> cell_offsets_;
  device::WireRows rows_;
  uint32_t row_width_ = 0;  ///< of a decoded wire row
  uint64_t pos_ = 0;        ///< next decoded row to emit
  uint64_t emitted_ = 0;    ///< rows materialized so far
};

/// True when output column `i` of a visible-only `query` is its row's
/// key: an anchor-id SELECT item of rows keyed by the anchor id.
bool IsVisResultKeyCell(const sql::BoundQuery& query, size_t i,
                        bool keyed_by_id);

/// Row layout of the `vis-result` message of visible-only `query` over
/// projection layout `value_layout`: after the 4-byte key, one column per
/// output column of the tail, leaving out the key cells
/// (IsVisResultKeyCell). Both ends derive it from the visible query.
device::WireLayout VisResultWireLayout(const sql::BoundQuery& query,
                                       const BatchLayout& value_layout,
                                       bool keyed_by_id);

/// \brief The one grouping operator: DISTINCT, GROUP BY, and whole-result
/// aggregates. The binder rejects DISTINCT combined with aggregates or
/// GROUP BY, so every grouping node consumes the projection's value layout
/// and splits it without a mode: key columns are the select items with
/// agg == kNone, every other item is an aggregate. DISTINCT is "all keys,
/// no aggregates", a whole-result aggregate is "no keys", GROUP BY is
/// mixed. Groups are emitted in first-arrival order. Everything happens on
/// the Secure side after the projection, so grouping adds no observable
/// behavior.
///
/// While the group table fits the relational-tail budget this is a
/// streaming hash phase: groups are keyed by the concatenated canonical
/// encoded bytes of the key cells (heterogeneous string_view lookup — only
/// genuinely new groups allocate), and rows of known groups fold into their
/// Aggregators in O(1) extra memory. Past the budget the group table
/// freezes: rows of frozen groups keep folding in place, rows of new groups
/// reroute through ExternalRowSorter sort-based grouping — packed as
/// single-row *partial-aggregate* spill rows (key cells + per-aggregate
/// encoded partial state + arrival seq). Phase A sorts them by key and
/// collapses key-equal rows at run-write time (set_fold, or
/// drop_key_duplicates when there is no aggregate state), so each spill run
/// carries at most one row per group; the drain folds the per-run partials
/// again, renders each group, and phase B re-sorts by first-arrival
/// sequence. Every frozen group's first arrival precedes every rerouted
/// group's, so the concatenated output (frozen groups, then rerouted ones)
/// is byte-identical to the pure hash path's. (Integer-SUM overflow is
/// detected on partial subtotals rather than per input row, so a transient
/// mid-group overflow that cancels within one spill segment no longer
/// errors; the keyless group never spills, so its overflow check stays
/// per row.)
///
/// Two rules follow from the split:
///  * No keys: the one group exists from Open(); rows fold straight into
///    it with no key extraction or hash lookup. It is never charged to the
///    budget, so it never spills or pads.
///  * No aggregates, rendering rows: a new group is complete when its
///    first row arrives, which leaves at once as a copy-free selection on
///    the input batch; only its index key stays resident, charged at its
///    key bytes. So DISTINCT and GROUP BY without aggregates stream.
/// A group is emitted unless an input-requiring aggregate (SUM/AVG/MIN/MAX)
/// saw no input — GhostDB has no NULLs; only a keyless group can be empty.
///
/// Sharded fleets run this operator only on the gather, over the
/// seq-merged rows of every leg — the exact row order of a single device —
/// so its groups, spills, answers and errors are a single device's.
class HashGroupOp final : public Operator {
 public:
  explicit HashGroupOp(ExecContext* ctx) : Operator(ctx) {}
  std::string_view name() const override { return "HashGroup"; }
  Status Open() override;
  Result<ColumnBatch> Next() override;
  Status Close() override;

  /// The grouping output layout over projection layout `in`: key cells
  /// keep their input encoding; MIN/MAX keep the input encoding too
  /// (strings keep their declared width) and COUNT/SUM/AVG emit fixed
  /// numerics. Equals `in` for a query without aggregates. A pure function
  /// of the visible query shape, so it also sizes the spill-run padding of
  /// a sort above — never a live batch, which an empty hidden-filtered
  /// stream would not bind.
  static BatchLayout OutputLayout(const sql::BoundQuery& query,
                                  const BatchLayout& in);

 private:
  /// One held group: the raw key cells of its first-arrival row (what the
  /// group's output row shows) and one accumulator per aggregate select
  /// item.
  struct Group {
    std::vector<uint8_t> key_cells;
    std::vector<Aggregator> aggs;
  };

  /// Fresh accumulators, one per aggregate select item.
  std::vector<Aggregator> MakeAggregators() const;
  /// Folds one live input row into a group's accumulators.
  Status AccumulateInto(Group* g, const ColumnBatch& batch, uint32_t row);
  /// The hash phase over one keyed input batch. In streaming mode the rows
  /// that open a new group are appended to `fresh`.
  Status Absorb(const ColumnBatch& batch, std::vector<uint32_t>* fresh);
  /// Enters spill mode: new-group rows flow through sort-based grouping.
  void StartSpill();
  /// Packs one input row as a single-row partial spill row into row_buf_:
  /// key cells, per-aggregate EncodePartial state, arrival sequence.
  Status PackPartialRow(const ColumnBatch& batch, uint32_t row, uint32_t seq);
  /// ExternalRowSorter fold hook: merges `row`'s per-item partial state
  /// into `acc`'s (keys equal; acc keeps its own smaller sequence).
  Status FoldPartialRow(uint8_t* acc, const uint8_t* row);
  /// Seals phase A, drains it in key order folding key-adjacent partials
  /// into phase B (first-arrival order), and seals phase B. Phase A's
  /// flash is freed before returning.
  Status FinishSpill();
  /// Renders one fully folded partial spill row as an output-layout row +
  /// first-arrival sequence and hands it to phase B.
  Status FlushSpillGroup(const uint8_t* partial);
  /// Streams the held output: hash groups first, then spilled ones.
  Result<ColumnBatch> Emit();

  std::vector<size_t> key_items_;  ///< select indexes with agg == kNone
  std::vector<size_t> agg_items_;  ///< select indexes with an aggregate
  /// No aggregates: groups stream out at first arrival instead of being
  /// held.
  bool streaming_ = false;
  BatchLayout out_layout_;  ///< OutputLayout(query, *in_layout_)
  std::vector<uint32_t> out_offsets_;
  const BatchLayout* in_layout_ = nullptr;
  // Partial spill-row layout: [key cells | per-aggregate partial state |
  // u32 seq]. A pure function of the visible query shape.
  std::vector<uint32_t> spill_key_offsets_;  ///< per key_items_ entry
  std::vector<uint32_t> spill_agg_offsets_;  ///< per agg_items_ entry
  uint32_t spill_seq_offset_ = 0;
  uint32_t spill_stride_ = 0;
  RowComparator key_cmp_;  ///< spill order: key cells, ties by arrival
  std::vector<uint8_t> row_buf_;  ///< one packed partial row + sequence
  std::vector<uint8_t> out_buf_;  ///< one folded output row + sequence
  uint64_t seq_ = 0;  ///< arrival sequence across all input rows

  /// Hash phase: canonical key bytes -> index into groups_ (first-arrival
  /// order; unused for streamed groups, which are not held).
  std::unordered_map<std::string, size_t, TransparentStringHash,
                     std::equal_to<>>
      index_;
  std::vector<Group> groups_;
  size_t table_bytes_ = 0;  ///< budget accounting for the group table

  std::unique_ptr<ExternalRowSorter> by_key_;      ///< spill phase A
  std::unique_ptr<ExternalRowSorter> by_arrival_;  ///< spill phase B
  bool spilling_ = false;
  bool emitting_ = false;
  size_t emit_group_ = 0;  ///< next hash group to emit
  bool done_ = false;
};

/// \brief ORDER BY over select-list columns — keys compared in their
/// encodings, ties keep anchor-id (arrival) order — optionally fused with
/// `LIMIT k` (a kSort node carrying k). k = 0 never pulls the child. When k fits the
/// relational-tail budget the operator keeps a bounded k-row heap of
/// encoded rows: O(n log k) compares, O(k) secure memory, no spill.
/// Otherwise it is a blocking sort bounded by the budget — larger inputs
/// spill sorted runs to flash and stream the merge back in planner-sized
/// batches — truncated at k when there is one.
class SortOp final : public Operator {
 public:
  SortOp(ExecContext* ctx, std::optional<uint64_t> k)
      : Operator(ctx), limit_(k.value_or(UINT64_MAX)) {}
  std::string_view name() const override { return "Sort"; }
  Status Open() override;
  Result<ColumnBatch> Next() override;
  Status Close() override;

 private:
  Status Gather();
  /// Heap mode: offers one packed row to the k-row heap.
  void Offer(const uint8_t* row);
  const uint8_t* Slot(uint32_t slot) const {
    return arena_.data() + static_cast<size_t>(slot) * stride_;
  }

  uint64_t limit_;  ///< k, or unbounded without one
  BatchLayout layout_;  ///< input (= output) layout
  std::vector<uint32_t> offsets_;
  uint32_t stride_ = 0;  ///< packed row: cells + arrival sequence
  RowComparator cmp_;
  std::vector<uint8_t> row_buf_;
  /// Heap mode (k within budget — visible): k row slots, max-heap with the
  /// worst kept row on top.
  bool heap_mode_ = false;
  std::vector<uint8_t> arena_;
  std::vector<uint32_t> heap_;
  std::vector<uint32_t> order_;  ///< final ascending order of the slots
  size_t emit_pos_ = 0;
  /// Sort mode: the external sorter, created at the first input batch.
  std::unique_ptr<ExternalRowSorter> sorter_;
  uint64_t emitted_ = 0;
  uint64_t seq_ = 0;
  uint64_t short_circuits_ = 0;  ///< rows rejected against the heap top
  bool gathered_ = false;
  bool done_ = false;
};

/// \brief The volume defense root (ExecConfig::volume_padding): forwards
/// the child stream untouched while counting its real volume (live +
/// skipped rows), then emits all-dummy batches (zero-filled cells,
/// padding_rows == live()) until the observed volume reaches the mode's
/// target — the next power of two of the real volume (kQuantize) or the
/// visible worst case (kWorstCase: ExecContext::padding_row_bound, lowered
/// to the distinct visible key count of a statement grouping on visible
/// anchor keys, clamped by LIMIT k / the 0-or-1 aggregate row). Dummies
/// are stripped at the QueryResult boundary, so answers are unchanged in
/// every mode; their synthesis cost is charged to the "padding" clock
/// category at channel throughput, modeling the padded result link a
/// deployment would pay.
class VolumePadOp final : public Operator {
 public:
  explicit VolumePadOp(ExecContext* ctx) : Operator(ctx) {}
  std::string_view name() const override { return "VolumePad"; }
  /// Under kWorstCase, a statement grouping on visible anchor keys
  /// (sql::BoundQuery::GroupsOnVisibleAnchorKeys) first requests its
  /// `vis-distinct` count — once, before any child opens, so the request
  /// sits at a point fixed by the query text.
  Status Open() override;
  Result<ColumnBatch> Next() override;

 private:
  /// Safety ceiling on dummy rows synthesized per query. Worst-case
  /// padding of a huge anchor table is real work; past the cap the pad
  /// truncates (weakening the defense) instead of running away.
  static constexpr uint64_t kDummyRowCap = 1ull << 20;

  /// The mode's observed-volume target for a stream of `real` rows.
  /// Internal under kWorstCase when `real` exceeds the visible bound: the
  /// target would then be the real volume, which padding must never show.
  Result<uint64_t> PaddedTarget(uint64_t real) const;
  /// One all-dummy batch of `rows` zero rows in the output layout.
  ColumnBatch DummyBatch(uint64_t rows);

  /// Output layout: bound to the first real child batch (the dummy rows
  /// must be indistinguishable in shape), ctx->value_layout when the
  /// stream was empty — dummies are stripped unread, so only the width of
  /// the synthesized bytes depends on it.
  const BatchLayout* layout_ = nullptr;
  /// The `vis-distinct` count (kWorstCase, grouping on visible anchor
  /// keys; unbounded otherwise). Transcript sink: it decides the padded
  /// result volume.
  GHOSTDB_TRANSCRIPT_SINK uint64_t distinct_key_bound_ = UINT64_MAX;
  uint64_t real_rows_ = 0;
  uint64_t dummies_left_ = 0;
  bool draining_ = false;
  bool done_ = false;
};

/// \brief Truncates the stream after `limit` rows and stops pulling its
/// child — the only operator that ends a query early. Truncation trims the
/// selection vector; cells are not touched.
class LimitOp final : public Operator {
 public:
  LimitOp(ExecContext* ctx, uint64_t limit)
      : Operator(ctx), limit_(limit) {}
  std::string_view name() const override { return "Limit"; }
  Result<ColumnBatch> Next() override;

 private:
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

}  // namespace ghostdb::exec
