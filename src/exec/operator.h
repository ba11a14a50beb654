// The physical-operator execution engine.
//
// A query runs as a tree of Operators instantiated from a plan::PhysicalPlan.
// All operators share one ExecContext, which owns the handles to the device
// (simulated clock + 32-buffer RAM budget + flash + channel), the query
// metrics, and the PipelineState flowing between the QEP_SJ stages.
//
// Two regimes, mirroring the paper:
//  * Below the projection (VisSelect, BloomBuild, Merge, SJoin, PostSelect)
//    operators work in id space under the strict RAM discipline. Their
//    product is the flash-resident F' run in PipelineState — Project scans
//    it multiple times, so it cannot be pulled value-at-a-time. Merge
//    pushes ids into SJoin through a sink, exactly the paper's pipelined
//    Merge -> SJoin -> ProbeBF -> Store composition.
//  * From the projection upward (Project/BruteForceProject, HashGroup,
//    Sort, Limit) operators exchange columnar ColumnBatches
//    (column_batch.h) via pull (Next()), which is where ORDER BY / LIMIT /
//    DISTINCT and aggregation plug in. Cells stay in their fixed-width
//    flash encodings end to end; Values are decoded once, at the secure
//    rendering surface.
//
// The security invariant is structural: no operator holds a channel handle
// except through UntrustedEngine's audited request methods, so nothing
// derived from Hidden data can reach Untrusted.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"
#include "exec/column_batch.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "device/secure_device.h"
#include "exec/bloom.h"
#include "exec/merge.h"
#include "plan/physical_plan.h"
#include "sql/binder.h"
#include "storage/page_allocator.h"
#include "storage/run.h"
#include "untrusted/engine.h"

namespace ghostdb::exec {

/// \brief Result-volume defense modes (PAPERS.md: "Practical Volume-Based
/// Attacks on Encrypted Databases"; ObliDB's padding-mode operators).
///
/// The transcript never carries result rows, but an honest-but-curious
/// observer of the secure display (or of any downstream consumer) still
/// sees *how many* rows each query produced — enough to run
/// volume-frequency and co-occurrence attacks against hidden predicates.
/// Padding inserts dummy rows above the relational tail that are stripped
/// at the QueryResult boundary, so answers never change; only the observed
/// volume does.
enum class VolumePadding : uint8_t {
  kOff,       ///< exact volumes (the attack surface the harness measures)
  kQuantize,  ///< round observed volume up to the next power of two
  /// Pad every query to its visible worst case: the number of anchor rows
  /// passing the anchor's visible predicates (all of them when it has
  /// none), bounded by LIMIT k / the 0-or-1 aggregate row. Two databases
  /// differing only in hidden data then show identical volumes.
  kWorstCase,
};

/// Smallest power of two >= max(n, 1). The quantized-volume bucket
/// function, shared by the padding operator, the spill-run padding, and
/// the tests asserting both.
inline uint64_t NextPowerOfTwo(uint64_t n) {
  uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Execution knobs (defaults follow the paper).
struct ExecConfig {
  /// Bloom sizing target: m/n bits per element (paper: 8).
  double bloom_target_bpe = 8.0;
  /// Below this achievable m/n a Post-Filter is not worth executing
  /// (Fig 10: the filter would inject more false positives than it kills).
  double bloom_min_bpe = 2.0;
  /// When false, hidden selections deliver only self-level ids and must
  /// cascade through per-id index lookups to reach the anchor — the
  /// baseline the climbing index replaces (section 3.2 motivation;
  /// ablation A4).
  bool climbing_enabled = true;
  /// Keep at most this many result rows materialized for the caller
  /// (counts stay exact; benches set a small limit).
  uint64_t result_row_limit = UINT64_MAX;
  /// Working-set budget of the blocking relational tail (grouping and
  /// sort), in device buffers. 0 = derive from the session's RAM
  /// partition (its pledged quota, or the shared reserve when the session
  /// pledged none) — visible inputs only, like the plan itself.
  /// Past it the tail spills sorted runs to flash and streams the merge.
  /// Tests and benches set tiny values to force the spill paths.
  uint32_t sort_budget_buffers = 0;
  /// Unread: the pool's width is GhostDBConfig::worker_threads alone. The
  /// field stays only because the end-to-end benchmark still stamps it;
  /// ROADMAP item 1 deletes it.
  uint32_t worker_threads = 0;
  /// Result-volume defense (see VolumePadding). Dummy rows are synthesized
  /// by a planner-emitted VolumePad root operator and stripped at the
  /// QueryResult boundary; answers are oracle-exact in every mode.
  VolumePadding volume_padding = VolumePadding::kOff;
  /// Also pad the relational tail's flash spill-run counts (per sorter,
  /// same mode as volume_padding): dummy one-page runs written and freed
  /// alongside the real ones, reducing the resolution of the spill-count
  /// side channel. Requires volume_padding != kOff.
  bool pad_spill_runs = false;
};

/// Rejects nonsensical knob combinations (spill-run padding without volume
/// padding) with InvalidArgument instead of letting them silently
/// misbehave downstream.
Status ValidateExecConfig(const ExecConfig& config);

/// Observable per-query costs.
struct QueryMetrics {
  SimNanos total_ns = 0;
  std::map<std::string, SimNanos> categories;  ///< merge/sjoin/store/...
  flash::FlashStats flash;
  uint64_t bytes_to_secure = 0;
  uint64_t bytes_to_untrusted = 0;
  uint64_t qepsj_rows = 0;     ///< rows out of QEP_SJ (superset w/ blooms)
  uint64_t result_rows = 0;    ///< exact final row count
  uint32_t peak_ram_buffers = 0;
  /// Summed over the statement's merges; peak_streams and window_bytes
  /// are the largest any merge used.
  MergeStats merge;
  double bloom_fpr_estimate = 0.0;  ///< worst filter used in QEP_SJ
  /// The three plan-cache counters are always 0: there is no plan cache
  /// (every statement plans from its own visible counts). Kept only
  /// because the end-to-end benchmark prints them; ROADMAP item 1 deletes
  /// them.
  uint64_t plan_cache_hits = 0;     ///< always 0 (see above)
  uint64_t plan_cache_misses = 0;   ///< always 0 (see above)
  uint64_t plan_cache_replans = 0;  ///< always 0 (see above)
  /// Sorted runs the relational tail wrote to flash (generation spills
  /// plus intermediate merges) when a working set exceeded its budget.
  uint64_t sort_spill_runs = 0;
  /// Flash pages those spill runs occupied.
  uint64_t sort_spill_pages = 0;
  /// Of sort_spill_pages, the pages intermediate merges rewrote (runs
  /// merged down before a final merge they outnumbered the buffers of).
  uint64_t sort_merge_pages = 0;
  /// Rows the fused top-K sort rejected against the heap top without
  /// buffering — the work a full sort would have materialized.
  uint64_t topk_short_circuits = 0;
  /// Result volume a downstream observer sees: result_rows plus the dummy
  /// rows the padding mode emitted (== result_rows with padding off). The
  /// attack harness reads only this, never result_rows.
  uint64_t observed_volume = 0;
  /// Dummy rows synthesized by the VolumePad operator and stripped at the
  /// QueryResult boundary — the volume-defense overhead.
  uint64_t padding_rows = 0;
  /// Dummy spill runs the relational tail wrote (and freed) to pad its
  /// flash run counts (ExecConfig::pad_spill_runs).
  uint64_t padding_spill_runs = 0;
  /// Transient flash faults the device absorbed by retrying (the backoff
  /// is charged to the "fault-retry" clock category).
  uint64_t flash_retries = 0;
  /// Faults the injector fired during this query, retried or not —
  /// includes the ones a padded-mode masked replay recovered from.
  uint64_t faults_injected = 0;

  /// Folds another query's metrics into this one (counters sum, peaks
  /// take the max) — the single place the field list is walked, used by
  /// session totals and batch totals alike.
  void Accumulate(const QueryMetrics& other);
};

/// \brief Identity a query executes under: its session's id (transcript
/// tag), display name (diagnostics), and RAM partition (buffer quota).
/// Only a core::Session builds one.
struct SessionBinding {
  int32_t id = 0;
  std::string name;
  device::RamPartitionId ram_partition = device::kSharedRamPartition;
};

/// A query answer, delivered to the secure rendering surface.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<catalog::Value>> rows;  ///< up to result_row_limit
  uint64_t total_rows = 0;
  QueryMetrics metrics;
};

/// \brief Cost-counter baseline: captured before the first query-related
/// channel transfer so metrics include the query announcement and the
/// planner's Vis-count exchanges.
struct MetricSnapshot {
  SimNanos clock_ns = 0;
  std::map<std::string, SimNanos> categories;
  flash::FlashStats flash;
  uint64_t bytes_to_secure = 0;
  uint64_t bytes_to_untrusted = 0;
  uint64_t flash_retries = 0;
  uint64_t faults_injected = 0;

  static MetricSnapshot Take(device::SecureDevice* device);
  /// Fills the delta since this snapshot into `metrics`.
  void Delta(device::SecureDevice* device, QueryMetrics* metrics) const;
};

/// Per-table visible-strategy state, prepared by VisSelectOp and consumed
/// by the downstream QEP_SJ operators.
struct VisTable {
  catalog::TableId table;
  plan::VisStrategy strategy;
  /// The Vis selection result (sorted), exactly as the `vis-ids` message
  /// carried it: a projection with no visible columns to fetch reads it
  /// instead of asking the PC for the same list again.
  std::vector<catalog::RowId> ids;
  /// Basis for a Post-Filter Bloom: vt.ids, or Vis ∩ Hidden-at-Ti for the
  /// Cross variant. Filled by VisSelectOp, consumed by BloomBuildOp.
  std::vector<catalog::RowId> filter_basis;
  bool has_filter_basis = false;
  /// Cross Post-Select: Vis ∩ Hidden-at-Ti, the smaller exact id set
  /// PostSelectOp filters F' by (instead of `ids`).
  std::optional<std::vector<catalog::RowId>> crossed_ids;
  std::optional<BloomFilter> bloom;  ///< for post strategies in QEP_SJ
  uint32_t probe_offset = 0;         ///< byte offset of probe column in F'
  bool need_exact_at_projection = false;
  bool post_select = false;
};

/// Materialized QEP_SJ output F'.
struct SjState {
  storage::RunRef fprime;
  /// Non-anchor id columns of F', ascending TableId.
  std::vector<catalog::TableId> column_tables;
  uint32_t row_width = 4;
  uint64_t rows = 0;

  std::optional<uint32_t> ColumnOffset(catalog::TableId t,
                                       catalog::TableId anchor) const;
};

/// Dataflow state shared by the id-space operators of one query.
struct PipelineState {
  std::vector<VisTable> vis_tables;
  /// Hidden non-id predicates of the query, with fold bookkeeping (a
  /// predicate folded into a Cross intersection must not be re-applied at
  /// the anchor level).
  std::vector<const sql::BoundPredicate*> hidden_preds;
  std::vector<bool> folded;
  /// Anchor-level merge groups assembled by VisSelectOp (pre-filter climbs)
  /// and MergeOp (unfolded hidden selections, iota fallback).
  std::vector<MergeGroup> anchor_groups;
  SjState sj;
};

/// Merged per-shard projection output fed into a gather run (defined in
/// executor.h; here only pointed at by ExecContext).
struct GatherInput;

/// \brief Everything an operator needs: device resources (clock, RAM
/// budget, flash, channel), catalog, store handles, config, and the
/// per-query metrics + pipeline state.
struct ExecContext {
  device::SecureDevice* device = nullptr;
  storage::PageAllocator* allocator = nullptr;
  const catalog::Schema* schema = nullptr;
  const core::SecureStore* store = nullptr;
  untrusted::UntrustedEngine* untrusted = nullptr;
  const ExecConfig* config = nullptr;
  const sql::BoundQuery* query = nullptr;
  const plan::PlanChoice* choice = nullptr;
  /// Session the query runs for. RAM acquisitions are charged to its
  /// partition via the RamManager's active-partition register (set by the
  /// executor), so operators need no per-call plumbing.
  const SessionBinding* session = nullptr;
  /// The messages the PC prepared for this leg before admission, which
  /// the Serve calls ship as is (null on a device-free run, which requests
  /// nothing from the PC; a gather run holds the coordinator's and
  /// requests at most its `vis-distinct` message).
  const untrusted::VisPrefetch* vis_prefetch = nullptr;
  QueryMetrics* metrics = nullptr;
  PipelineState pipeline;
  /// Column layout of the projection output (one column per SELECT item).
  /// Points at the plan's layout; outlives every batch of the query.
  const BatchLayout* value_layout = nullptr;
  /// Rows per ColumnBatch through the value-level operators, sized by the
  /// planner (SizeBatchRows: kBatchBytes over the output row width).
  uint32_t batch_rows = 256;
  /// Byte budget for the blocking relational tail's secure working set
  /// (HashGroupOp, SortOp). Derived by the executor from ExecConfig and
  /// the session's RAM partition — a pure function of visible inputs.
  /// Exceeding it spills sorted runs to flash.
  size_t sort_budget_bytes = SIZE_MAX;
  /// How many materialized rows the consumer can use. When the plan has no
  /// value-level operators above the projection, the driver caps this at
  /// result_row_limit so the projection skips encoding rows nobody will
  /// see (counts stay exact via ColumnBatch::skipped_rows).
  uint64_t rows_demanded = UINT64_MAX;
  /// Visible worst-case result bound for the padding modes. Every result
  /// row corresponds to one anchor row, so the executor starts from the
  /// anchor table's row count, and VisSelectOp lowers it to |Vis(anchor)|
  /// when the anchor has visible predicates; a gather run takes the sum of
  /// its scatter legs' bounds (GatherInput). Set iff volume padding is
  /// on; 0 otherwise. A pure function of visible data and the query text,
  /// so padding targets derived from it are identical across hidden
  /// variants. Transcript sink: the bound decides the padded result
  /// volume, so leakcheck rejects hidden-derived stores.
  GHOSTDB_TRANSCRIPT_SINK uint64_t padding_row_bound = 0;
  /// Scatter-shard mode: stamp each projected row's global anchor id into
  /// ColumnBatch::seqs (and EncodedRows::seqs at the boundary) so the
  /// gather phase can k-way merge per-shard streams back into the exact
  /// single-device global order.
  bool emit_row_seq = false;
  /// Gather mode: the seq-merged union of per-shard projection outputs,
  /// emitted by a GatherSourceOp substituted for the projection node so
  /// the unmodified relational tail runs once over the global stream.
  const GatherInput* gather_rows = nullptr;

  /// The device-free run's assertion: Internal unless this context has a
  /// device. Untrusted's tail run (RunUntrustedTail) has none, so any path
  /// that would spill, pad or otherwise reach secure state calls this
  /// first and fails instead of dereferencing it.
  Status RequireDevice(std::string_view what) const;

  SimClock& clock() { return device->clock(); }
  device::RamManager& ram() { return device->ram(); }
  flash::FlashDevice& flash() { return device->flash(); }
};

/// The key's end of the row-carrying PC messages: requests Vis(Q, T,
/// {id}) / Vis(Q, T, {<id, vlist>}) and decodes the bytes that crossed the
/// channel (never the PC's own vectors), charging the decode once, at
/// receipt, to the "decode" clock category. A malformed message is
/// InvalidArgument. Decoding holds no RAM buffer: the rows land in the
/// same host vectors the raw rows always did.
Result<std::vector<catalog::RowId>> ReceiveVisibleIds(ExecContext* ctx,
                                                      catalog::TableId table);
Result<untrusted::ProjectionPayload> ReceiveProjection(
    ExecContext* ctx, catalog::TableId table,
    const std::vector<catalog::ColumnId>& columns);
/// Visible values of `table` for projection: the `vis-vals` payload of
/// `columns`, or — when there are none to fetch and the table's Vis list
/// already crossed as `vis-ids` (`vt` non-null) — the payload rebuilt from
/// that list, which the PC would have sent byte for byte again.
Result<untrusted::ProjectionPayload> ReceiveVisibleValues(
    ExecContext* ctx, const VisTable* vt, catalog::TableId table,
    const std::vector<catalog::ColumnId>& columns);
/// The key's end of a visible-only statement: requests the `vis-result`
/// message of `table` and decodes it in `layout`, charging the decode.
/// Keys ascend strictly below `key_limit`; anything else is
/// InvalidArgument.
Result<device::WireRows> ReceiveVisibleResult(ExecContext* ctx,
                                              catalog::TableId table,
                                              const device::WireLayout& layout,
                                              uint64_t key_limit);

/// \brief Base class of all physical operators.
///
/// Lifecycle: Open() (children first, then own blocking work), Next() until
/// an empty batch, Close() (own cleanup, then children). Close() must be
/// safe after a partially consumed stream — LimitOp stops pulling early.
class Operator {
 public:
  explicit Operator(ExecContext* ctx) : ctx_(ctx) {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual std::string_view name() const = 0;

  /// Default: opens children in order.
  virtual Status Open();

  /// Pulls the next batch of rows; empty batch = end of stream.
  virtual Result<ColumnBatch> Next() = 0;

  /// Default: closes children in order.
  virtual Status Close();

  void AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
  }
  Operator* child(size_t i = 0) const { return children_[i].get(); }

 protected:
  ExecContext* ctx_;
  std::vector<std::unique_ptr<Operator>> children_;
};

/// Instantiates the concrete operator tree for `plan`. The returned root
/// owns the whole tree.
Result<std::unique_ptr<Operator>> BuildOperatorTree(
    ExecContext* ctx, const plan::PhysicalPlan& plan);

}  // namespace ghostdb::exec
