// The Secure-side query executor: a thin driver that instantiates the
// physical-operator tree of a plan (plan/physical_plan.h) and pulls result
// batches from its root. All query logic lives in the operators
// (operator.h, operators_sj.h, operators_project.h, operators_rel.h).
//
// Everything here runs "on the key": flash I/O and channel transfers charge
// the device clock under named categories (merge / sjoin / store / project /
// comm), RAM comes from the device's 32-buffer budget, and nothing derived
// from Hidden data is ever sent to Untrusted. The one exception is
// RunUntrustedTail, Untrusted's device-free run of a visible-only
// statement's tail.
#pragma once

#include "exec/operator.h"
#include "plan/physical_plan.h"
#include "plan/strategy.h"

namespace ghostdb::exec {

/// \brief Result rows captured in their encoded (on-flash) cell format.
///
/// The secure rendering surface in two phases: under the channel
/// admission, the executor only memcpys each live row's encoded cells here
/// (cheap); the caller decodes to catalog::Values *after* releasing the
/// device, so one session's rendering overlaps the next session's device
/// work. Owns a copy of the layout, so it stays valid after the plan is
/// gone.
struct EncodedRows {
  BatchLayout layout;
  std::vector<uint8_t> cells;  ///< row-major: row_count × layout.row_width
  uint64_t row_count = 0;
  /// Global ordering key per row, captured from ColumnBatch::seqs when the
  /// producing run had ExecContext::emit_row_seq set (sharded scatter
  /// runs). Parallel to the rows; empty on ordinary runs.
  std::vector<uint64_t> seqs;
  /// Scatter runs: the leg's local ExecContext::padding_row_bound, which
  /// the coordinator sums into GatherInput::padding_row_bound. 0 on
  /// ordinary runs and with padding off.
  uint64_t padding_row_bound = 0;

  /// Copies the live physical row `r` of `batch` (binding the layout on
  /// first use).
  void AppendRow(const ColumnBatch& batch, uint32_t physical_row);
  /// Decodes everything into `out->rows` (the one place result cells
  /// become Values).
  void DecodeInto(QueryResult* out) const;
};

/// \brief The combined row stream a gather run consumes (declared in
/// operator.h, defined here because it owns EncodedRows).
///
/// `rows` holds every shard's projection output k-way merged ascending on
/// the per-row seq (the global anchor id), which reconstructs the exact
/// row arrival order a single unsharded device would have produced.
/// `skipped_rows` sums the shards' demand-skipped counts (rows that passed
/// all filters but were beyond the materialization demand) so result
/// totals still count every qualifying row. `padding_row_bound` sums the
/// shards' local padding bounds: the anchor's rows are partitioned, so the
/// sum equals the bound a single device holding every row would compute,
/// and the gather pads to it.
struct GatherInput {
  EncodedRows rows;
  uint64_t skipped_rows = 0;
  uint64_t padding_row_bound = 0;
};

/// K-way merges per-shard scatter outputs ascending on their seqs (which
/// the result keeps). Each input stream is already seq-sorted (shards hold
/// ascending global-id slices and project in local order) and seqs are
/// globally unique, so this is a plain pick-min merge with a
/// deterministic result.
EncodedRows MergeEncodedRowsBySeq(std::vector<EncodedRows> parts);

/// The scatter/gather split point of `plan`: the node index of its
/// projection (kProject / kBruteForceProject) or, in a visible-only plan,
/// of its VisResult; -1 if it has none. Everything at or below the
/// boundary runs per shard; everything above it — grouping, sorting,
/// limits, padding — runs once on the gather device over the seq-merged
/// row stream, exactly as on a single device.
int FindFanoutBoundary(const plan::PhysicalPlan& plan);

/// \brief Untrusted's half of a visible-only statement (a plan from
/// plan::BuildVisibleOnlyPlan): runs the plan's nodes between VisProject
/// and VisResult — the repository's own tail operators — over `slices`,
/// each one PC's projection of the anchor (rows of [global id | the
/// query's projected visible columns], ascending id; one slice per shard
/// of a fan-out), merged in ascending anchor-id order. The run's
/// ExecContext has no device, an unbounded tail budget and no padding.
/// Any path that would reach the device fails with Internal
/// (ExecContext::RequireDevice).
/// Returns the final rows as raw `vis-result` rows of
/// VisResultWireLayout, keyed by anchor id or by position as
/// PhysicalPlan::result_keyed_by_id says. Never consults the reference
/// oracle: the answer comes from the same operators the key runs.
Result<untrusted::ProjectionPayload> RunUntrustedTail(
    const sql::BoundQuery& query, const plan::PhysicalPlan& plan,
    const catalog::Schema& schema,
    std::vector<untrusted::ProjectionPayload> slices);

/// The gather's check on a fanned-out visible-only statement's legs
/// (seq = key): their non-empty key ranges follow each other in shard
/// order and, keyed by position, tile 0..n-1. InvalidArgument otherwise.
Status CheckVisResultRanges(const std::vector<EncodedRows>& legs,
                            bool keyed_by_id);

/// \brief Scatter-gather role of one Execute() call on a sharded fleet.
///
/// GhostDB (core/database.cc) orchestrates: each shard executes the plan
/// re-rooted at its projection and ships seq-stamped rows (kScatter), then
/// the gather device executes the full plan with the seq-merged rows
/// substituted for the projection (kGather). A null FanoutParams runs the
/// whole plan on one device: a statement that does not fan out, or any
/// statement on a fleet of one.
struct FanoutParams {
  enum class Role : uint8_t { kScatter, kGather };
  Role role = Role::kScatter;
  /// kGather: the seq-merged row stream and the fleet-wide padding bound.
  const GatherInput* gather_rows = nullptr;
};

/// \brief Executes bound queries on the Secure device.
class SecureExecutor {
 public:
  SecureExecutor(device::SecureDevice* device,
                 storage::PageAllocator* allocator,
                 const catalog::Schema* schema,
                 const core::SecureStore* store,
                 untrusted::UntrustedEngine* untrusted, ExecConfig config)
      : device_(device),
        allocator_(allocator),
        schema_(schema),
        store_(store),
        untrusted_(untrusted),
        config_(config) {}

  /// Runs `query` under `plan`. The query text must already have been
  /// announced to Untrusted by the caller, and the caller must hold the
  /// channel arbiter's admission for `session`. `baseline` extends the cost
  /// accounting back to before the announcement. `session` scopes the run:
  /// RAM comes from the session's partition, and the page-leak check
  /// reports against the session. The result comes back with `rows` empty
  /// and the encoded cells in `out`, for the caller to DecodeInto() once it
  /// has released its channel admission. `prefetch` holds the messages the
  /// PC prepared for this leg, which the operators' requests ship (null:
  /// the run requests nothing from the PC, as a gather does).
  /// `fanout` (optional) runs this call as one leg of a sharded
  /// scatter-gather: kScatter executes the plan re-rooted at the
  /// projection and emits seq-stamped rows (into `out`); kGather executes
  /// the tail of the plan over the merged shard rows.
  Result<QueryResult> Execute(const sql::BoundQuery& query,
                              const plan::PhysicalPlan& plan,
                              const MetricSnapshot& baseline,
                              const SessionBinding& session, EncodedRows* out,
                              const untrusted::VisPrefetch* prefetch,
                              const FanoutParams* fanout);

 private:
  /// The tree-driving body of Execute(); runs with the RAM partition
  /// already switched to the session's.
  Result<QueryResult> ExecuteTree(const sql::BoundQuery& query,
                                  const plan::PhysicalPlan& plan,
                                  const MetricSnapshot& baseline,
                                  const SessionBinding& session,
                                  EncodedRows* out,
                                  const untrusted::VisPrefetch* prefetch,
                                  const FanoutParams* fanout);

  device::SecureDevice* device_;
  storage::PageAllocator* allocator_;
  const catalog::Schema* schema_;
  const core::SecureStore* store_;
  untrusted::UntrustedEngine* untrusted_;
  ExecConfig config_;
};

}  // namespace ghostdb::exec
