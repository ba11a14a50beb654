#include "exec/executor.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "device/guards.h"
#include "exec/operators_rel.h"

namespace ghostdb::exec {

using sql::BoundQuery;

void EncodedRows::AppendRow(const ColumnBatch& batch,
                            uint32_t physical_row) {
  if (layout.cols.empty()) layout = *batch.layout;
  for (size_t c = 0; c < layout.cols.size(); ++c) {
    const uint8_t* src = batch.cell(c, physical_row);
    cells.insert(cells.end(), src, src + layout.cols[c].width);
  }
  if (!batch.seqs.empty()) seqs.push_back(batch.seqs[physical_row]);
  row_count += 1;
}

EncodedRows MergeEncodedRowsBySeq(std::vector<EncodedRows> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  EncodedRows out;
  std::vector<uint64_t> cursor(parts.size(), 0);
  for (const EncodedRows& p : parts) {
    if (out.layout.cols.empty() && !p.layout.cols.empty()) {
      out.layout = p.layout;
    }
    out.cells.reserve(out.cells.size() + p.cells.size());
    out.seqs.reserve(out.seqs.size() + p.seqs.size());
  }
  while (true) {
    int best = -1;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (cursor[i] >= parts[i].row_count) continue;
      if (best < 0 ||
          parts[i].seqs[cursor[i]] < parts[best].seqs[cursor[best]]) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const EncodedRows& p = parts[best];
    const uint8_t* src =
        p.cells.data() +
        static_cast<size_t>(cursor[best]) * p.layout.row_width;
    out.cells.insert(out.cells.end(), src, src + p.layout.row_width);
    out.seqs.push_back(p.seqs[cursor[best]]);
    out.row_count += 1;
    cursor[best] += 1;
  }
  return out;
}

int FindFanoutBoundary(const plan::PhysicalPlan& plan) {
  // Nodes are appended bottom-up, so the last boundary node is the one
  // nearest the root (a visible-only plan's VisResult, not its
  // VisProject).
  for (int i = static_cast<int>(plan.nodes.size()) - 1; i >= 0; --i) {
    if (plan::IsProjectionBoundary(plan.nodes[i].op)) return i;
  }
  return -1;
}

namespace {

/// One PC slice of a visible-only statement's anchor, re-laid out as the
/// projection output (one cell per SELECT item) with its ids as seqs.
EncodedRows SliceRows(const sql::BoundQuery& query,
                      const catalog::Schema& schema,
                      const BatchLayout& layout,
                      const untrusted::ProjectionPayload& slice) {
  // Cell offsets into a slice row: an id item reads the id header, a
  // visible column its place among the projected columns.
  const auto& cols = schema.table(query.anchor).columns;
  const std::vector<catalog::ColumnId> projected =
      query.ProjectedVisibleColumns(schema, query.anchor);
  std::vector<uint32_t> offsets;
  for (const auto& item : query.select) {
    uint32_t off = 0;
    if (!item.is_id) {
      off = 4;
      for (catalog::ColumnId c : projected) {
        if (c == item.column) break;
        off += cols[c].width;
      }
    }
    offsets.push_back(off);
  }
  EncodedRows out;
  out.layout = layout;
  out.row_count = slice.rows;
  out.cells.reserve(slice.rows * layout.row_width);
  out.seqs.reserve(slice.rows);
  for (uint64_t r = 0; r < slice.rows; ++r) {
    const uint8_t* row = slice.bytes.data() + r * slice.row_width;
    for (size_t i = 0; i < offsets.size(); ++i) {
      out.cells.insert(out.cells.end(), row + offsets[i],
                       row + offsets[i] + layout.cols[i].width);
    }
    out.seqs.push_back(DecodeFixed32(row));
  }
  return out;
}

}  // namespace

Result<untrusted::ProjectionPayload> RunUntrustedTail(
    const BoundQuery& query, const plan::PhysicalPlan& plan,
    const catalog::Schema& schema,
    std::vector<untrusted::ProjectionPayload> slices) {
  if (!plan.visible_only()) {
    return Status::Internal("untrusted tail run of a plan that is not "
                            "visible-only");
  }
  GatherInput input;
  {
    std::vector<EncodedRows> parts;
    parts.reserve(slices.size());
    for (untrusted::ProjectionPayload& slice : slices) {
      parts.push_back(SliceRows(query, schema, plan.value_layout, slice));
      slice = untrusted::ProjectionPayload{};
    }
    input.rows = MergeEncodedRowsBySeq(std::move(parts));
  }
  const bool keyed_by_id = plan.result_keyed_by_id();
  // No device, no padding, no spill: the default ExecConfig pads nothing
  // and the default budget is unbounded.
  const ExecConfig config;
  QueryMetrics metrics;
  ExecContext ctx;
  ctx.schema = &schema;
  ctx.config = &config;
  ctx.query = &query;
  ctx.choice = &plan.choice;
  ctx.metrics = &metrics;
  ctx.value_layout = &plan.value_layout;
  ctx.batch_rows = plan.batch_rows;
  // Rows keyed by anchor id carry it through the tail (a LIMIT at most).
  ctx.emit_row_seq = keyed_by_id;
  ctx.gather_rows = &input;
  plan::PhysicalPlan tail = plan;
  tail.root = plan.nodes[plan.root].children.at(0);

  const BatchLayout out_layout =
      HashGroupOp::OutputLayout(query, plan.value_layout);
  untrusted::ProjectionPayload result;
  result.row_width =
      VisResultWireLayout(query, plan.value_layout, keyed_by_id).row_width();
  std::unique_ptr<Operator> root;
  Status run_status = [&]() -> Status {
    GHOSTDB_ASSIGN_OR_RETURN(root, BuildOperatorTree(&ctx, tail));
    GHOSTDB_RETURN_NOT_OK(root->Open());
    while (true) {
      GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, root->Next());
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.live(); ++i) {
        uint32_t row = batch.row_at(i);
        uint8_t key[4];
        EncodeFixed32(key, keyed_by_id ? static_cast<uint32_t>(batch.seqs[row])
                                       : static_cast<uint32_t>(result.rows));
        result.bytes.insert(result.bytes.end(), key, key + 4);
        for (size_t c = 0; c < out_layout.cols.size(); ++c) {
          if (IsVisResultKeyCell(query, c, keyed_by_id)) continue;
          const uint8_t* cell = batch.cell(c, row);
          result.bytes.insert(result.bytes.end(), cell,
                              cell + out_layout.cols[c].width);
        }
        result.rows += 1;
      }
    }
    return Status::OK();
  }();
  Status close_status = root != nullptr ? root->Close() : Status::OK();
  GHOSTDB_RETURN_NOT_OK(run_status);
  GHOSTDB_RETURN_NOT_OK(close_status);
  return result;
}

Status CheckVisResultRanges(const std::vector<EncodedRows>& legs,
                            bool keyed_by_id) {
  uint64_t rows = 0;
  uint64_t last = 0;
  for (const EncodedRows& leg : legs) {
    if (leg.row_count == 0) continue;
    bool follows = keyed_by_id ? rows == 0 || leg.seqs.front() > last
                               : leg.seqs.front() == rows;
    if (!follows) {
      return Status::InvalidArgument(
          "vis-result ranges do not follow each other across the legs");
    }
    rows += leg.row_count;
    last = leg.seqs.back();
  }
  return Status::OK();
}

void EncodedRows::DecodeInto(QueryResult* out) const {
  out->rows.reserve(out->rows.size() + row_count);
  const uint8_t* p = cells.data();
  for (uint64_t r = 0; r < row_count; ++r) {
    std::vector<catalog::Value> row;
    row.reserve(layout.cols.size());
    for (const BatchColumn& col : layout.cols) {
      row.push_back(catalog::Value::Decode(p, col.type, col.width));
      p += col.width;
    }
    out->rows.push_back(std::move(row));
  }
}

Result<QueryResult> SecureExecutor::Execute(
    const BoundQuery& query, const plan::PhysicalPlan& plan,
    const MetricSnapshot& baseline, const SessionBinding& session,
    EncodedRows* out, const untrusted::VisPrefetch* prefetch,
    const FanoutParams* fanout) {
  auto& ram = device_->ram();
  // Context-switch the RAM budget onto the session's partition: every
  // operator acquisition below is charged against the session's quota, and
  // the adaptive operators see only the session's headroom.
  device::RamManager::PartitionScope partition_scope(&ram,
                                                     session.ram_partition);
  Result<QueryResult> result =
      ExecuteTree(query, plan, baseline, session, out, prefetch, fanout);
  if (!result.ok() && result.status().IsResourceExhausted()) {
    // Out-of-RAM is a per-session condition under partitioning: annotate
    // the operator's error with whose budget ran dry and what it was, so
    // "zero buffers free" becomes actionable.
    return Status::ResourceExhausted(
        result.status().message() + " [session '" + session.name +
        "', RAM partition '" + ram.partition_name(session.ram_partition) +
        "': " + std::to_string(ram.partition_used(session.ram_partition)) +
        " used of quota " +
        std::to_string(ram.partition_quota(session.ram_partition)) +
        ", shared reserve " +
        std::to_string(ram.reserve_free_buffers()) + " free]");
  }
  return result;
}

Result<QueryResult> SecureExecutor::ExecuteTree(
    const BoundQuery& query, const plan::PhysicalPlan& plan,
    const MetricSnapshot& baseline, const SessionBinding& session,
    EncodedRows* out, const untrusted::VisPrefetch* prefetch,
    const FanoutParams* fanout) {
  bool scatter =
      fanout != nullptr && fanout->role == FanoutParams::Role::kScatter;
  bool gather =
      fanout != nullptr && fanout->role == FanoutParams::Role::kGather;
  auto& ram = device_->ram();
  uint32_t pages0 = allocator_->used_pages();
  {
    // Pre-flight probe against the session's RAM partition: a session whose
    // quota is already exhausted (a leaked handle, a runaway concurrent
    // query) fails here with a crisp error instead of half-opening the
    // operator tree. The guard returns the buffer before anything runs.
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard preflight,
        device::RamGuard::AcquireOne(&ram, "exec-preflight"));
    (void)preflight;
  }
  ram.ResetPeak();

  QueryMetrics metrics;
  ExecContext ctx;
  ctx.device = device_;
  ctx.allocator = allocator_;
  ctx.schema = schema_;
  ctx.store = store_;
  ctx.untrusted = untrusted_;
  ctx.config = &config_;
  ctx.query = &query;
  ctx.choice = &plan.choice;
  ctx.session = &session;
  ctx.vis_prefetch = prefetch;
  ctx.metrics = &metrics;
  // Without value-level operators above the projection, rows beyond the
  // materialization limit are counted but never encoded.
  bool needs_all_values = query.HasAggregates() || query.grouped() ||
                          query.distinct || !query.order_by.empty() ||
                          query.limit.has_value();
  ctx.rows_demanded =
      needs_all_values ? UINT64_MAX : config_.result_row_limit;
  // How many rows this run may materialize (render or defer). Scatter legs
  // under a tail that groups, reorders or cuts the stream (aggregates /
  // GROUP BY / DISTINCT / ORDER BY / LIMIT) must ship *every* local row to
  // the gather merge, so the per-shard cap lifts; plain scans keep it —
  // any row of the global first-L prefix lies within its own shard's
  // first-L, so per-shard prefix materialization plus skip counting
  // reconstructs the answer.
  uint64_t materialize_cap = config_.result_row_limit;
  if (scatter) {
    ctx.emit_row_seq = true;
    if (needs_all_values) materialize_cap = UINT64_MAX;
  }
  if (gather) ctx.gather_rows = fanout->gather_rows;
  // Planner-sized batches + the plan's layout.
  ctx.value_layout = &plan.value_layout;
  ctx.batch_rows = plan.batch_rows;
  // Relational-tail budget: the working set Sort/Distinct/top-K may hold
  // in secure memory before spilling. Config override, else the session's
  // RAM partition — both visible inputs, so two databases differing only
  // in hidden data compute identical budgets (spill *timing* then depends
  // only on arrived row counts, which never touch the channel).
  {
    uint32_t budget_buffers =
        config_.sort_budget_buffers != 0
            ? config_.sort_budget_buffers
            : ram.partition_budget_buffers(session.ram_partition);
    ctx.sort_budget_bytes =
        static_cast<size_t>(std::max<uint32_t>(1, budget_buffers)) *
        ram.buffer_size();
  }
  // When LIMIT pulls straight from the projection (no blocking operator
  // between), batches larger than the limit only make the projection
  // overshoot before the pull stops — cap at the limit.
  bool limit_above_project = query.limit.has_value() &&
                             !query.HasAggregates() && !query.grouped() &&
                             !query.distinct && query.order_by.empty();
  if (limit_above_project && *query.limit < ctx.batch_rows) {
    ctx.batch_rows =
        std::max<uint32_t>(1, static_cast<uint32_t>(*query.limit));
  }
  // Volume defense: the padding operators target a visible upper bound on
  // the result — one row per anchor-table row, which VisSelectOp lowers to
  // |Vis(anchor)| when the anchor has visible predicates. A gather run
  // never opens VisSelect: it pads to the sum of the scatter legs' bounds,
  // which equals the single-device bound, so the observed volume is
  // identical across shard counts.
  if (config_.volume_padding != VolumePadding::kOff) {
    ctx.padding_row_bound = gather
                                ? fanout->gather_rows->padding_row_bound
                                : store_->tables[query.anchor].row_count;
  }

  // Scatter legs execute only the subtree at/below the fan-out boundary;
  // the tail above it runs once on the gather device over the merged
  // stream, where its arrival-order tie-breaks see the exact row order a
  // single unsharded device would have produced.
  const plan::PhysicalPlan* exec_plan = &plan;
  plan::PhysicalPlan scatter_plan;
  if (scatter) {
    int boundary = FindFanoutBoundary(plan);
    if (boundary < 0) {
      return Status::Internal("scatter plan has no fan-out boundary");
    }
    scatter_plan = plan;
    scatter_plan.root = boundary;
    exec_plan = &scatter_plan;
  }

  QueryResult result;
  for (const auto& c : query.select) result.columns.push_back(c.display);

  // Build + open + pull in a scope whose failure still reaches the cleanup
  // below: whatever the query did before faulting — opened operators,
  // spilled runs, the F' run, VisTable state — must be released, and the
  // page-leak check must run, on the error path too.
  std::unique_ptr<Operator> root;
  Status run_status = [&]() -> Status {
    GHOSTDB_ASSIGN_OR_RETURN(root, BuildOperatorTree(&ctx, *exec_plan));
    GHOSTDB_RETURN_NOT_OK(root->Open());
    metrics.qepsj_rows = ctx.pipeline.sj.rows;
    while (true) {
      GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, root->Next());
      if (batch.empty()) break;
      if (batch.padding_rows > 0) {
        // The QueryResult boundary strips volume-padding dummies: they
        // count toward the observed volume only, never toward the answer,
        // and are never materialized or deferred.
        metrics.padding_rows += batch.padding_rows;
        continue;
      }
      result.total_rows += batch.live() + batch.skipped_rows;
      // The secure rendering surface: only the encoded cells are captured
      // (memcpy) — the caller decodes after releasing its channel
      // admission, off the device's critical section.
      for (size_t i = 0; i < batch.live() && out->row_count < materialize_cap;
           ++i) {
        out->AppendRow(batch, batch.row_at(i));
      }
    }
    return Status::OK();
  }();

  Status close_status;
  if (root != nullptr) {
    close_status = root->Close();
    root.reset();
  }
  ctx.pipeline.vis_tables.clear();
  // Reclaim the pipeline's materialized F' run through page guards: every
  // extent is adopted before any is freed, so one failing Free cannot
  // strand the remaining extents (the guards' destructors return them).
  Status free_status;
  {
    const storage::RunRef& fprime = ctx.pipeline.sj.fprime;
    const std::string& ftag = fprime.tag.empty() ? "fprime" : fprime.tag;
    std::vector<device::PageGuard> fprime_pages;
    fprime_pages.reserve(fprime.extents.size());
    for (const auto& e : fprime.extents) {
      fprime_pages.push_back(
          device::PageGuard::Adopt(allocator_, e.first, e.second, ftag));
    }
    for (auto& guard : fprime_pages) {
      Status s = guard.Free();
      if (free_status.ok() && !s.ok()) free_status = s;
    }
  }
  if (run_status.ok()) {
    GHOSTDB_RETURN_NOT_OK(close_status);
    GHOSTDB_RETURN_NOT_OK(free_status);
  }

  baseline.Delta(device_, &metrics);
  metrics.peak_ram_buffers = ram.peak_used_buffers();
  metrics.result_rows = result.total_rows;
  metrics.observed_volume = result.total_rows + metrics.padding_rows;
  if (scatter) out->padding_row_bound = ctx.padding_row_bound;

  // Temporary flash space must all be returned: leaks here would slowly
  // fill the key — after a fault just as much as after a success. The
  // check runs per session-query so a leak is pinned on the session that
  // caused it, not on whoever runs next.
  if (allocator_->used_pages() != pages0) {
    std::string leak = "query leaked " +
                       std::to_string(allocator_->used_pages() - pages0) +
                       " flash pages (session '" + session.name + "')";
    if (!run_status.ok()) {
      leak += " while failing with: " + run_status.ToString();
    }
    return Status::Internal(std::move(leak));
  }
  GHOSTDB_RETURN_NOT_OK(run_status);
  result.metrics = metrics;
  return result;
}

}  // namespace ghostdb::exec
