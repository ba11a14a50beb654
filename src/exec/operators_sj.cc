#include "exec/operators_sj.h"

#include <algorithm>
#include <set>

#include "common/coding.h"
#include "exec/row_run.h"
#include "exec/simd.h"
#include "exec/sjoin.h"
#include "storage/btree.h"
#include "storage/fixed_table.h"

namespace ghostdb::exec {

using catalog::RowId;
using catalog::TableId;
using catalog::Value;
using plan::VisStrategy;
using sql::BoundPredicate;
using sql::BoundQuery;

// ---------------------------------------------------------------------------
// HiddenSelector
// ---------------------------------------------------------------------------

std::vector<size_t> HiddenSelector::SubtreePredicates(TableId t) const {
  const auto& preds = ctx_->pipeline.hidden_preds;
  std::vector<size_t> out;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (ctx_->schema->IsAncestorOrSelf(preds[i]->table, t)) {
      out.push_back(i);
    }
  }
  return out;
}

Status HiddenSelector::CollectPredicateSublists(const BoundPredicate& pred,
                                                TableId target,
                                                MergeGroup* group) {
  const core::TableImage& image = ctx_->store->tables[pred.table];
  auto it = image.attr_indexes.find(pred.column);
  if (it == image.attr_indexes.end()) {
    // No climbing index on this attribute: fall back to a hidden-image scan
    // (ids of pred.table), then climb if needed.
    GHOSTDB_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                             ScanHiddenPredicate(pred));
    if (pred.table == target) {
      group->ram_ids = std::move(ids);
      group->has_ram_ids = true;
      return Status::OK();
    }
    return ClimbIntoGroup(pred.table, target, ids, group);
  }
  const storage::BTreeRef& index = it->second;
  if (!ctx_->config->climbing_enabled && target != pred.table) {
    // Cascading baseline: resolve the selection at the self level, then
    // climb id by id through the id indexes.
    MergeGroup self_group;
    GHOSTDB_RETURN_NOT_OK(
        CollectPredicateSublists(pred, pred.table, &self_group));
    std::vector<RowId> ids;
    {
      GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard buf,
                               device::RamGuard::AcquireOne(&ctx_->ram(), "cascade"));
      for (const auto& [area, range] : self_group.sublists) {
        storage::PostingCursor cursor(&ctx_->flash(), area, range,
                                      buf.data());
        GHOSTDB_RETURN_NOT_OK(cursor.Prime());
        while (cursor.valid()) {
          ids.push_back(cursor.head());
          GHOSTDB_RETURN_NOT_OK(cursor.Advance());
        }
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    return ClimbIntoGroup(pred.table, target, ids, group);
  }
  GHOSTDB_ASSIGN_OR_RETURN(
      uint32_t level,
      core::SecureStore::LevelFor(*ctx_->schema, pred.table, target,
                                  /*self_level=*/true));
  GHOSTDB_ASSIGN_OR_RETURN(
      auto reader,
      storage::BTreeReader::Open(&ctx_->flash(), &ctx_->ram(), &index));
  auto push_current = [&]() -> Status {
    GHOSTDB_ASSIGN_OR_RETURN(storage::BTreeEntry entry, reader->Current());
    if (entry.ranges[level].count > 0) {
      group->sublists.emplace_back(&index.postings[level],
                                   entry.ranges[level]);
    }
    return Status::OK();
  };

  switch (pred.op) {
    case catalog::CompareOp::kEq: {
      GHOSTDB_ASSIGN_OR_RETURN(bool found,
                               reader->SeekLowerBound(pred.value));
      if (!found) return Status::OK();
      GHOSTDB_ASSIGN_OR_RETURN(storage::BTreeEntry entry, reader->Current());
      if (entry.key == pred.value) {
        GHOSTDB_RETURN_NOT_OK(push_current());
      }
      return Status::OK();
    }
    case catalog::CompareOp::kGe:
    case catalog::CompareOp::kGt: {
      GHOSTDB_ASSIGN_OR_RETURN(bool found,
                               reader->SeekLowerBound(pred.value));
      if (!found) return Status::OK();
      while (true) {
        GHOSTDB_ASSIGN_OR_RETURN(storage::BTreeEntry entry,
                                 reader->Current());
        if (!(pred.op == catalog::CompareOp::kGt &&
              entry.key == pred.value)) {
          GHOSTDB_RETURN_NOT_OK(push_current());
        }
        GHOSTDB_ASSIGN_OR_RETURN(bool more, reader->Next());
        if (!more) break;
      }
      return Status::OK();
    }
    case catalog::CompareOp::kLt:
    case catalog::CompareOp::kLe:
    case catalog::CompareOp::kNe: {
      GHOSTDB_ASSIGN_OR_RETURN(bool found, reader->SeekToFirst());
      if (!found) return Status::OK();
      while (true) {
        GHOSTDB_ASSIGN_OR_RETURN(storage::BTreeEntry entry,
                                 reader->Current());
        int cmp = entry.key.Compare(pred.value);
        if (pred.op == catalog::CompareOp::kLt && cmp >= 0) break;
        if (pred.op == catalog::CompareOp::kLe && cmp > 0) break;
        if (!(pred.op == catalog::CompareOp::kNe && cmp == 0)) {
          GHOSTDB_RETURN_NOT_OK(push_current());
        }
        GHOSTDB_ASSIGN_OR_RETURN(bool more, reader->Next());
        if (!more) break;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled predicate operator");
}

Status HiddenSelector::ClimbIntoGroup(TableId from, TableId to,
                                      const std::vector<RowId>& ids,
                                      MergeGroup* group) {
  if (from == to) {
    group->ram_ids = ids;
    group->has_ram_ids = true;
    return Status::OK();
  }
  const core::TableImage& image = ctx_->store->tables[from];
  if (!image.id_index.has_value()) {
    return Status::Internal("missing id index on " +
                            ctx_->schema->table(from).name);
  }
  GHOSTDB_ASSIGN_OR_RETURN(
      uint32_t level,
      core::SecureStore::LevelFor(*ctx_->schema, from, to,
                                  /*self_level=*/false));
  GHOSTDB_ASSIGN_OR_RETURN(
      auto reader,
      storage::BTreeReader::Open(&ctx_->flash(), &ctx_->ram(),
                                 &image.id_index.value()));
  for (RowId id : ids) {
    GHOSTDB_ASSIGN_OR_RETURN(
        bool found,
        reader->SeekLowerBound(Value::Int32(static_cast<int32_t>(id))));
    if (!found) continue;
    GHOSTDB_ASSIGN_OR_RETURN(storage::BTreeEntry entry, reader->Current());
    if (entry.key.AsInt32() != static_cast<int32_t>(id)) continue;
    if (entry.ranges[level].count > 0) {
      group->sublists.emplace_back(&image.id_index->postings[level],
                                   entry.ranges[level]);
    }
  }
  return Status::OK();
}

Result<std::vector<RowId>> HiddenSelector::ScanHiddenPredicate(
    const BoundPredicate& pred) {
  const core::TableImage& image = ctx_->store->tables[pred.table];
  if (!image.hidden_image.has_value()) {
    return Status::Internal("hidden predicate on table without hidden image");
  }
  const auto& col = ctx_->schema->table(pred.table).columns[pred.column];
  uint32_t offset = image.hidden_offsets[pred.column];
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard buf,
                           device::RamGuard::AcquireOne(&ctx_->ram(), "hidden-scan"));
  storage::FixedTableReader reader(&ctx_->flash(),
                                   image.hidden_image.value(), buf.data());
  std::vector<uint8_t> row(image.hidden_image->row_width);
  std::vector<RowId> out;
  // Fast path: compare encoded cells against the literal's encoding — no
  // Value per row. Encode() truncates overlong string literals, so those
  // keep the decode path to preserve full-literal comparison semantics.
  bool encoded_ok = pred.value.type() == col.type &&
                    (col.type != catalog::DataType::kString ||
                     pred.value.AsString().size() <= col.width);
  if (encoded_ok) {
    std::vector<uint8_t> literal(col.width);
    pred.value.Encode(literal.data(), col.width);
    // Page-span scan: the SIMD kernel sweeps every row of the buffered
    // page in place. Pages load in the same ascending order as a
    // row-by-row scan, so flash stats (and the simulated cost) are
    // unchanged.
    uint32_t stride = image.hidden_image->row_width;
    RowId r = 0;
    while (r < image.row_count) {
      GHOSTDB_ASSIGN_OR_RETURN(storage::FixedTableReader::Span span,
                               reader.RowSpan(r));
      size_t base = out.size();
      out.resize(base + span.rows);
      size_t count = simd::FilterEncoded(col.type, col.width,
                                         span.data + offset, stride,
                                         span.rows, literal.data(), pred.op,
                                         r, out.data() + base);
      out.resize(base + count);
      r += span.rows;
    }
    return out;
  }
  for (RowId r = 0; r < image.row_count; ++r) {
    GHOSTDB_RETURN_NOT_OK(reader.ReadRow(r, row.data()));
    Value v = Value::Decode(row.data() + offset, col.type, col.width);
    if (catalog::EvalCompare(v, pred.op, pred.value)) out.push_back(r);
  }
  return out;
}

Status HiddenSelector::CrossIntersect(const VisTable& vt,
                                      const std::vector<size_t>& pred_indices,
                                      std::vector<RowId>* out) {
  std::vector<MergeGroup> groups;
  MergeGroup vis_group;
  vis_group.ram_ids = vt.ids;
  vis_group.has_ram_ids = true;
  groups.push_back(std::move(vis_group));
  for (size_t pi : pred_indices) {
    MergeGroup g;
    GHOSTDB_RETURN_NOT_OK(CollectPredicateSublists(
        *ctx_->pipeline.hidden_preds[pi], vt.table, &g));
    groups.push_back(std::move(g));
  }
  MergeExec merge(&ctx_->flash(), &ctx_->ram(), ctx_->allocator);
  auto scope = ctx_->clock().Enter("merge");
  GHOSTDB_RETURN_NOT_OK(merge.Run(
      std::move(groups), ctx_->store->tables[vt.table].row_count,
      [&](RowId id) {
        out->push_back(id);
        return Status::OK();
      },
      /*reserve_buffers=*/0));
  ctx_->metrics->merge.reduction_rounds += merge.stats().reduction_rounds;
  ctx_->metrics->merge.reduction_ids_written +=
      merge.stats().reduction_ids_written;
  ctx_->metrics->merge.window_bytes = std::max(
      ctx_->metrics->merge.window_bytes, merge.stats().window_bytes);
  ctx_->metrics->merge.bitmap_groups += merge.stats().bitmap_groups;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VisSelectOp
// ---------------------------------------------------------------------------

Status VisSelectOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  PipelineState& state = ctx_->pipeline;
  const BoundQuery& query = *ctx_->query;

  // One Vis request per table with visible predicates, in FROM order —
  // fixed by the (visible) query text, so the request pattern cannot
  // depend on Hidden data.
  for (TableId t : query.tables) {
    if (!query.HasVisiblePredicateOn(t)) continue;
    VisTable vt;
    vt.table = t;
    auto it = ctx_->choice->vis.find(t);
    vt.strategy = it != ctx_->choice->vis.end()
                      ? it->second
                      : VisStrategy::kCrossPreFilter;
    GHOSTDB_ASSIGN_OR_RETURN(vt.ids, ReceiveVisibleIds(ctx_, t));
    // Volume defense: no result row can come from an anchor row that
    // fails the anchor's visible predicates, so |Vis(anchor)| bounds the
    // answer. The count is a function of visible data and the query text
    // alone (an observer holding the visible data computes it too), and
    // it is known here, before any result row exists.
    if (t == query.anchor) {
      ctx_->padding_row_bound =
          std::min<uint64_t>(ctx_->padding_row_bound, vt.ids.size());
    }
    state.vis_tables.push_back(std::move(vt));
  }

  // Hidden predicates with fold bookkeeping.
  state.hidden_preds.clear();
  for (const auto& p : query.predicates) {
    if (p.hidden && !p.on_id) state.hidden_preds.push_back(&p);
  }
  state.folded.assign(state.hidden_preds.size(), false);

  // Apply the id-list side of each table's strategy.
  HiddenSelector selector(ctx_);
  TableId anchor = query.anchor;
  for (auto& vt : state.vis_tables) {
    std::vector<size_t> foldable = selector.SubtreePredicates(vt.table);
    bool can_cross = !foldable.empty();
    VisStrategy strategy = vt.strategy;
    if (!can_cross && strategy == VisStrategy::kCrossPreFilter) {
      strategy = VisStrategy::kPreFilter;
    }
    if (!can_cross && strategy == VisStrategy::kCrossPostFilter) {
      strategy = VisStrategy::kPostFilter;
    }
    if (!can_cross && strategy == VisStrategy::kCrossPostSelect) {
      strategy = VisStrategy::kPostSelect;
    }
    switch (strategy) {
      case VisStrategy::kPreFilter: {
        MergeGroup g;
        GHOSTDB_RETURN_NOT_OK(
            selector.ClimbIntoGroup(vt.table, anchor, vt.ids, &g));
        state.anchor_groups.push_back(std::move(g));
        break;
      }
      case VisStrategy::kCrossPreFilter: {
        std::vector<RowId> L;
        GHOSTDB_RETURN_NOT_OK(selector.CrossIntersect(vt, foldable, &L));
        for (size_t pi : foldable) state.folded[pi] = true;
        MergeGroup g;
        GHOSTDB_RETURN_NOT_OK(
            selector.ClimbIntoGroup(vt.table, anchor, L, &g));
        state.anchor_groups.push_back(std::move(g));
        break;
      }
      case VisStrategy::kPostFilter:
      case VisStrategy::kCrossPostFilter: {
        if (strategy == VisStrategy::kCrossPostFilter) {
          GHOSTDB_RETURN_NOT_OK(
              selector.CrossIntersect(vt, foldable, &vt.filter_basis));
        } else {
          vt.filter_basis = vt.ids;
        }
        vt.has_filter_basis = true;  // BloomBuildOp takes it from here
        break;
      }
      case VisStrategy::kPostSelect:
      case VisStrategy::kCrossPostSelect:
        vt.post_select = true;
        if (strategy == VisStrategy::kCrossPostSelect && can_cross) {
          // Intersect first: the in-RAM id set shrinks, so the exact
          // selection needs fewer chunks/passes over F'. Still exact: F'
          // rows already satisfy the folded hidden predicates.
          std::vector<RowId> basis;
          GHOSTDB_RETURN_NOT_OK(
              selector.CrossIntersect(vt, foldable, &basis));
          vt.crossed_ids = std::move(basis);
        }
        break;
      case VisStrategy::kNoFilter:
        vt.need_exact_at_projection = true;
        break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BloomBuildOp
// ---------------------------------------------------------------------------

Status BloomBuildOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  auto& ram = ctx_->ram();
  for (auto& vt : ctx_->pipeline.vis_tables) {
    if (!vt.has_filter_basis) continue;
    const std::vector<RowId>& basis = vt.filter_basis;
    // Feasibility: enough RAM for an effective filter?
    uint32_t max_buffers = std::min<uint32_t>(
        kBloomMaxBuffers,
        ram.free_buffers() > 8 ? ram.free_buffers() - 8 : 1);
    double achievable_bpe =
        basis.empty()
            ? 8.0
            : static_cast<double>(max_buffers) * ram.buffer_size() * 8 /
                  static_cast<double>(basis.size());
    achievable_bpe =
        std::min(achievable_bpe, ctx_->config->bloom_target_bpe);
    if (achievable_bpe < ctx_->config->bloom_min_bpe) {
      // The filter would pass more noise than signal: postpone the
      // selection to projection time (paper Fig 10).
      vt.need_exact_at_projection = true;
      continue;
    }
    GHOSTDB_ASSIGN_OR_RETURN(
        BloomFilter bloom,
        BloomFilter::Create(&ram, basis.size(), max_buffers,
                            ctx_->config->bloom_target_bpe));
    for (RowId id : basis) bloom.Insert(id);
    ctx_->metrics->bloom_fpr_estimate =
        std::max(ctx_->metrics->bloom_fpr_estimate,
                 bloom.EstimatedFpr(basis.size()));
    vt.bloom.emplace(std::move(bloom));
    vt.need_exact_at_projection = true;  // bloom passes false positives
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MergeOp
// ---------------------------------------------------------------------------

Status MergeOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  PipelineState& state = ctx_->pipeline;
  HiddenSelector selector(ctx_);

  // Unfolded hidden predicates contribute anchor-level groups.
  for (size_t i = 0; i < state.hidden_preds.size(); ++i) {
    if (state.folded[i]) continue;
    MergeGroup g;
    GHOSTDB_RETURN_NOT_OK(selector.CollectPredicateSublists(
        *state.hidden_preds[i], ctx_->query->anchor, &g));
    state.anchor_groups.push_back(std::move(g));
  }

  if (state.anchor_groups.empty()) {
    // Nothing restricts the anchor path: the full id universe.
    MergeGroup g;
    g.has_iota = true;
    g.iota_n = static_cast<RowId>(
        ctx_->store->tables[ctx_->query->anchor].row_count);
    state.anchor_groups.push_back(std::move(g));
  }
  return Status::OK();
}

Status MergeOp::Drive(const std::function<Status(RowId)>& sink) {
  MergeExec merge(&ctx_->flash(), &ctx_->ram(), ctx_->allocator);
  {
    auto merge_scope = ctx_->clock().Enter("merge");
    GHOSTDB_RETURN_NOT_OK(merge.Run(
        std::move(ctx_->pipeline.anchor_groups),
        ctx_->store->tables[ctx_->query->anchor].row_count, sink,
        /*reserve_buffers=*/0));
  }
  ctx_->pipeline.anchor_groups.clear();
  MergeStats& stats = ctx_->metrics->merge;
  stats.ids_emitted += merge.stats().ids_emitted;
  stats.reduction_rounds += merge.stats().reduction_rounds;
  stats.reduction_ids_written += merge.stats().reduction_ids_written;
  stats.peak_streams =
      std::max(stats.peak_streams, merge.stats().peak_streams);
  stats.window_bytes =
      std::max(stats.window_bytes, merge.stats().window_bytes);
  stats.bitmap_groups += merge.stats().bitmap_groups;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SJoinOp
// ---------------------------------------------------------------------------

Status SJoinOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  PipelineState& state = ctx_->pipeline;
  const BoundQuery& query = *ctx_->query;
  TableId anchor = query.anchor;
  const core::TableImage& anchor_image = ctx_->store->tables[anchor];
  auto& ram = ctx_->ram();
  auto& clock = ctx_->clock();
  SjState& sj = state.sj;

  // Which non-anchor tables need id columns in F'.
  {
    std::set<TableId> cols;
    for (TableId t : query.tables) {
      if (t == anchor) continue;
      if (query.ProjectsTable(t)) cols.insert(t);
    }
    for (auto& vt : state.vis_tables) {
      if (vt.table == anchor) continue;
      if (vt.bloom.has_value() || vt.post_select ||
          vt.need_exact_at_projection) {
        cols.insert(vt.table);
      }
    }
    sj.column_tables.assign(cols.begin(), cols.end());
  }
  sj.row_width = 4 + 4 * static_cast<uint32_t>(sj.column_tables.size());
  bool need_sjoin = !sj.column_tables.empty();

  // Probe offsets for bloom-filtered tables.
  for (auto& vt : state.vis_tables) {
    if (!vt.bloom.has_value()) continue;
    auto off = sj.ColumnOffset(vt.table, anchor);
    if (!off.has_value()) {
      return Status::Internal("bloom table missing from F' columns");
    }
    vt.probe_offset = *off;
  }

  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard out_buf,
                           device::RamGuard::AcquireOne(&ram, "fprime-writer"));
  storage::RunWriter writer(&ctx_->flash(), ctx_->allocator, out_buf.data(),
                            "fprime");

  if (need_sjoin) {
    if (!anchor_image.skt.has_value()) {
      return Status::Internal("anchor table has no SKT");
    }
    std::vector<uint32_t> slots;
    for (TableId t : sj.column_tables) {
      auto slot = anchor_image.SktSlotOf(t);
      if (!slot.has_value()) {
        return Status::Internal("table missing from anchor SKT");
      }
      slots.push_back(*slot);
    }
    GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard skt_buf,
                             device::RamGuard::AcquireOne(&ram, "sjoin-skt"));
    SJoinStage sjoin(
        &ctx_->flash(), &anchor_image.skt.value(), slots, skt_buf.data(),
        [&](const uint8_t* row, uint32_t width) -> Status {
          // ProbeBF stages, pipelined.
          for (auto& vt : state.vis_tables) {
            if (vt.bloom.has_value() &&
                !vt.bloom->MightContain(
                    DecodeFixed32(row + vt.probe_offset))) {
              return Status::OK();
            }
          }
          auto store_scope = clock.Enter("store");
          sj.rows += 1;
          return writer.Append(row, width);
        });
    GHOSTDB_RETURN_NOT_OK(merge_->Drive([&](RowId id) {
      auto sjoin_scope = clock.Enter("sjoin");
      return sjoin.Consume(id);
    }));
  } else {
    GHOSTDB_RETURN_NOT_OK(merge_->Drive([&](RowId id) {
      auto store_scope = clock.Enter("store");
      sj.rows += 1;
      uint8_t enc[4];
      EncodeFixed32(enc, id);
      return writer.Append(enc, 4);
    }));
  }
  GHOSTDB_ASSIGN_OR_RETURN(sj.fprime, writer.Finish());
  out_buf.Release();

  // Release QEP_SJ blooms: projection rebuilds its own (paper section 5).
  for (auto& vt : state.vis_tables) vt.bloom.reset();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PostSelectOp
// ---------------------------------------------------------------------------

Status PostSelectOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  PipelineState& state = ctx_->pipeline;
  SjState& sj = state.sj;
  for (auto& vt : state.vis_tables) {
    if (!vt.post_select) continue;
    auto off = sj.ColumnOffset(vt.table, ctx_->query->anchor);
    if (!off.has_value()) {
      return Status::Internal("post-select table missing from F'");
    }
    auto scope = ctx_->clock().Enter("post-select");
    GHOSTDB_ASSIGN_OR_RETURN(
        SjState filtered,
        Filter(sj, *off, vt.crossed_ids ? *vt.crossed_ids : vt.ids));
    filtered.column_tables = sj.column_tables;
    filtered.row_width = sj.row_width;
    GHOSTDB_RETURN_NOT_OK(
        storage::FreeRun(ctx_->allocator, sj.fprime, "fprime"));
    sj.fprime = std::move(filtered.fprime);
    sj.rows = filtered.rows;
  }
  return Status::OK();
}

Result<SjState> PostSelectOp::Filter(const SjState& sj, uint32_t probe_offset,
                                     const std::vector<RowId>& ids) {
  auto& ram = ctx_->ram();
  // Chunked exact filtering: load as many probe ids into RAM as fit, scan
  // F' per chunk, merge the per-chunk outputs back into anchor-id order.
  uint32_t free = ram.free_buffers();
  if (free < 4) {
    return Status::ResourceExhausted("post-select needs 4 buffers");
  }
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard chunk_buf,
                           device::RamGuard::Acquire(&ram, free - 3, "post-select-chunk"));
  size_t chunk_capacity = chunk_buf.size() / 4;
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard io_bufs,
                           device::RamGuard::Acquire(&ram, 2, "post-select-io"));

  std::vector<storage::RunRef> chunk_runs;
  uint64_t kept = 0;
  for (size_t base = 0; base < std::max<size_t>(ids.size(), 1);
       base += chunk_capacity) {
    size_t end = std::min(ids.size(), base + chunk_capacity);
    RowRunReader reader(&ctx_->flash(), sj.fprime, sj.row_width,
                        io_bufs.data());
    GHOSTDB_RETURN_NOT_OK(reader.Prime());
    storage::RunWriter writer(&ctx_->flash(), ctx_->allocator,
                              io_bufs.data() + ram.buffer_size(), "fprime");
    while (reader.valid()) {
      RowId probe = DecodeFixed32(reader.row() + probe_offset);
      bool hit = std::binary_search(ids.begin() + static_cast<long>(base),
                                    ids.begin() + static_cast<long>(end),
                                    probe);
      if (hit) {
        GHOSTDB_RETURN_NOT_OK(writer.Append(reader.row(), sj.row_width));
        kept += 1;
      }
      GHOSTDB_RETURN_NOT_OK(reader.Advance());
    }
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef run, writer.Finish());
    chunk_runs.push_back(std::move(run));
    if (ids.empty()) break;
  }
  chunk_buf.Release();
  io_bufs.Release();
  GHOSTDB_RETURN_NOT_OK(MergeRowRunsBy(
      &ctx_->flash(), &ram, ctx_->allocator, &chunk_runs, sj.row_width, 1,
      "fprime", RowComparator::LeadingU32(), /*drop_key_duplicates=*/false));
  SjState out;
  out.fprime = chunk_runs.empty() ? storage::RunRef{} : chunk_runs[0];
  out.rows = kept;
  return out;
}

}  // namespace ghostdb::exec
