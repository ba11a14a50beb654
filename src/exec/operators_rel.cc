#include "exec/operators_rel.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/coding.h"
#include "exec/executor.h"
#include "untrusted/engine.h"

namespace ghostdb::exec {

using catalog::Value;

namespace {

// ---------------------------------------------------------------------------
// Spill-row helpers: a spill row is the concatenated encoded cells of one
// output row plus a trailing u32 arrival sequence (kSpillSeqWidth), which
// makes every comparator total and every sort stable.
// ---------------------------------------------------------------------------

std::vector<uint32_t> ColumnOffsets(const BatchLayout& layout) {
  std::vector<uint32_t> offsets(layout.cols.size());
  uint32_t off = 0;
  for (size_t c = 0; c < layout.cols.size(); ++c) {
    offsets[c] = off;
    off += layout.cols[c].width;
  }
  return offsets;
}

/// Fails before a batch of `rows` would number a row past the u32 arrival
/// sequence (next_seq is the batch's first). The tail sees at most one row
/// per anchor row, so this is unreachable short of a bug; a wrapped
/// sequence would silently break the stable order instead.
Status CheckSeqRoom(uint64_t next_seq, size_t rows) {
  if (next_seq + rows > uint64_t{UINT32_MAX} + 1) {
    return Status::Internal("relational-tail arrival sequence overflow");
  }
  return Status::OK();
}

void PackRow(const ColumnBatch& batch, uint32_t physical_row,
             const std::vector<uint32_t>& offsets, uint32_t seq,
             uint8_t* row_buf) {
  for (size_t c = 0; c < batch.layout->cols.size(); ++c) {
    std::memcpy(row_buf + offsets[c], batch.cell(c, physical_row),
                batch.layout->cols[c].width);
  }
  EncodeFixed32(row_buf + batch.layout->row_width, seq);
}

/// ORDER BY keys over the spill-row encoding, ties by arrival.
RowComparator OrderByComparator(const BatchLayout& layout,
                                const std::vector<uint32_t>& offsets,
                                const std::vector<sql::BoundOrderKey>& keys) {
  std::vector<RowComparator::Key> cmp_keys;
  for (const auto& key : keys) {
    const BatchColumn& col = layout.cols[key.select_index];
    cmp_keys.push_back(
        {offsets[key.select_index], col.type, col.width, key.descending});
  }
  return RowComparator::ByKeys(std::move(cmp_keys), layout.row_width);
}

/// Relational-tail row budget for rows of `stride` bytes.
uint64_t BudgetRows(const ExecContext* ctx, uint32_t stride) {
  return std::max<uint64_t>(1, ctx->sort_budget_bytes / stride);
}

/// Appends one spill row's cells (sequence stripped) to a dense batch.
void AppendSpillRow(ColumnBatch* out, const std::vector<uint32_t>& offsets,
                    const uint8_t* row) {
  for (size_t c = 0; c < out->layout->cols.size(); ++c) {
    out->AppendBytes(c, row + offsets[c]);
  }
  out->CommitRow();
}

}  // namespace

// ---------------------------------------------------------------------------
// GatherSourceOp
// ---------------------------------------------------------------------------

Result<ColumnBatch> GatherSourceOp::Next() {
  if (done_) return ColumnBatch{};
  const GatherInput& in = *ctx_->gather_rows;
  // An all-empty merge has no bound layout; dummy-free emptiness still
  // needs a layout for the trailing skipped-row batch.
  const BatchLayout* layout =
      in.rows.row_count > 0 ? &in.rows.layout : ctx_->value_layout;
  if (offsets_.empty()) offsets_ = ColumnOffsets(*layout);
  uint64_t n = std::min<uint64_t>(ctx_->batch_rows, in.rows.row_count - pos_);
  ColumnBatch out = ColumnBatch::Make(layout, n);
  for (uint64_t r = 0; r < n; ++r, ++pos_) {
    if (emitted_ >= ctx_->rows_demanded) {
      out.skipped_rows += 1;
      continue;
    }
    const uint8_t* base =
        in.rows.cells.data() + pos_ * static_cast<size_t>(layout->row_width);
    for (size_t c = 0; c < layout->cols.size(); ++c) {
      out.AppendBytes(c, base + offsets_[c]);
    }
    out.CommitRow();
    if (ctx_->emit_row_seq) out.seqs.push_back(in.rows.seqs[pos_]);
    emitted_ += 1;
  }
  if (pos_ >= in.rows.row_count) {
    done_ = true;
    out.skipped_rows += in.skipped_rows;  // the shards' demand-skipped rows
  }
  if (out.empty()) done_ = true;
  return out;
}

// ---------------------------------------------------------------------------
// VisResultOp
// ---------------------------------------------------------------------------

bool IsVisResultKeyCell(const sql::BoundQuery& query, size_t i,
                        bool keyed_by_id) {
  return keyed_by_id && query.select[i].is_id &&
         query.select[i].agg == AggFunc::kNone;
}

device::WireLayout VisResultWireLayout(const sql::BoundQuery& query,
                                       const BatchLayout& value_layout,
                                       bool keyed_by_id) {
  BatchLayout out = HashGroupOp::OutputLayout(query, value_layout);
  device::WireLayout wire;
  for (size_t i = 0; i < out.cols.size(); ++i) {
    if (IsVisResultKeyCell(query, i, keyed_by_id)) continue;
    wire.columns.push_back({out.cols[i].type, out.cols[i].width});
  }
  return wire;
}

Status VisResultOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  const sql::BoundQuery& query = *ctx_->query;
  layout_ = HashGroupOp::OutputLayout(query, *ctx_->value_layout);
  uint32_t off = 4;
  for (size_t i = 0; i < layout_.cols.size(); ++i) {
    if (IsVisResultKeyCell(query, i, keyed_by_id_)) {
      cell_offsets_.push_back(-1);
      continue;
    }
    cell_offsets_.push_back(off);
    off += layout_.cols[i].width;
  }
  row_width_ = off;
  // Anchor ids lie below the anchor's (fleet-wide) row count, and the
  // tail emits at most one row per anchor row (or the one aggregate row),
  // so positions do too.
  const core::TableImage& anchor = ctx_->store->tables[query.anchor];
  uint64_t key_limit = std::max<uint64_t>(
      1, anchor.global_row_count != 0 ? anchor.global_row_count
                                      : anchor.row_count);
  device::WireLayout wire =
      VisResultWireLayout(query, *ctx_->value_layout, keyed_by_id_);
  GHOSTDB_ASSIGN_OR_RETURN(
      rows_, ReceiveVisibleResult(ctx_, query.anchor, wire, key_limit));
  if (keyed_by_id_) return Status::OK();
  // A scatter leg carries one range of the positions; the coordinator
  // checks that the legs' ranges tile 0..n-1.
  return device::CheckPositionKeys(rows_, wire,
                                   /*any_first=*/ctx_->emit_row_seq);
}

Result<ColumnBatch> VisResultOp::Next() {
  if (pos_ >= rows_.rows) return ColumnBatch{};
  uint64_t n = std::min<uint64_t>(ctx_->batch_rows, rows_.rows - pos_);
  ColumnBatch out = ColumnBatch::Make(&layout_, n);
  for (uint64_t r = 0; r < n; ++r, ++pos_) {
    if (emitted_ >= ctx_->rows_demanded) {
      out.skipped_rows += 1;
      continue;
    }
    const uint8_t* row =
        rows_.bytes.data() + pos_ * static_cast<size_t>(row_width_);
    for (size_t c = 0; c < cell_offsets_.size(); ++c) {
      // A key cell is the key itself: an INT cell is its fixed32 bytes.
      out.AppendBytes(c, cell_offsets_[c] < 0 ? row : row + cell_offsets_[c]);
    }
    out.CommitRow();
    if (ctx_->emit_row_seq) out.seqs.push_back(DecodeFixed32(row));
    emitted_ += 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// HashGroupOp
// ---------------------------------------------------------------------------

namespace {

/// Budget estimate for one held hash group: the canonical map key plus
/// the raw key cells (both key_width bytes), the accumulators, and a fixed
/// container overhead. A pure function of the visible query shape.
size_t GroupBytes(size_t key_width, size_t agg_count) {
  return 2 * key_width + agg_count * sizeof(Aggregator) + 64;
}

}  // namespace

BatchLayout HashGroupOp::OutputLayout(const sql::BoundQuery& query,
                                      const BatchLayout& in) {
  BatchLayout out;
  for (size_t i = 0; i < query.select.size(); ++i) {
    const BatchColumn& col = in.cols[i];
    if (query.select[i].agg == AggFunc::kNone) {
      out.Add(col.type, col.width);
      continue;
    }
    catalog::DataType type =
        Aggregator(query.select[i].agg, col.type, col.width).OutputType();
    out.Add(type, type == col.type ? col.width : catalog::FixedWidth(type));
  }
  return out;
}

Status HashGroupOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  in_layout_ = ctx_->value_layout;
  const auto& select = ctx_->query->select;
  for (size_t i = 0; i < select.size(); ++i) {
    (select[i].agg == AggFunc::kNone ? key_items_ : agg_items_).push_back(i);
  }
  streaming_ = agg_items_.empty();
  out_layout_ = OutputLayout(*ctx_->query, *in_layout_);
  out_offsets_ = ColumnOffsets(out_layout_);
  // Partial spill-row layout: key cells, then each aggregate's encoded
  // partial state, then the arrival sequence. All widths are pure
  // functions of the visible query shape.
  uint32_t off = 0;
  for (size_t i : key_items_) {
    spill_key_offsets_.push_back(off);
    off += in_layout_->cols[i].width;
  }
  for (size_t i : agg_items_) {
    spill_agg_offsets_.push_back(off);
    off += Aggregator::PartialWidth(select[i].agg, in_layout_->cols[i].type,
                                    in_layout_->cols[i].width);
  }
  spill_seq_offset_ = off;
  spill_stride_ = off + kSpillSeqWidth;
  row_buf_.resize(spill_stride_);
  out_buf_.resize(out_layout_.row_width + kSpillSeqWidth);
  std::vector<RowComparator::Key> keys;
  for (size_t k = 0; k < key_items_.size(); ++k) {
    size_t i = key_items_[k];
    keys.push_back({spill_key_offsets_[k], in_layout_->cols[i].type,
                    in_layout_->cols[i].width, false});
  }
  key_cmp_ = RowComparator::ByKeys(std::move(keys), spill_seq_offset_);
  // No keys: the one group exists from the start, so rows fold straight
  // into it and an empty input still has a group to judge.
  if (key_items_.empty()) {
    Group g;
    g.aggs = MakeAggregators();
    groups_.push_back(std::move(g));
  }
  return Status::OK();
}

std::vector<Aggregator> HashGroupOp::MakeAggregators() const {
  std::vector<Aggregator> aggs;
  aggs.reserve(agg_items_.size());
  for (size_t i : agg_items_) {
    aggs.emplace_back(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                      in_layout_->cols[i].width);
  }
  return aggs;
}

Status HashGroupOp::AccumulateInto(Group* g, const ColumnBatch& batch,
                                   uint32_t row) {
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    if (ctx_->query->select[i].agg == AggFunc::kCountStar) {
      g->aggs[j].AccumulateRow();
    } else {
      GHOSTDB_RETURN_NOT_OK(g->aggs[j].AccumulateEncoded(batch.cell(i, row)));
    }
  }
  return Status::OK();
}

Status HashGroupOp::Absorb(const ColumnBatch& batch,
                           std::vector<uint32_t>* fresh) {
  GHOSTDB_RETURN_NOT_OK(CheckSeqRoom(seq_, batch.live()));
  std::string key;
  for (size_t r = 0; r < batch.live(); ++r) {
    uint32_t row = batch.row_at(r);
    auto seq = static_cast<uint32_t>(seq_++);
    key.clear();
    for (size_t i : key_items_) batch.AppendCellKey(i, row, &key);
    // Known groups — frozen or not — keep folding in place: no new memory
    // either way. A streamed group has nothing left to fold.
    auto it = index_.find(std::string_view(key));
    if (it != index_.end()) {
      if (!streaming_) {
        GHOSTDB_RETURN_NOT_OK(
            AccumulateInto(&groups_[it->second], batch, row));
      }
      continue;
    }
    if (!spilling_) {
      size_t bytes = streaming_ ? key.size()
                                : GroupBytes(key.size(), agg_items_.size());
      if (table_bytes_ + bytes <= ctx_->sort_budget_bytes) {
        table_bytes_ += bytes;
        index_.emplace(key, groups_.size());  // only new keys allocate
        if (streaming_) {
          // The group is complete: its first row leaves now, only its key
          // stays resident.
          fresh->push_back(row);
          continue;
        }
        Group g;
        g.key_cells.reserve(key.size());
        for (size_t i : key_items_) {
          const uint8_t* src = batch.cell(i, row);
          g.key_cells.insert(g.key_cells.end(), src,
                             src + in_layout_->cols[i].width);
        }
        g.aggs = MakeAggregators();
        GHOSTDB_RETURN_NOT_OK(AccumulateInto(&g, batch, row));
        groups_.push_back(std::move(g));
        continue;
      }
      StartSpill();
    }
    // A new group past the budget: reroute the row through sort-based
    // grouping as a single-row partial.
    GHOSTDB_RETURN_NOT_OK(PackPartialRow(batch, row, seq));
    GHOSTDB_RETURN_NOT_OK(by_key_->Add(row_buf_.data()));
  }
  return Status::OK();
}

void HashGroupOp::StartSpill() {
  // Phase A clusters rows of one group adjacently (key cells ascending;
  // CompareEncoded makes ±0.0 doubles one group, matching the canonical
  // hash key) with arrival ties, so each group's partials fold in arrival
  // order and the group's first row (whose raw key cells the output shows,
  // and whose sequence the group keeps) pops first. The sorter collapses
  // key-equal rows at run-write time — dropping later arrivals when there
  // is no aggregate state, folding their partials otherwise — so each
  // spill run holds at most one row per group: spill volume scales with
  // distinct groups, not input rows.
  by_key_ = std::make_unique<ExternalRowSorter>(
      ctx_, spill_stride_, key_cmp_, BudgetRows(ctx_, spill_stride_),
      /*drop_key_duplicates=*/agg_items_.empty(), "group-spill");
  if (!agg_items_.empty()) {
    by_key_->set_fold([this](uint8_t* acc, const uint8_t* row) {
      return FoldPartialRow(acc, row);
    });
  }
  spilling_ = true;
}

Status HashGroupOp::PackPartialRow(const ColumnBatch& batch, uint32_t row,
                                   uint32_t seq) {
  for (size_t k = 0; k < key_items_.size(); ++k) {
    size_t i = key_items_[k];
    std::memcpy(row_buf_.data() + spill_key_offsets_[k], batch.cell(i, row),
                in_layout_->cols[i].width);
  }
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    Aggregator a(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                 in_layout_->cols[i].width);
    if (ctx_->query->select[i].agg == AggFunc::kCountStar) {
      a.AccumulateRow();
    } else {
      GHOSTDB_RETURN_NOT_OK(a.AccumulateEncoded(batch.cell(i, row)));
    }
    a.EncodePartial(row_buf_.data() + spill_agg_offsets_[j]);
  }
  EncodeFixed32(row_buf_.data() + spill_seq_offset_, seq);
  return Status::OK();
}

Status HashGroupOp::FoldPartialRow(uint8_t* acc, const uint8_t* row) {
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    Aggregator a(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                 in_layout_->cols[i].width);
    GHOSTDB_RETURN_NOT_OK(a.AccumulatePartial(acc + spill_agg_offsets_[j]));
    GHOSTDB_RETURN_NOT_OK(a.AccumulatePartial(row + spill_agg_offsets_[j]));
    a.EncodePartial(acc + spill_agg_offsets_[j]);
  }
  return Status::OK();
}

Status HashGroupOp::FinishSpill() {
  uint32_t out_stride = out_layout_.row_width + kSpillSeqWidth;
  by_arrival_ = std::make_unique<ExternalRowSorter>(
      ctx_, out_stride, RowComparator::ByKeys({}, out_layout_.row_width),
      BudgetRows(ctx_, out_stride), /*drop_key_duplicates=*/false,
      "group-arrival");
  GHOSTDB_RETURN_NOT_OK(by_key_->Finish());
  // Cross-run duplicates emerge key-adjacent (each run was collapsed at
  // write time, so at most one partial per group per run remains).
  std::vector<uint8_t> acc;  // current group's folded partial row
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, by_key_->Next());
    if (row == nullptr) break;
    if (!acc.empty() && key_cmp_.CompareKeys(row, acc.data()) == 0) {
      GHOSTDB_RETURN_NOT_OK(FoldPartialRow(acc.data(), row));
      continue;
    }
    if (!acc.empty()) GHOSTDB_RETURN_NOT_OK(FlushSpillGroup(acc.data()));
    acc.assign(row, row + spill_stride_);
  }
  if (!acc.empty()) GHOSTDB_RETURN_NOT_OK(FlushSpillGroup(acc.data()));
  GHOSTDB_RETURN_NOT_OK(by_key_->Close());  // phase A flash freed here
  return by_arrival_->Finish();
}

Status HashGroupOp::FlushSpillGroup(const uint8_t* partial) {
  size_t key_idx = 0, agg_idx = 0;
  for (size_t i = 0; i < out_layout_.cols.size(); ++i) {
    if (ctx_->query->select[i].agg == AggFunc::kNone) {
      std::memcpy(out_buf_.data() + out_offsets_[i],
                  partial + spill_key_offsets_[key_idx],
                  in_layout_->cols[i].width);
      key_idx += 1;
    } else {
      size_t j = agg_idx++;
      size_t si = agg_items_[j];
      Aggregator a(ctx_->query->select[si].agg, in_layout_->cols[si].type,
                   in_layout_->cols[si].width);
      GHOSTDB_RETURN_NOT_OK(
          a.AccumulatePartial(partial + spill_agg_offsets_[j]));
      GHOSTDB_ASSIGN_OR_RETURN(Value v, a.Finish());
      v.Encode(out_buf_.data() + out_offsets_[i], out_layout_.cols[i].width);
    }
  }
  // Phase B restores first-arrival order over the folded groups.
  EncodeFixed32(out_buf_.data() + out_layout_.row_width,
                DecodeFixed32(partial + spill_seq_offset_));
  return by_arrival_->Add(out_buf_.data());
}

Result<ColumnBatch> HashGroupOp::Emit() {
  const auto& select = ctx_->query->select;
  ColumnBatch out = ColumnBatch::Make(
      &out_layout_, std::min<uint64_t>(ctx_->batch_rows, 256));
  while (out.rows < ctx_->batch_rows) {
    if (emit_group_ < groups_.size()) {
      Group& g = groups_[emit_group_++];
      // GhostDB has no NULLs, so SQL's "row of NULLs" for a value
      // aggregate with nothing to fold becomes no row (COUNT-only groups
      // keep their zero row). Only the keyless group can be empty. The
      // reference oracle enforces the same rule.
      bool renders = true;
      for (size_t j = 0; j < agg_items_.size(); ++j) {
        renders &= !AggRequiresInput(select[agg_items_[j]].agg) ||
                   g.aggs[j].has_input();
      }
      if (!renders) continue;
      size_t key_off = 0, agg_idx = 0;
      for (size_t i = 0; i < out_layout_.cols.size(); ++i) {
        if (select[i].agg == AggFunc::kNone) {
          out.AppendBytes(i, g.key_cells.data() + key_off);
          key_off += in_layout_->cols[i].width;
        } else {
          GHOSTDB_ASSIGN_OR_RETURN(Value v, g.aggs[agg_idx++].Finish());
          v.Encode(out.AppendCell(i), out_layout_.cols[i].width);
        }
      }
      out.CommitRow();
      continue;
    }
    if (by_arrival_ == nullptr) break;
    GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, by_arrival_->Next());
    if (row == nullptr) break;
    AppendSpillRow(&out, out_offsets_, row);
  }
  if (out.rows == 0) done_ = true;
  return out;
}

Result<ColumnBatch> HashGroupOp::Next() {
  if (done_) return ColumnBatch{};
  if (emitting_) return Emit();
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (batch.empty()) break;
    if (key_items_.empty()) {
      for (size_t r = 0; r < batch.live(); ++r) {
        GHOSTDB_RETURN_NOT_OK(
            AccumulateInto(&groups_[0], batch, batch.row_at(r)));
      }
      continue;
    }
    std::vector<uint32_t> fresh;
    GHOSTDB_RETURN_NOT_OK(Absorb(batch, &fresh));
    if (!fresh.empty()) {
      // Streamed groups leave as a selection over the same batch,
      // copy-free. All-known batches loop: an empty batch would end the
      // stream.
      batch.selection = std::move(fresh);
      batch.has_selection = true;
      batch.skipped_rows = 0;
      return batch;
    }
  }
  if (spilling_) GHOSTDB_RETURN_NOT_OK(FinishSpill());
  emitting_ = true;
  return Emit();
}

Status HashGroupOp::Close() {
  // Whether this operator spills — and whether a LIMIT above abandons it
  // mid-spill — depends on the hidden-filtered group count, so under
  // spill-run padding each phase that did not reach Finish() writes its
  // padded dummy-run signature (CloseSorterPhase). The keyless group is
  // never charged to the budget, so it never pads. A failing step must not
  // strand the other phase's runs or the children's resources, so the
  // first error is deferred.
  Status first;
  auto keep = [&first](Status s) {
    if (first.ok() && !s.ok()) first = std::move(s);
  };
  bool pad = !key_items_.empty();
  keep(CloseSorterPhase(ctx_, by_key_.get(), pad, spill_stride_,
                        "group-spill"));
  keep(CloseSorterPhase(ctx_, by_arrival_.get(),
                        pad && first.ok(),
                        out_layout_.row_width + kSpillSeqWidth,
                        "group-arrival"));
  keep(Operator::Close());
  return first;
}

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

Status SortOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  layout_ = HashGroupOp::OutputLayout(*ctx_->query, *ctx_->value_layout);
  offsets_ = ColumnOffsets(layout_);
  stride_ = layout_.row_width + kSpillSeqWidth;
  row_buf_.resize(stride_);
  cmp_ = OrderByComparator(layout_, offsets_, ctx_->query->order_by);
  heap_mode_ = limit_ <= BudgetRows(ctx_, stride_);
  return Status::OK();
}

void SortOp::Offer(const uint8_t* row) {
  auto heap_less = [this](uint32_t a, uint32_t b) {
    return cmp_.Compare(Slot(a), Slot(b)) < 0;
  };
  if (heap_.size() < limit_) {
    uint32_t slot = static_cast<uint32_t>(heap_.size());
    arena_.insert(arena_.end(), row, row + stride_);
    heap_.push_back(slot);
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
    return;
  }
  // Heap top = the worst kept row. A later arrival with equal keys
  // compares greater (arrival tie-break), so it is rejected — exactly the
  // stable Sort -> Limit semantics.
  if (cmp_.Compare(row, Slot(heap_.front())) >= 0) {
    short_circuits_ += 1;
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), heap_less);
  uint32_t slot = heap_.back();
  std::copy(row, row + stride_,
            arena_.begin() + static_cast<size_t>(slot) * stride_);
  std::push_heap(heap_.begin(), heap_.end(), heap_less);
}

Status SortOp::Gather() {
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (batch.empty()) break;
    if (heap_mode_ && arena_.empty()) {
      arena_.reserve(static_cast<size_t>(limit_) * stride_);
    } else if (!heap_mode_ && sorter_ == nullptr) {
      sorter_ = std::make_unique<ExternalRowSorter>(
          ctx_, stride_, cmp_, BudgetRows(ctx_, stride_),
          /*drop_key_duplicates=*/false, "sort-spill");
    }
    GHOSTDB_RETURN_NOT_OK(CheckSeqRoom(seq_, batch.live()));
    for (size_t r = 0; r < batch.live(); ++r) {
      PackRow(batch, batch.row_at(r), offsets_, static_cast<uint32_t>(seq_++),
              row_buf_.data());
      if (heap_mode_) {
        Offer(row_buf_.data());
      } else {
        GHOSTDB_RETURN_NOT_OK(sorter_->Add(row_buf_.data()));
      }
    }
  }
  if (sorter_ != nullptr) return sorter_->Finish();
  order_ = heap_;
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return cmp_.Compare(Slot(a), Slot(b)) < 0;
  });
  return Status::OK();
}

Result<ColumnBatch> SortOp::Next() {
  // LIMIT 0 never pulls the child, like LimitOp.
  if (done_ || limit_ == 0) return ColumnBatch{};
  if (!gathered_) {
    GHOSTDB_RETURN_NOT_OK(Gather());
    gathered_ = true;
  }
  ColumnBatch out = ColumnBatch::Make(
      &layout_, std::min<uint64_t>({ctx_->batch_rows, limit_, 256}));
  while (out.rows < ctx_->batch_rows && emitted_ < limit_) {
    const uint8_t* row = nullptr;
    if (sorter_ != nullptr) {
      GHOSTDB_ASSIGN_OR_RETURN(row, sorter_->Next());
    } else if (emit_pos_ < order_.size()) {
      row = Slot(order_[emit_pos_++]);
    }
    if (row == nullptr) {
      done_ = true;
      break;
    }
    AppendSpillRow(&out, offsets_, row);
    emitted_ += 1;
  }
  if (emitted_ >= limit_) done_ = true;
  return out;
}

Status SortOp::Close() {
  ctx_->metrics->topk_short_circuits += short_circuits_;
  // Only sort mode has a sorter, a visible decision (k against the
  // budget); an empty hidden-filtered input never created it, so it pads
  // here under spill-run padding. Children close even when the sorter's
  // teardown failed.
  Status first = CloseSorterPhase(ctx_, sorter_.get(),
                                  !heap_mode_ && stride_ != 0, stride_,
                                  "sort-spill");
  Status children = Operator::Close();
  return first.ok() ? children : first;
}

// ---------------------------------------------------------------------------
// VolumePadOp
// ---------------------------------------------------------------------------

Status VolumePadOp::Open() {
  const sql::BoundQuery& query = *ctx_->query;
  if (ctx_->config->volume_padding == VolumePadding::kWorstCase &&
      query.GroupsOnVisibleAnchorKeys(*ctx_->schema)) {
    GHOSTDB_ASSIGN_OR_RETURN(
        const std::vector<uint8_t>* message,
        ctx_->untrusted->ServeVisibleDistinct(query.anchor,
                                              ctx_->vis_prefetch));
    if (message->size() != 8) {
      return Status::InvalidArgument("malformed vis-distinct message");
    }
    distinct_key_bound_ = DecodeFixed64(message->data());
  }
  return Operator::Open();
}

Result<uint64_t> VolumePadOp::PaddedTarget(uint64_t real) const {
  switch (ctx_->config->volume_padding) {
    case VolumePadding::kOff:
      return real;
    case VolumePadding::kQuantize:
      // Buckets are powers of two; an empty result pads into the first
      // bucket, so emptiness is only distinguishable from volumes > 1.
      return NextPowerOfTwo(real);
    case VolumePadding::kWorstCase: {
      // Visible worst case: one result row per anchor row that passes the
      // anchor's visible predicates (padding_row_bound), or per distinct
      // visible key tuple among those rows when the statement groups on
      // visible anchor keys. A non-grouped aggregate emits 0 or 1 rows;
      // LIMIT caps the stream above us. Every bound is visible, so the
      // target — and with it the observed volume — is identical across
      // hidden variants.
      uint64_t bound = std::min(ctx_->padding_row_bound, distinct_key_bound_);
      if (ctx_->query->HasAggregates() && !ctx_->query->grouped()) {
        bound = 1;
      }
      if (ctx_->query->limit.has_value()) {
        bound = std::min<uint64_t>(bound, *ctx_->query->limit);
      }
      if (real > bound) {
        return Status::Internal("worst-case padding: the real volume exceeds "
                                "the visible bound " + std::to_string(bound));
      }
      return bound;
    }
  }
  return real;
}

ColumnBatch VolumePadOp::DummyBatch(uint64_t rows) {
  ColumnBatch out = ColumnBatch::Make(layout_, rows);
  for (uint64_t r = 0; r < rows; ++r) {
    // Zero cells, really written: dummy rows cost the same secure-memory
    // work per row as real ones, which is the point of the defense.
    for (size_t c = 0; c < layout_->cols.size(); ++c) out.AppendCell(c);
    out.CommitRow();
  }
  out.padding_rows = rows;
  return out;
}

Result<ColumnBatch> VolumePadOp::Next() {
  if (done_) return ColumnBatch{};
  if (!draining_) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (!batch.empty()) {
      if (layout_ == nullptr) layout_ = batch.layout;
      real_rows_ += batch.live() + batch.skipped_rows;
      return batch;
    }
    draining_ = true;
    if (layout_ == nullptr) layout_ = ctx_->value_layout;
    GHOSTDB_ASSIGN_OR_RETURN(uint64_t target, PaddedTarget(real_rows_));
    dummies_left_ = std::min(target - real_rows_, kDummyRowCap);
    if (dummies_left_ > 0) {
      // Charge the dummies as if they crossed the padded result link at
      // channel throughput — the simulated-cost overhead the leakage
      // bench reports. Clock time is secure-side (the transcript records
      // no timestamps), so the charge itself leaks nothing.
      auto scope = ctx_->clock().Enter("padding");
      double bps = ctx_->device->channel().throughput();
      uint64_t bytes = dummies_left_ * layout_->row_width;
      ctx_->clock().Advance(static_cast<SimNanos>(
          static_cast<double>(bytes) * 1e9 / bps));
    }
  }
  if (dummies_left_ == 0) {
    done_ = true;
    return ColumnBatch{};
  }
  uint64_t rows = std::min<uint64_t>(dummies_left_, ctx_->batch_rows);
  dummies_left_ -= rows;
  return DummyBatch(rows);
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

Result<ColumnBatch> LimitOp::Next() {
  if (emitted_ >= limit_) return ColumnBatch{};
  GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
  if (batch.empty()) return batch;
  uint64_t room = limit_ - emitted_;
  if (batch.live() > room) {
    std::vector<uint32_t> keep;
    keep.reserve(static_cast<size_t>(room));
    for (size_t r = 0; r < room; ++r) keep.push_back(batch.row_at(r));
    batch.selection = std::move(keep);
    batch.has_selection = true;
  }
  batch.skipped_rows = 0;  // rows beyond the limit do not exist
  emitted_ += batch.live();
  return batch;
}

}  // namespace ghostdb::exec
