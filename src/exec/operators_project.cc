#include "exec/operators_project.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/coding.h"

namespace ghostdb::exec {

using catalog::ColumnId;
using catalog::RowId;
using catalog::TableId;
using catalog::Value;
using sql::BoundQuery;

namespace {

VisTable* VisTableOf(PipelineState& state, TableId t) {
  for (auto& vt : state.vis_tables) {
    if (vt.table == t) return &vt;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProjectOp: the section 4 Project algorithm (and its NoBF ablation)
// ---------------------------------------------------------------------------

Status ProjectOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  auto& ram = ctx_->ram();
  auto& clock = ctx_->clock();
  auto scope = clock.Enter("project");
  PipelineState& state = ctx_->pipeline;
  const BoundQuery& query = *ctx_->query;
  const SjState& sj = state.sj;
  TableId anchor = query.anchor;

  // Which non-anchor tables need the MJoin treatment: projected value
  // columns, or exactness recovery for approximate QEP_SJ filtering.
  for (TableId t : query.tables) {
    if (t == anchor) continue;
    MJoinTable mt;
    mt.table = t;
    mt.vis_cols = query.ProjectedVisibleColumns(*ctx_->schema, t);
    mt.hid_cols = query.ProjectedHiddenColumns(*ctx_->schema, t);
    VisTable* vt = VisTableOf(state, t);
    bool exact_needed = vt != nullptr && vt->need_exact_at_projection;
    if (mt.vis_cols.empty() && mt.hid_cols.empty() && !exact_needed) {
      continue;
    }
    for (ColumnId c : mt.vis_cols) {
      mt.vis_width += ctx_->schema->table(t).columns[c].width;
    }
    for (ColumnId c : mt.hid_cols) {
      mt.hid_width += ctx_->schema->table(t).columns[c].width;
    }
    mt.out_width = 4 + mt.vis_width + mt.hid_width;
    mt.has_vis_side = vt != nullptr || !mt.vis_cols.empty();
    mjoin_.push_back(std::move(mt));
  }

  // Step 1: vertical partitioning — one pass over F' writes each needed
  // Ti.id column run (root-order, duplicates preserved).
  if (!mjoin_.empty()) {
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard bufs,
        device::RamGuard::Acquire(&ram, static_cast<uint32_t>(mjoin_.size()) + 1,
                    "project-partition"));
    RowRunReader reader(&ctx_->flash(), sj.fprime, sj.row_width,
                        bufs.data());
    GHOSTDB_RETURN_NOT_OK(reader.Prime());
    std::vector<std::unique_ptr<storage::RunWriter>> writers;
    std::vector<uint32_t> offsets;
    for (size_t i = 0; i < mjoin_.size(); ++i) {
      writers.push_back(std::make_unique<storage::RunWriter>(
          &ctx_->flash(), ctx_->allocator,
          bufs.data() + (i + 1) * ram.buffer_size(), "project-col"));
      auto off = sj.ColumnOffset(mjoin_[i].table, anchor);
      if (!off.has_value()) {
        return Status::Internal("projected table missing from F'");
      }
      offsets.push_back(*off);
    }
    while (reader.valid()) {
      for (size_t i = 0; i < mjoin_.size(); ++i) {
        GHOSTDB_RETURN_NOT_OK(
            writers[i]->Append(reader.row() + offsets[i], 4));
      }
      GHOSTDB_RETURN_NOT_OK(reader.Advance());
    }
    for (size_t i = 0; i < mjoin_.size(); ++i) {
      GHOSTDB_ASSIGN_OR_RETURN(mjoin_[i].column_run, writers[i]->Finish());
    }
  }

  // Step 2+3: per table, Bloom over the column, probe Vis, MJoin passes.
  for (auto& mt : mjoin_) {
    const core::TableImage& image = ctx_->store->tables[mt.table];

    // Vis values stream (charged): rows passing Ti's visible predicates.
    if (mt.has_vis_side) {
      GHOSTDB_ASSIGN_OR_RETURN(
          mt.payload, ReceiveVisibleValues(ctx_, VisTableOf(state, mt.table),
                                           mt.table, mt.vis_cols));
    }

    // Bloom over QEPSJ.Ti.id, sized to the whole remaining RAM (paper
    // section 5), minus what MJoin needs to stream.
    std::optional<BloomFilter> bloom;
    if (use_bf_) {
      uint32_t max_buffers =
          ram.free_buffers() > 8 ? ram.free_buffers() - 8 : 1;
      GHOSTDB_ASSIGN_OR_RETURN(
          BloomFilter bf,
          BloomFilter::Create(&ram, sj.rows, max_buffers,
                              ctx_->config->bloom_target_bpe));
      GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard col_buf,
                               device::RamGuard::AcquireOne(&ram, "project-bf-scan"));
      storage::IdRunReader ids(&ctx_->flash(), mt.column_run,
                               col_buf.data());
      GHOSTDB_RETURN_NOT_OK(ids.Prime());
      while (ids.valid()) {
        bf.Insert(ids.head());
        GHOSTDB_RETURN_NOT_OK(ids.Advance());
      }
      bloom.emplace(std::move(bf));
    }

    // MJoin: stream [σVH ids (+vis values)] ⋈ TiH into RAM chunks; per
    // chunk, scan QEPSJ.Ti.id and emit <pos, vlist, hlist>.
    uint32_t reserve = 3;  // column reader + output writer + TiH reader
    if (ram.free_buffers() <= reserve) {
      return Status::ResourceExhausted("mjoin needs more buffers");
    }
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard chunk_buf,
        device::RamGuard::Acquire(&ram, ram.free_buffers() - reserve, "mjoin-chunk"));
    GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard io_bufs,
                             device::RamGuard::Acquire(&ram, 3, "mjoin-io"));
    uint32_t entry_width = 4 + mt.vis_width + mt.hid_width;
    size_t chunk_capacity =
        std::max<size_t>(1, chunk_buf.size() / entry_width);

    std::optional<storage::FixedTableReader> hid_reader;
    std::vector<uint8_t> hid_row;
    if (!mt.hid_cols.empty()) {
      if (!image.hidden_image.has_value()) {
        return Status::Internal("hidden projection without hidden image");
      }
      hid_reader.emplace(&ctx_->flash(), image.hidden_image.value(),
                         io_bufs.data() + 2 * ram.buffer_size());
      hid_row.resize(image.hidden_image->row_width);
    }

    // σVH iteration state: either the payload rows or the id universe.
    uint64_t payload_pos = 0;
    RowId iota_next = 0;
    RowId iota_n = static_cast<RowId>(image.row_count);
    auto next_entry = [&](RowId* id, const uint8_t** values) -> bool {
      while (true) {
        if (mt.has_vis_side) {
          if (payload_pos >= mt.payload.rows) return false;
          const uint8_t* row =
              mt.payload.bytes.data() + payload_pos * mt.payload.row_width;
          *id = DecodeFixed32(row);
          *values = row + 4;
          payload_pos += 1;
        } else {
          if (iota_next >= iota_n) return false;
          *id = iota_next++;
          *values = nullptr;
        }
        if (bloom.has_value() && !bloom->MightContain(*id)) continue;
        return true;
      }
    };

    std::vector<RowId> chunk_ids;
    std::vector<uint8_t> chunk_values;  // vis+hid per entry
    chunk_ids.reserve(chunk_capacity);
    bool stream_done = false;
    while (!stream_done) {
      chunk_ids.clear();
      chunk_values.clear();
      while (chunk_ids.size() < chunk_capacity) {
        RowId id;
        const uint8_t* values = nullptr;
        if (!next_entry(&id, &values)) {
          stream_done = true;
          break;
        }
        chunk_ids.push_back(id);
        size_t base = chunk_values.size();
        chunk_values.resize(base + mt.vis_width + mt.hid_width);
        if (mt.vis_width > 0 && values != nullptr) {
          std::memcpy(chunk_values.data() + base, values, mt.vis_width);
        }
        if (hid_reader.has_value()) {
          GHOSTDB_RETURN_NOT_OK(hid_reader->ReadRow(id, hid_row.data()));
          uint8_t* dst = chunk_values.data() + base + mt.vis_width;
          for (ColumnId c : mt.hid_cols) {
            const auto& col = ctx_->schema->table(mt.table).columns[c];
            std::memcpy(dst, hid_row.data() + image.hidden_offsets[c],
                        col.width);
            dst += col.width;
          }
        }
      }
      if (chunk_ids.empty()) break;
      // Scan the column run; emit matches as <pos, values>.
      storage::IdRunReader col(&ctx_->flash(), mt.column_run,
                               io_bufs.data());
      GHOSTDB_RETURN_NOT_OK(col.Prime());
      storage::RunWriter out(&ctx_->flash(), ctx_->allocator,
                             io_bufs.data() + ram.buffer_size(),
                             "project-out");
      uint32_t pos = 0;
      std::vector<uint8_t> out_row(mt.out_width);
      uint64_t emitted = 0;
      while (col.valid()) {
        RowId id = col.head();
        auto it =
            std::lower_bound(chunk_ids.begin(), chunk_ids.end(), id);
        if (it != chunk_ids.end() && *it == id) {
          size_t idx = static_cast<size_t>(it - chunk_ids.begin());
          EncodeFixed32(out_row.data(), pos);
          if (mt.vis_width + mt.hid_width > 0) {
            std::memcpy(out_row.data() + 4,
                        chunk_values.data() + idx * (mt.vis_width +
                                                     mt.hid_width),
                        mt.vis_width + mt.hid_width);
          }
          GHOSTDB_RETURN_NOT_OK(out.Append(out_row.data(), mt.out_width));
          emitted += 1;
        }
        pos += 1;
        GHOSTDB_RETURN_NOT_OK(col.Advance());
      }
      GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef run, out.Finish());
      if (emitted > 0) {
        mt.pass_runs.push_back(std::move(run));
      } else {
        GHOSTDB_RETURN_NOT_OK(
            storage::FreeRun(ctx_->allocator, run, "project-out"));
      }
    }
    GHOSTDB_RETURN_NOT_OK(
        storage::FreeRun(ctx_->allocator, mt.column_run, "project-col"));
    mt.column_run = storage::RunRef{};
  }

  // Anchor-side inputs for the final merge.
  anchor_vis_cols_ = query.ProjectedVisibleColumns(*ctx_->schema, anchor);
  anchor_hid_cols_ = query.ProjectedHiddenColumns(*ctx_->schema, anchor);
  VisTable* anchor_vt = VisTableOf(state, anchor);
  bool anchor_exact =
      anchor_vt != nullptr && anchor_vt->need_exact_at_projection;
  need_anchor_payload_ = !anchor_vis_cols_.empty() || anchor_exact;
  if (need_anchor_payload_) {
    GHOSTDB_ASSIGN_OR_RETURN(
        anchor_payload_,
        ReceiveVisibleValues(ctx_, anchor_vt, anchor, anchor_vis_cols_));
  }

  // Buffer budget for the final merge: F' + one per pass run + anchor TiH.
  {
    uint32_t needed = 1;
    for (auto& mt : mjoin_) {
      needed += static_cast<uint32_t>(mt.pass_runs.size());
    }
    if (!anchor_hid_cols_.empty()) needed += 1;
    if (needed > ram.free_buffers()) {
      for (auto& mt : mjoin_) {
        GHOSTDB_RETURN_NOT_OK(MergeRowRunsBy(
            &ctx_->flash(), &ram, ctx_->allocator, &mt.pass_runs,
            mt.out_width, 1, "project-out", RowComparator::LeadingU32(),
            /*drop_key_duplicates=*/false));
      }
    }
  }

  // Final-merge streaming state.
  uint32_t final_buffers = 1;
  for (auto& mt : mjoin_) {
    final_buffers += static_cast<uint32_t>(mt.pass_runs.size());
  }
  if (!anchor_hid_cols_.empty()) final_buffers += 1;
  GHOSTDB_ASSIGN_OR_RETURN(bufs_, device::RamGuard::Acquire(&ram, final_buffers, "final-merge"));
  size_t buf_idx = 0;
  auto next_buf = [&]() {
    return bufs_.data() + (buf_idx++) * ram.buffer_size();
  };

  fprime_.emplace(&ctx_->flash(), sj.fprime, sj.row_width, next_buf());
  GHOSTDB_RETURN_NOT_OK(fprime_->Prime());

  for (auto& mt : mjoin_) {
    TableReaders tr;
    tr.mt = &mt;
    for (auto& run : mt.pass_runs) {
      tr.readers.push_back(std::make_unique<RowRunReader>(
          &ctx_->flash(), run, mt.out_width, next_buf()));
      GHOSTDB_RETURN_NOT_OK(tr.readers.back()->Prime());
    }
    table_readers_.push_back(std::move(tr));
  }

  const core::TableImage& anchor_image = ctx_->store->tables[anchor];
  if (!anchor_hid_cols_.empty()) {
    if (!anchor_image.hidden_image.has_value()) {
      return Status::Internal("anchor hidden projection without image");
    }
    anchor_hid_reader_.emplace(&ctx_->flash(),
                               anchor_image.hidden_image.value(),
                               next_buf());
    anchor_hid_row_.resize(anchor_image.hidden_image->row_width);
  }
  mjoin_rows_.resize(mjoin_.size());
  mjoin_row_copies_.resize(mjoin_.size());
  return CompileCellSources();
}

Status ProjectOp::CompileCellSources() {
  // One source per SELECT item, so the per-row work in Next() is a bounded
  // memcpy of already-encoded bytes — the offset searches happen once here.
  const BoundQuery& query = *ctx_->query;
  const SjState& sj = ctx_->pipeline.sj;
  TableId anchor = query.anchor;
  const core::TableImage& anchor_image = ctx_->store->tables[anchor];
  if (!anchor_image.global_ids.empty()) {
    anchor_global_ids_ = &anchor_image.global_ids;
  }
  for (const auto& item : query.select) {
    const auto& cols = ctx_->schema->table(item.table).columns;
    CellSource src;
    if (item.table == anchor) {
      if (item.is_id) {
        src.kind = CellSource::Kind::kAnchorId;
        src.width = 4;
      } else if (!cols[item.column].hidden) {
        src.kind = CellSource::Kind::kAnchorVis;
        for (ColumnId c : anchor_vis_cols_) {
          if (c == item.column) break;
          src.offset += cols[c].width;
        }
        src.width = cols[item.column].width;
      } else {
        src.kind = CellSource::Kind::kAnchorHid;
        src.offset = anchor_image.hidden_offsets[item.column];
        src.width = cols[item.column].width;
      }
      cell_sources_.push_back(src);
      continue;
    }
    if (item.is_id) {
      auto off = sj.ColumnOffset(item.table, anchor);
      if (!off.has_value()) {
        return Status::Internal("select id missing from F'");
      }
      src.kind = CellSource::Kind::kFPrimeId;
      src.offset = *off;
      src.width = 4;
      cell_sources_.push_back(src);
      continue;
    }
    // Value column of a non-anchor table: from its MJoin output row
    // (<pos, vlist, hlist>).
    size_t mi = 0;
    while (mi < mjoin_.size() && mjoin_[mi].table != item.table) ++mi;
    if (mi == mjoin_.size()) {
      return Status::Internal("projected table missing from MJoin");
    }
    const MJoinTable& mt = mjoin_[mi];
    // Both kinds read the same MJoin output row here (vlist and hlist are
    // fused in <pos, vlist, hlist>); the kind still records which side the
    // cell came from, matching BruteForceProjectOp's semantics.
    src.kind = cols[item.column].hidden ? CellSource::Kind::kTableHid
                                        : CellSource::Kind::kTableVis;
    src.index = mi;
    src.offset = 4;
    bool found = false;
    if (!cols[item.column].hidden) {
      for (ColumnId c : mt.vis_cols) {
        if (c == item.column) {
          found = true;
          break;
        }
        src.offset += cols[c].width;
      }
    } else {
      src.offset += mt.vis_width;
      for (ColumnId c : mt.hid_cols) {
        if (c == item.column) {
          found = true;
          break;
        }
        src.offset += cols[c].width;
      }
    }
    if (!found) {
      return Status::Internal("column missing from MJoin output");
    }
    src.width = cols[item.column].width;
    cell_sources_.push_back(src);
  }
  return Status::OK();
}

Result<ColumnBatch> ProjectOp::Next() {
  auto scope = ctx_->clock().Enter("project");

  ColumnBatch batch =
      ColumnBatch::Make(ctx_->value_layout, ctx_->batch_rows);
  while (fprime_.has_value() && fprime_->valid() &&
         batch.rows < ctx_->batch_rows) {
    const uint8_t* frow = fprime_->row();
    RowId anchor_id = DecodeFixed32(frow);
    bool drop = false;

    for (size_t i = 0; i < table_readers_.size() && !drop; ++i) {
      auto& tr = table_readers_[i];
      mjoin_rows_[i] = nullptr;
      for (auto& r : tr.readers) {
        while (r->valid() && r->key() < pos_) {
          GHOSTDB_RETURN_NOT_OK(r->Advance());
        }
        if (r->valid() && r->key() == pos_) {
          mjoin_row_copies_[i].assign(r->row(),
                                      r->row() + tr.mt->out_width);
          mjoin_rows_[i] = mjoin_row_copies_[i].data();
        }
      }
      if (mjoin_rows_[i] == nullptr) drop = true;
    }

    const uint8_t* anchor_vis_row = nullptr;
    if (!drop && need_anchor_payload_) {
      while (anchor_payload_pos_ < anchor_payload_.rows &&
             DecodeFixed32(anchor_payload_.bytes.data() +
                           anchor_payload_pos_ *
                               anchor_payload_.row_width) < anchor_id) {
        anchor_payload_pos_ += 1;
      }
      if (anchor_payload_pos_ < anchor_payload_.rows &&
          DecodeFixed32(anchor_payload_.bytes.data() +
                        anchor_payload_pos_ * anchor_payload_.row_width) ==
              anchor_id) {
        anchor_vis_row = anchor_payload_.bytes.data() +
                         anchor_payload_pos_ * anchor_payload_.row_width +
                         4;
      } else {
        drop = true;  // fails the anchor's visible selection
      }
    }

    if (!drop) {
      if (anchor_hid_reader_.has_value()) {
        GHOSTDB_RETURN_NOT_OK(
            anchor_hid_reader_->ReadRow(anchor_id, anchor_hid_row_.data()));
      }
      // A sharded store surfaces global anchor ids: projected id cells and
      // the per-row ordering seq both use the global id, so the merged
      // gather stream is byte-identical to the unsharded engine's.
      RowId global_id = anchor_global_ids_ != nullptr
                            ? (*anchor_global_ids_)[anchor_id]
                            : anchor_id;
      if (emitted_ >= ctx_->rows_demanded) {
        batch.skipped_rows += 1;
      } else {
        for (size_t i = 0; i < cell_sources_.size(); ++i) {
          const CellSource& src = cell_sources_[i];
          switch (src.kind) {
            case CellSource::Kind::kAnchorId: {
              uint8_t enc[4];
              EncodeFixed32(enc, global_id);
              batch.AppendBytes(i, enc);
              break;
            }
            case CellSource::Kind::kFPrimeId:
              batch.AppendBytes(i, frow + src.offset);
              break;
            case CellSource::Kind::kAnchorVis:
              batch.AppendBytes(i, anchor_vis_row + src.offset);
              break;
            case CellSource::Kind::kAnchorHid:
              batch.AppendBytes(i, anchor_hid_row_.data() + src.offset);
              break;
            case CellSource::Kind::kTableVis:
            case CellSource::Kind::kTableHid:
              batch.AppendBytes(i, mjoin_rows_[src.index] + src.offset);
              break;
          }
        }
        batch.CommitRow();
        if (ctx_->emit_row_seq) batch.seqs.push_back(global_id);
        emitted_ += 1;
      }
    }
    pos_ += 1;
    GHOSTDB_RETURN_NOT_OK(fprime_->Advance());
  }
  return batch;
}

Status ProjectOp::Close() {
  // Cleanup projection temporaries (the stream may have been cut short by
  // a Limit upstream, or Open itself by a fault). Every table's runs are
  // released even if one release errors — the first error is reported
  // after the sweep.
  Status first;
  auto keep = [&first](Status s) {
    if (first.ok() && !s.ok()) first = std::move(s);
  };
  for (auto& mt : mjoin_) {
    for (auto& run : mt.pass_runs) {
      keep(storage::FreeRun(ctx_->allocator, run, "project-out"));
    }
    mt.pass_runs.clear();
    // Normally freed inline once the table's MJoin passes finish; still
    // live when Open faulted between vertical partitioning and that point.
    if (!mt.column_run.extents.empty()) {
      keep(storage::FreeRun(ctx_->allocator, mt.column_run, "project-col"));
      mt.column_run = storage::RunRef{};
    }
  }
  keep(Operator::Close());
  return first;
}

// ---------------------------------------------------------------------------
// BruteForceProjectOp: the Figs 12-13 baseline
// ---------------------------------------------------------------------------

Status BruteForceProjectOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  auto& ram = ctx_->ram();
  auto& clock = ctx_->clock();
  auto scope = clock.Enter("project");
  PipelineState& state = ctx_->pipeline;
  const BoundQuery& query = *ctx_->query;
  const SjState& sj = state.sj;

  for (TableId t : query.tables) {
    BruteTable bt;
    bt.table = t;
    bt.vis_cols = query.ProjectedVisibleColumns(*ctx_->schema, t);
    bt.hid_cols = query.ProjectedHiddenColumns(*ctx_->schema, t);
    VisTable* vt = VisTableOf(state, t);
    bt.exact = vt != nullptr && vt->need_exact_at_projection;
    if (bt.vis_cols.empty() && bt.hid_cols.empty() && !bt.exact) continue;
    bt.has_vis_side = vt != nullptr || !bt.vis_cols.empty();
    if (bt.has_vis_side) {
      GHOSTDB_ASSIGN_OR_RETURN(bt.payload,
                               ReceiveVisibleValues(ctx_, vt, t, bt.vis_cols));
      // Spool to flash: Brute-Force random-accesses vlist there (paper
      // section 6.5).
      GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard wbuf,
                               device::RamGuard::AcquireOne(&ram, "brute-spool"));
      storage::RunWriter writer(&ctx_->flash(), ctx_->allocator,
                                wbuf.data(), "brute-spool");
      GHOSTDB_RETURN_NOT_OK(
          writer.Append(bt.payload.bytes.data(), bt.payload.bytes.size()));
      GHOSTDB_ASSIGN_OR_RETURN(bt.spool, writer.Finish());
    }
    if (!bt.hid_cols.empty()) {
      const core::TableImage& image = ctx_->store->tables[t];
      if (!image.hidden_image.has_value()) {
        return Status::Internal("hidden projection without image");
      }
      GHOSTDB_ASSIGN_OR_RETURN(bt.probe_buf, device::RamGuard::AcquireOne(&ram, "brute-hid"));
      bt.hid_reader.emplace(&ctx_->flash(), image.hidden_image.value(),
                            bt.probe_buf.data());
      bt.hid_row.resize(image.hidden_image->row_width);
    }
    tables_.push_back(std::move(bt));
  }

  GHOSTDB_ASSIGN_OR_RETURN(fbuf_, device::RamGuard::AcquireOne(&ram, "brute-fprime"));
  GHOSTDB_ASSIGN_OR_RETURN(probe_buf_, device::RamGuard::AcquireOne(&ram, "brute-probe"));
  fprime_.emplace(&ctx_->flash(), sj.fprime, sj.row_width, fbuf_.data());
  GHOSTDB_RETURN_NOT_OK(fprime_->Prime());

  const core::TableImage& anchor_image = ctx_->store->tables[query.anchor];
  if (!anchor_image.global_ids.empty()) {
    anchor_global_ids_ = &anchor_image.global_ids;
  }

  // Compile one cell source per SELECT item (offsets into the per-table
  // resolved vis/hid rows), so Next() emits encoded cells by memcpy.
  vis_rows_.resize(tables_.size());
  hid_rows_.resize(tables_.size());
  for (const auto& item : query.select) {
    const auto& cols = ctx_->schema->table(item.table).columns;
    CellSource src;
    if (item.is_id) {
      if (item.table == query.anchor) {
        src.kind = CellSource::Kind::kAnchorId;
      } else {
        auto off = sj.ColumnOffset(item.table, query.anchor);
        if (!off.has_value()) {
          return Status::Internal("select id missing from F'");
        }
        src.kind = CellSource::Kind::kFPrimeId;
        src.offset = *off;
      }
      src.width = 4;
      cell_sources_.push_back(src);
      continue;
    }
    size_t ti = 0;
    while (ti < tables_.size() && tables_[ti].table != item.table) ++ti;
    if (ti == tables_.size()) {
      return Status::Internal("projected table not resolved");
    }
    src.index = ti;
    src.width = cols[item.column].width;
    if (!cols[item.column].hidden) {
      src.kind = CellSource::Kind::kTableVis;
      for (ColumnId c : tables_[ti].vis_cols) {
        if (c == item.column) break;
        src.offset += cols[c].width;
      }
    } else {
      src.kind = CellSource::Kind::kTableHid;
      src.offset = ctx_->store->tables[item.table].hidden_offsets[item.column];
    }
    cell_sources_.push_back(src);
  }
  return Status::OK();
}

Result<ColumnBatch> BruteForceProjectOp::Next() {
  auto scope = ctx_->clock().Enter("project");
  const BoundQuery& query = *ctx_->query;
  const SjState& sj = ctx_->pipeline.sj;
  TableId anchor = query.anchor;

  ColumnBatch batch =
      ColumnBatch::Make(ctx_->value_layout, ctx_->batch_rows);
  while (fprime_.has_value() && fprime_->valid() &&
         batch.rows < ctx_->batch_rows) {
    const uint8_t* frow = fprime_->row();
    RowId anchor_id = DecodeFixed32(frow);
    bool drop = false;
    // Per table: resolve ids, fetch values with random accesses.
    for (size_t ti = 0; ti < tables_.size(); ++ti) {
      auto& bt = tables_[ti];
      vis_rows_[ti] = nullptr;
      hid_rows_[ti] = nullptr;
      RowId id;
      if (bt.table == anchor) {
        id = anchor_id;
      } else {
        auto off = sj.ColumnOffset(bt.table, anchor);
        if (!off.has_value()) {
          return Status::Internal("brute-force table missing from F'");
        }
        id = DecodeFixed32(frow + *off);
      }
      if (bt.has_vis_side) {
        // Cost model: one interpolated page probe into the spooled vlist
        // (ids are uniform); correctness from the host-side payload.
        uint64_t row_count = bt.payload.rows;
        if (row_count > 0) {
          uint64_t est_row = std::min<uint64_t>(
              row_count - 1,
              static_cast<uint64_t>(
                  (static_cast<double>(id) /
                   std::max<uint64_t>(
                       ctx_->store->tables[bt.table].row_count, 1)) *
                  static_cast<double>(row_count)));
          uint64_t byte = est_row * bt.payload.row_width;
          uint32_t page = static_cast<uint32_t>(
              byte / ctx_->flash().config().page_size);
          GHOSTDB_RETURN_NOT_OK(ctx_->flash().ReadPage(
              bt.spool.PageAt(page), probe_buf_.data(), 0,
              ctx_->flash().config().page_size));
        }
        // Binary search the payload for the actual row.
        uint64_t lo = 0, hi = bt.payload.rows;
        const uint8_t* hit = nullptr;
        while (lo < hi) {
          uint64_t mid = (lo + hi) / 2;
          const uint8_t* row =
              bt.payload.bytes.data() + mid * bt.payload.row_width;
          RowId rid = DecodeFixed32(row);
          if (rid < id) {
            lo = mid + 1;
          } else if (rid > id) {
            hi = mid;
          } else {
            hit = row + 4;
            break;
          }
        }
        if (hit == nullptr) {
          drop = true;  // fails the visible selection (or bloom FP)
          break;
        }
        vis_rows_[ti] = hit;
      }
      if (bt.hid_reader.has_value()) {
        GHOSTDB_RETURN_NOT_OK(
            bt.hid_reader->ReadRow(id, bt.hid_row.data()));
        hid_rows_[ti] = bt.hid_row.data();
      }
    }

    if (!drop) {
      // Same local-to-global id surfacing as ProjectOp::Next.
      RowId global_id = anchor_global_ids_ != nullptr
                            ? (*anchor_global_ids_)[anchor_id]
                            : anchor_id;
      if (emitted_ >= ctx_->rows_demanded) {
        batch.skipped_rows += 1;
      } else {
        for (size_t i = 0; i < cell_sources_.size(); ++i) {
          const CellSource& src = cell_sources_[i];
          switch (src.kind) {
            case CellSource::Kind::kAnchorId: {
              uint8_t enc[4];
              EncodeFixed32(enc, global_id);
              batch.AppendBytes(i, enc);
              break;
            }
            case CellSource::Kind::kFPrimeId:
              batch.AppendBytes(i, frow + src.offset);
              break;
            case CellSource::Kind::kTableVis:
              batch.AppendBytes(i, vis_rows_[src.index] + src.offset);
              break;
            case CellSource::Kind::kTableHid:
              batch.AppendBytes(i, hid_rows_[src.index] + src.offset);
              break;
            case CellSource::Kind::kAnchorVis:
            case CellSource::Kind::kAnchorHid:
              return Status::Internal("unexpected brute-force cell source");
          }
        }
        batch.CommitRow();
        if (ctx_->emit_row_seq) batch.seqs.push_back(global_id);
        emitted_ += 1;
      }
    }
    GHOSTDB_RETURN_NOT_OK(fprime_->Advance());
  }
  return batch;
}

Status BruteForceProjectOp::Close() {
  Status first;
  for (auto& bt : tables_) {
    if (!bt.spool.extents.empty()) {
      Status freed = storage::FreeRun(ctx_->allocator, bt.spool, "brute-spool");
      if (first.ok() && !freed.ok()) first = std::move(freed);
      bt.spool = storage::RunRef{};
    }
  }
  Status children = Operator::Close();
  return first.ok() ? children : first;
}

}  // namespace ghostdb::exec
