#include "untrusted/visible_store.h"

#include <cstring>
#include <limits>

#include "exec/simd.h"

namespace ghostdb::untrusted {

using catalog::ColumnId;
using catalog::RowId;
using catalog::TableId;
using catalog::Value;

namespace {
/// Minimum rows per morsel shard: below this the dispatch overhead beats
/// the scan (Untrusted CPU is free in simulated time; this only shapes
/// wall-clock).
constexpr uint64_t kScanGrain = 4096;
}  // namespace

VisibleStore::VisibleStore(const catalog::Schema* schema,
                           exec::ThreadPool* pool)
    : schema_(schema), pool_(pool) {
  size_t n = schema->table_count();
  partitions_.resize(n);
  row_counts_.assign(n, 0);
  row_widths_.assign(n, 0);
  global_ids_.resize(n);
  column_offsets_.resize(n);
  for (TableId t = 0; t < n; ++t) {
    const auto& cols = schema->table(t).columns;
    column_offsets_[t].assign(cols.size(),
                              std::numeric_limits<uint32_t>::max());
    uint32_t offset = 0;
    for (ColumnId c = 0; c < cols.size(); ++c) {
      if (!cols[c].hidden) {
        column_offsets_[t][c] = offset;
        offset += cols[c].width;
      }
    }
    row_widths_[t] = offset;
  }
}

Status VisibleStore::LoadTable(TableId table, std::vector<uint8_t> packed,
                               uint64_t count) {
  if (row_widths_[table] == 0 && !packed.empty()) {
    return Status::InvalidArgument("table has no visible columns");
  }
  if (packed.size() != count * row_widths_[table]) {
    return Status::InvalidArgument("packed visible partition size mismatch");
  }
  partitions_[table] = std::move(packed);
  row_counts_[table] = count;
  return Status::OK();
}

Status VisibleStore::SetGlobalIds(TableId table, std::vector<RowId> ids) {
  if (!ids.empty() && ids.size() != row_counts_[table]) {
    return Status::InvalidArgument(
        "global id map does not cover the loaded partition");
  }
  global_ids_[table] = std::move(ids);
  return Status::OK();
}

void VisibleStore::ScanRange(
    TableId table, const std::vector<sql::BoundPredicate>& predicates,
    RowId begin, RowId end, std::vector<RowId>* out) const {
  if (end <= begin) return;
  const auto& cols = schema_->table(table).columns;
  const uint8_t* part = partitions_[table].data();
  uint32_t stride = row_widths_[table];
  uint64_t n = end - begin;
  // Encoded-comparable predicates (literal of the column's type; string
  // literals that fit the width) run the SIMD kernels straight over the
  // packed encodings — same total order as decoding (CompareEncoded). The
  // rest (id predicates, cross-type literals, overlong strings) refine
  // through Value decoding.
  auto encoded_ok = [&](const sql::BoundPredicate& p) {
    if (p.on_id) return false;
    const auto& col = cols[p.column];
    return p.value.type() == col.type &&
           (col.type != catalog::DataType::kString ||
            p.value.AsString().size() <= col.width);
  };
  size_t base_out = out->size();
  if (predicates.size() == 1 && encoded_ok(predicates[0])) {
    const auto& p = predicates[0];
    const auto& col = cols[p.column];
    std::vector<uint8_t> lit(col.width);
    p.value.Encode(lit.data(), col.width);
    out->resize(base_out + n);
    size_t count = exec::simd::FilterEncoded(
        col.type, col.width,
        part + static_cast<uint64_t>(begin) * stride +
            column_offsets_[table][p.column],
        stride, n, lit.data(), p.op, begin, out->data() + base_out);
    out->resize(base_out + count);
    return;
  }
  // Conjunction (or no predicates): a 0/1 flag per row, refined predicate
  // by predicate, then compacted to ids.
  std::vector<uint8_t> flags(n, 1);
  for (const auto& p : predicates) {
    if (encoded_ok(p)) {
      const auto& col = cols[p.column];
      std::vector<uint8_t> lit(col.width);
      p.value.Encode(lit.data(), col.width);
      exec::simd::RefineEncoded(col.type, col.width,
                                part + static_cast<uint64_t>(begin) * stride +
                                    column_offsets_[table][p.column],
                                stride, n, lit.data(), p.op, flags.data());
      continue;
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (!flags[i]) continue;
      RowId row = begin + static_cast<RowId>(i);
      bool keep;
      if (p.on_id) {
        RowId gid = GlobalId(table, row);
        keep = catalog::EvalCompare(Value::Int32(static_cast<int32_t>(gid)),
                                    p.op, p.value);
      } else {
        const auto& col = cols[p.column];
        Value v = Value::Decode(part + static_cast<uint64_t>(row) * stride +
                                    column_offsets_[table][p.column],
                                col.type, col.width);
        keep = catalog::EvalCompare(v, p.op, p.value);
      }
      flags[i] = keep ? 1 : 0;
    }
  }
  out->resize(base_out + n);
  size_t count = exec::simd::CompactFlags(flags.data(), n, begin,
                                          out->data() + base_out);
  out->resize(base_out + count);
}

Result<std::vector<RowId>> VisibleStore::SelectIds(
    TableId table, const std::vector<sql::BoundPredicate>& predicates) const {
  for (const auto& p : predicates) {
    if (!p.on_id && (p.hidden || p.table != table)) {
      return Status::SecurityViolation(
          "untrusted asked to evaluate a hidden predicate");
    }
  }
  // Contiguous shards concatenated in shard order: the id list (and so
  // every downstream channel payload) is identical for every width.
  const uint64_t n = row_counts_[table];
  std::vector<std::vector<RowId>> parts(pool_->ShardCount(n, kScanGrain));
  pool_->ParallelShards(n, kScanGrain,
                        [&](uint32_t s, uint64_t begin, uint64_t end) {
                          ScanRange(table, predicates,
                                    static_cast<RowId>(begin),
                                    static_cast<RowId>(end), &parts[s]);
                        });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<RowId> out = std::move(parts[0]);
  out.reserve(total);
  for (size_t s = 1; s < parts.size(); ++s) {
    out.insert(out.end(), parts[s].begin(), parts[s].end());
  }
  return out;
}

Result<ProjectionPayload> VisibleStore::Project(
    TableId table, const std::vector<RowId>& ids,
    const std::vector<ColumnId>& columns) const {
  const auto& cols = schema_->table(table).columns;
  ProjectionPayload payload;
  payload.row_width = 4;
  for (ColumnId c : columns) {
    if (cols[c].hidden) {
      return Status::SecurityViolation(
          "untrusted asked to project a hidden column");
    }
    payload.row_width += cols[c].width;
  }
  if (!ids.empty() && ids.back() >= row_counts_[table]) {
    return Status::OutOfRange("projected id out of range");
  }
  payload.rows = ids.size();
  payload.bytes.resize(ids.size() * payload.row_width);
  const uint8_t* part = partitions_[table].data();
  uint32_t stride = row_widths_[table];
  // The vector gather computes id*stride in 32-bit lanes; partitions past
  // 2 GiB (never in this simulation, but stay correct) take the scalar
  // moves.
  bool gather_safe = partitions_[table].size() < (1ull << 31);
  auto fill = [&](uint32_t /*shard*/, uint64_t begin, uint64_t end) {
    uint8_t* dst = payload.bytes.data() + begin * payload.row_width;
    for (uint64_t j = begin; j < end; ++j, dst += payload.row_width) {
      Value::Int32(static_cast<int32_t>(ids[j])).Encode(dst, 4);
    }
    uint32_t dst_off = 4;
    for (ColumnId c : columns) {
      uint8_t* col_dst =
          payload.bytes.data() + begin * payload.row_width + dst_off;
      if (gather_safe) {
        exec::simd::GatherCells(part, stride, column_offsets_[table][c],
                                cols[c].width, ids.data() + begin,
                                end - begin, col_dst, payload.row_width);
      } else {
        exec::simd::scalar::GatherCells(part, stride,
                                        column_offsets_[table][c],
                                        cols[c].width, ids.data() + begin,
                                        end - begin, col_dst,
                                        payload.row_width);
      }
      dst_off += cols[c].width;
    }
  };
  // Shards write disjoint byte ranges of the payload; bytes are identical
  // for every width.
  pool_->ParallelShards(ids.size(), kScanGrain, fill);
  return payload;
}

Result<Value> VisibleStore::GetValue(TableId table, RowId row,
                                     ColumnId column) const {
  const auto& col = schema_->table(table).columns[column];
  if (col.hidden) {
    return Status::SecurityViolation("column is hidden");
  }
  if (row >= row_counts_[table]) {
    return Status::OutOfRange("row out of range");
  }
  const uint8_t* base = partitions_[table].data() +
                        static_cast<uint64_t>(row) * row_widths_[table];
  return Value::Decode(base + column_offsets_[table][column], col.type,
                       col.width);
}

Result<catalog::ColumnStats> VisibleStore::BuildStats(TableId table,
                                                      ColumnId column) const {
  const auto& col = schema_->table(table).columns[column];
  if (col.hidden) {
    return Status::SecurityViolation("column is hidden");
  }
  std::vector<Value> values;
  values.reserve(row_counts_[table]);
  for (RowId row = 0; row < row_counts_[table]; ++row) {
    const uint8_t* base = partitions_[table].data() +
                          static_cast<uint64_t>(row) * row_widths_[table];
    values.push_back(Value::Decode(base + column_offsets_[table][column],
                                   col.type, col.width));
  }
  return catalog::ColumnStats::Build(std::move(values));
}

}  // namespace ghostdb::untrusted
