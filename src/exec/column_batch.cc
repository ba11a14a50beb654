#include "exec/column_batch.h"

#include <algorithm>

#include "common/coding.h"

namespace ghostdb::exec {

BatchLayout BatchLayout::Projection(const catalog::Schema& schema,
                                    const sql::BoundQuery& query) {
  BatchLayout layout;
  for (const auto& item : query.select) {
    if (item.is_id) {
      layout.Add(catalog::DataType::kInt32, 4);
    } else {
      const auto& col = schema.table(item.table).columns[item.column];
      layout.Add(col.type, col.width);
    }
  }
  return layout;
}

ColumnBatch ColumnBatch::Make(const BatchLayout* layout,
                              size_t reserve_rows) {
  ColumnBatch batch;
  batch.layout = layout;
  batch.columns.resize(layout->cols.size());
  for (size_t c = 0; c < layout->cols.size(); ++c) {
    batch.columns[c].reserve(reserve_rows * layout->cols[c].width);
  }
  return batch;
}

void AppendCanonicalCell(catalog::DataType type, const uint8_t* cell,
                         uint32_t width, std::string* out) {
  // Doubles are the one type whose encoding is not canonical per value:
  // -0.0 == 0.0 but their bit patterns differ. Canonicalize so byte
  // equality stays value equality.
  if (type == catalog::DataType::kDouble && DecodeDouble(cell) == 0.0) {
    uint8_t zero[8];
    EncodeDouble(zero, 0.0);
    out->append(reinterpret_cast<const char*>(zero), 8);
    return;
  }
  out->append(reinterpret_cast<const char*>(cell), width);
}

void ColumnBatch::AppendCellKey(size_t c, uint32_t physical_row,
                                std::string* out) const {
  AppendCanonicalCell(layout->cols[c].type, cell(c, physical_row),
                      layout->cols[c].width, out);
}

// A nonzero result: 0 would both stall the projection loop and collide
// with PhysicalPlan::batch_rows' "unsized" sentinel.
static_assert(1 <= kMinBatchRows && kMinBatchRows <= kMaxBatchRows);

uint32_t SizeBatchRows(const BatchLayout& layout) {
  uint32_t width = std::max<uint32_t>(layout.row_width, 1);
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(kBatchBytes / width, kMinBatchRows, kMaxBatchRows));
}

}  // namespace ghostdb::exec
