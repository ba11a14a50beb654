// Columnar value batches: the wire format of the value-space operators
// (Project upward). A ColumnBatch holds one fixed-width encoded byte
// column per output column — the same encodings catalog::Value::Encode
// produces on flash — plus a selection vector, so filtering operators
// (HashGroup, Limit) drop rows without copying and comparison-heavy
// operators (Sort, HashGroup) work on encoded bytes via
// catalog::CompareEncoded instead of materializing a Value per cell.
//
// Values are decoded exactly once, at the secure rendering surface
// (SecureExecutor assembling the QueryResult). Nothing here touches the
// channel: batches live entirely in Secure host memory, so their sizes,
// layouts and row counts can depend on Hidden data without observable
// effect — the transcript contract is unchanged from the row-at-a-time
// engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "sql/binder.h"

namespace ghostdb::exec {

/// One fixed-width column of a value-operator edge.
struct BatchColumn {
  catalog::DataType type;
  uint32_t width = 0;  ///< encoded bytes per cell (== on-flash width)
};

/// \brief The column layout of one value-operator edge. Layouts are owned
/// by whoever defines the edge (ExecContext for the projection output,
/// HashGroupOp for its group rows) and outlive the batches that point
/// at them.
struct BatchLayout {
  std::vector<BatchColumn> cols;
  uint32_t row_width = 0;  ///< sum of column widths

  void Add(catalog::DataType type, uint32_t width) {
    cols.push_back({type, width});
    row_width += width;
  }

  /// Layout of the projection output: one column per SELECT item, carrying
  /// the item's source column encoding (aggregate items carry their input
  /// column; HashGroupOp re-layouts above). Surrogate ids are INT/4.
  static BatchLayout Projection(const catalog::Schema& schema,
                                const sql::BoundQuery& query);
};

/// \brief A columnar batch of result rows.
///
/// `rows` physical rows are stored per column; the live rows — the ones the
/// batch logically carries, in stream order — are all physical rows unless
/// `has_selection`, in which case `selection` lists their physical indexes
/// (streamed groups and Limit emit subsets this way).
/// A batch carrying neither live nor skipped rows signals end of stream.
struct ColumnBatch {
  const BatchLayout* layout = nullptr;
  std::vector<std::vector<uint8_t>> columns;  ///< columns[c]: rows × width
  uint32_t rows = 0;                          ///< physical rows stored
  std::vector<uint32_t> selection;            ///< live physical row indexes
  bool has_selection = false;  ///< false: all physical rows live, in order
  /// Rows that passed all filters but were not materialized because the
  /// consumer's demand (ExecContext::rows_demanded) is already met. They
  /// still count toward total_rows.
  uint64_t skipped_rows = 0;
  /// Nonzero marks an all-dummy batch from the VolumePad operator
  /// (padding_rows == live()): its rows pad the observed result volume and
  /// are stripped at the QueryResult boundary. VolumePad is the plan root,
  /// so real and dummy rows never mix within one batch.
  uint64_t padding_rows = 0;
  /// Per-physical-row global ordering keys, populated only when
  /// ExecContext::emit_row_seq is set (sharded scatter runs): the global
  /// anchor id of each projected row. The gather phase k-way merges
  /// per-shard streams on this key to reconstruct the exact single-device
  /// arrival order. Empty otherwise.
  std::vector<uint64_t> seqs;

  /// An empty batch bound to `layout` with per-column space reserved for
  /// `reserve_rows` rows.
  static ColumnBatch Make(const BatchLayout* layout, size_t reserve_rows);

  bool empty() const { return live() == 0 && skipped_rows == 0; }
  /// Number of live rows.
  size_t live() const { return has_selection ? selection.size() : rows; }
  /// Physical index of the i-th live row.
  uint32_t row_at(size_t i) const {
    return has_selection ? selection[i] : static_cast<uint32_t>(i);
  }

  const uint8_t* cell(size_t c, uint32_t physical_row) const {
    return columns[c].data() +
           static_cast<size_t>(physical_row) * layout->cols[c].width;
  }
  /// Grows column `c` by one cell and returns its writable bytes. Append
  /// every column of a row, then CommitRow().
  uint8_t* AppendCell(size_t c) {
    auto& col = columns[c];
    size_t base = col.size();
    col.resize(base + layout->cols[c].width);
    return col.data() + base;
  }
  /// Appends one already-encoded cell to column `c` (no zero-fill pass).
  void AppendBytes(size_t c, const uint8_t* src) {
    columns[c].insert(columns[c].end(), src, src + layout->cols[c].width);
  }
  void CommitRow() { rows += 1; }

  /// Appends the canonicalized encoded bytes of one cell to `out`. Byte
  /// equality of the appended bytes coincides with Value equality: strings
  /// are space-padded, integers are bijective, and double zeros are
  /// canonicalized here (-0.0 == 0.0 with distinct bit patterns). The
  /// building block of HashGroupOp's group keys.
  void AppendCellKey(size_t c, uint32_t physical_row, std::string* out) const;
};

/// Appends the canonical key bytes of one encoded cell of `type` and
/// `width` to `out` (see ColumnBatch::AppendCellKey). Shared with the PC's
/// distinct key count, which must never count two keys the key's grouping
/// would merge.
void AppendCanonicalCell(catalog::DataType type, const uint8_t* cell,
                         uint32_t width, std::string* out);

/// Byte budget per ColumnBatch pulled through the value-level operators.
constexpr uint64_t kBatchBytes = 64 * 1024;
/// Bounds on rows per ColumnBatch, whatever the row width.
constexpr uint32_t kMinBatchRows = 16;
constexpr uint32_t kMaxBatchRows = 4096;

/// Rows per ColumnBatch for `layout`: kBatchBytes divided by the output
/// row width, clamped to [kMinBatchRows, kMaxBatchRows]. A pure function
/// of the visible query shape and schema, so the planner can size batches
/// at plan time and cache the result.
uint32_t SizeBatchRows(const BatchLayout& layout);

}  // namespace ghostdb::exec
