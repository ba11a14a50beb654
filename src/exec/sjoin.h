// SJoin (paper section 3.3): key semi-join between a sorted list of anchor
// ids and the anchor's Subtree Key Table, projecting the ids of selected
// descendant tables. Because both sides are sorted on the anchor id, it
// needs two buffers to stream plus one to write. Pages with no qualifying
// row are skipped; on a touched page only the selected columns of the
// qualifying rows are transferred, in the spans the flash cost model makes
// cheapest (storage::FixedTableReader::ReadRowsOnPage).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/fixed_table.h"

namespace ghostdb::exec {

/// \brief Push-style SJoin stage: feed ascending anchor ids, it emits
/// [anchor_id, id_{T_a}, id_{T_b}, ...] rows to its sink.
///
/// The ids of one SKT page are collected as a slot bitmask and joined when
/// an id on a later page arrives or at Finish(), so rows reach the sink
/// one SKT page late. After an error the stage must not be used again.
class SJoinStage {
 public:
  /// `skt_slots`: for each output column after the anchor id, the SKT column
  /// index to copy. `buffer` is one RAM buffer for SKT pages. The SKT may be
  /// null when `skt_slots` is empty (anchor-only output).
  SJoinStage(flash::FlashDevice* device, const storage::FixedTableRef* skt,
             std::vector<uint32_t> skt_slots, uint8_t* buffer,
             std::function<Status(const uint8_t* row, uint32_t width)> sink);

  /// Processes one anchor id (ids must arrive strictly ascending).
  Status Consume(catalog::RowId anchor_id);

  /// Joins and emits the ids still pending on the last SKT page.
  Status Finish();

  /// Output row width in bytes.
  uint32_t row_width() const { return row_width_; }

 private:
  /// Reads the pending page's selected columns and emits its rows.
  Status FlushPage();

  std::optional<storage::FixedTableReader> reader_;
  std::vector<uint32_t> slots_;
  std::function<Status(const uint8_t*, uint32_t)> sink_;
  uint32_t row_width_;
  uint8_t* buffer_;
  uint32_t skt_row_width_ = 0;
  uint32_t rows_per_page_ = 0;
  uint32_t col_begin_ = 0;  ///< SKT byte range covering every slot read
  uint32_t col_end_ = 0;
  int64_t page_ = -1;              ///< SKT page the pending ids lie on
  std::vector<uint64_t> pending_;  ///< slot bitmask of that page's ids
  int64_t last_id_ = -1;
  std::vector<uint8_t> out_row_;
};

}  // namespace ghostdb::exec
