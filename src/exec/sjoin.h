// SJoin (paper section 3.3): key semi-join between a sorted list of anchor
// ids and the anchor's Subtree Key Table, projecting the ids of selected
// descendant tables. Because both sides are sorted on the anchor id, it
// needs two buffers to stream plus one to write — and each touched SKT page
// is read exactly once (pages with no qualifying row are skipped).
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
class SJoinStage {
 public:
  /// `skt_slots`: for each output column after the anchor id, the SKT column
  /// index to copy. `buffer` is one RAM buffer for SKT pages. The SKT may be
  /// null when `skt_slots` is empty (anchor-only output).
  SJoinStage(flash::FlashDevice* device, const storage::FixedTableRef* skt,
             std::vector<uint32_t> skt_slots, uint8_t* buffer,
             std::function<Status(const uint8_t* row, uint32_t width)> sink);

  /// Processes one anchor id (ids must arrive in ascending order).
  Status Consume(catalog::RowId anchor_id);

  /// Output row width in bytes.
  uint32_t row_width() const { return row_width_; }

 private:
  std::optional<storage::FixedTableReader> reader_;
  std::vector<uint32_t> slots_;
  std::function<Status(const uint8_t*, uint32_t)> sink_;
  uint32_t row_width_;
  std::vector<uint8_t> skt_row_;
  std::vector<uint8_t> out_row_;
};

}  // namespace ghostdb::exec
