// The Secure device's database image: per table, the hidden partition image
// (T_iH), the Subtree Key Table for non-leaf tables, the climbing indexes of
// the fully indexed model (paper section 3.2), and hidden-column statistics
// for the planner.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "catalog/stats.h"
#include "core/annotations.h"
#include "storage/btree.h"
#include "storage/fixed_table.h"

namespace ghostdb::core {

/// Secure-side storage of one table.
struct TableImage {
  uint64_t row_count = 0;

  /// Sharded fleets: global id of each local row (empty = identity, the
  /// unsharded store and fully replicated tables). Only the schema root is
  /// hash-partitioned across shards; local ids stay dense and
  /// order-preserving (ascending global order), so projection streams stay
  /// sorted under the global order and the gather merge can reconstruct
  /// the exact single-device row sequence.
  std::vector<catalog::RowId> global_ids;
  /// Sharded fleets: the partitioned table's row count over the whole
  /// fleet, which its global ids lie below (0 = row_count: the unsharded
  /// store and fully replicated tables).
  uint64_t global_row_count = 0;

  /// Hidden columns packed by id (absent when the table has none).
  /// GHOSTDB_HIDDEN: leakcheck's taint rule rejects values derived from
  /// these fields reaching transcript sinks (channel sizes, clock charges,
  /// page counts, padding bounds) or branches guarding one.
  GHOSTDB_HIDDEN std::optional<storage::FixedTableRef> hidden_image;
  /// Byte offset of each hidden column within a hidden row (by ColumnId;
  /// UINT32_MAX for visible columns).
  std::vector<uint32_t> hidden_offsets;

  /// Subtree Key Table: one row per tuple, 4-byte id per descendant table
  /// in pre-order (absent for leaf tables).
  GHOSTDB_HIDDEN std::optional<storage::FixedTableRef> skt;
  /// Which table each SKT column refers to (pre-order descendants).
  std::vector<catalog::TableId> skt_columns;

  /// Climbing indexes on hidden attributes; levels = [self, ancestors...].
  GHOSTDB_HIDDEN std::map<catalog::ColumnId, storage::BTreeRef> attr_indexes;

  /// Climbing index on the table id; levels = [ancestors...] (absent for
  /// the root, which has no ancestors).
  GHOSTDB_HIDDEN std::optional<storage::BTreeRef> id_index;

  /// Planner statistics for hidden columns.
  GHOSTDB_HIDDEN std::map<catalog::ColumnId, catalog::ColumnStats>
      hidden_stats;

  /// SKT column slot of `table`, or nullopt.
  std::optional<uint32_t> SktSlotOf(catalog::TableId table) const {
    for (uint32_t i = 0; i < skt_columns.size(); ++i) {
      if (skt_columns[i] == table) return i;
    }
    return std::nullopt;
  }
};

/// The whole Secure-side database.
struct SecureStore {
  std::vector<TableImage> tables;

  /// Posting level of `index` (an index of `owner`) that yields ids of
  /// `target`: 0 = owner itself, 1 = parent, ... For id indexes (which skip
  /// the self level) pass self_level = false.
  static Result<uint32_t> LevelFor(const catalog::Schema& schema,
                                   catalog::TableId owner,
                                   catalog::TableId target, bool self_level);
};

}  // namespace ghostdb::core
