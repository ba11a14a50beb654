// Database loading: vertical partitioning (paper section 2.1) and
// construction of the fully indexed Secure-side model (section 3.2).
//
// The owner splits each staged table into its Visible partition (shipped to
// Untrusted in the clear) and its Hidden partition (sealed with
// AES-CTR + HMAC-SHA-256 and opened only on the Secure device), then builds
// on-device: hidden images, Subtree Key Tables, climbing indexes on hidden
// attributes, id climbing indexes, and hidden-column statistics.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "core/table_data.h"
#include "device/secure_device.h"
#include "storage/page_allocator.h"
#include "untrusted/engine.h"

namespace ghostdb::core {

/// Which hidden attributes get climbing indexes, per table. nullopt =
/// every hidden non-foreign-key attribute (the paper's fully indexed
/// model); a table missing from the map, or mapped to an empty vector,
/// gets no attribute indexes.
using IndexedAttrs =
    std::optional<std::map<catalog::TableId, std::vector<catalog::ColumnId>>>;

/// \brief One shard's slice of a staged database, ready for its Loader.
///
/// Only the schema root's rows are partitioned (hash on the visible global
/// id); every other table is replicated in full, so all parent→child
/// foreign keys stay valid with local ids unchanged. Root rows are
/// assigned in ascending global-id order, so each shard's local ids are
/// dense and order-preserving — the property the scatter-gather merge
/// relies on to reconstruct the single-device row order from per-row
/// global ids.
struct ShardedStaging {
  /// shards[s] is the full TableData vector (indexed by TableId) of shard
  /// s: the root's slice plus replicas of everything else.
  std::vector<std::vector<TableData>> shards;
  /// root_global_ids[s][local] = the global root id of shard s's local row
  /// `local` (strictly ascending).
  std::vector<std::vector<catalog::RowId>> root_global_ids;
};

/// Hash-partitions `staged` across `shard_count` devices (splitmix64 over
/// the global root id — a pure function of visible information, so the
/// assignment is identical across hidden-data variants). shard_count == 1
/// degenerates to one shard holding everything with an empty (identity)
/// global-id map.
Result<ShardedStaging> PartitionStagedByRoot(
    const catalog::Schema& schema, const std::vector<TableData>& staged,
    uint32_t shard_count);

/// \brief Builds the Untrusted and Secure images of a staged database.
///
/// The Hidden partitions always travel sealed: the owner seals each one and
/// the device verifies and opens it before building on it.
class Loader {
 public:
  Loader(const catalog::Schema* schema, device::SecureDevice* device,
         storage::PageAllocator* allocator,
         untrusted::UntrustedEngine* untrusted, IndexedAttrs indexed_attrs)
      : schema_(schema),
        device_(device),
        allocator_(allocator),
        untrusted_(untrusted),
        indexed_attrs_(std::move(indexed_attrs)) {}

  /// Loads everything; `staged` is indexed by TableId.
  Result<SecureStore> Load(const std::vector<TableData>& staged);

 private:
  Status LoadVisiblePartition(catalog::TableId t, const TableData& data);
  Status BuildHiddenImage(catalog::TableId t, const TableData& data,
                          TableImage* image);
  Status BuildSkt(catalog::TableId t, const std::vector<TableData>& staged,
                  TableImage* image);
  Status BuildAncestorMaps(const std::vector<TableData>& staged);
  Status BuildAttrIndex(catalog::TableId t, catalog::ColumnId c,
                        const TableData& data, TableImage* image);
  Status BuildIdIndex(catalog::TableId t, const TableData& data,
                      TableImage* image);
  Status BuildStats(catalog::TableId t, const TableData& data,
                    TableImage* image);

  const catalog::Schema* schema_;
  device::SecureDevice* device_;
  storage::PageAllocator* allocator_;
  untrusted::UntrustedEngine* untrusted_;
  IndexedAttrs indexed_attrs_;

  // anc_ids_[t][level][row] = sorted ids of the level-th ancestor table
  // (nearest first) containing row `row` of table t in their subtree.
  std::vector<std::vector<std::vector<std::vector<catalog::RowId>>>> anc_ids_;
};

}  // namespace ghostdb::core
