// The Untrusted side: a powerful, insecure PC holding the Visible partition
// of every table (visible columns, plus the replicated surrogate ids, which
// are implicit in row order).
//
// Untrusted computes Visible predicates and projections of Visible columns
// (paper section 3.3: "Because Untrusted is fast, we want Untrusted to do as
// much work as possible") and ships results to Secure over the channel.
// Untrusted CPU time is free in the simulation; only channel transfer is
// charged — matching the paper's cost model.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "catalog/schema.h"
#include "catalog/stats.h"
#include "common/result.h"
#include "common/status.h"
#include "core/annotations.h"
#include "exec/thread_pool.h"
#include "sql/binder.h"

namespace ghostdb::untrusted {

/// Packed rows a PC message carries: `rows` rows of [key(4) | cells...] —
/// a projection's [id | projected visible column values...], or a
/// visible-only statement's final rows (exec::RunUntrustedTail).
struct ProjectionPayload {
  std::vector<uint8_t> bytes;
  uint32_t row_width = 4;
  uint64_t rows = 0;
};

/// \brief In-memory store of the Visible partitions.
class VisibleStore {
 public:
  /// `pool` (not null, outlives the store) shards every scan and gather:
  /// contiguous row ranges, results in shard order, so the output is the
  /// same for every width, and a width-1 pool runs them inline.
  VisibleStore(const catalog::Schema* schema, exec::ThreadPool* pool);

  /// Installs the visible partition of `table`: `count` rows of packed
  /// visible columns (declaration order), row i belonging to id i.
  Status LoadTable(catalog::TableId table, std::vector<uint8_t> packed,
                   uint64_t count);

  /// Installs the local→global id map of a sharded table (row i of this
  /// device's partition is global row ids[i]). Id predicates evaluate
  /// against the *global* id so `id < 100` selects the same logical rows
  /// on every shard; an empty map (the default, and every unsharded
  /// table) keeps the identity local == global. Payload id headers stay
  /// local — Secure owns the translation back to global on its side.
  Status SetGlobalIds(catalog::TableId table,
                      std::vector<catalog::RowId> ids);

  uint64_t row_count(catalog::TableId table) const {
    return row_counts_[table];
  }

  /// Ids (ascending) of rows satisfying every predicate (no predicates:
  /// every row). All predicates must be on visible columns (or the id) of
  /// `table`. The inner loops run the SIMD kernels over the packed rows.
  Result<std::vector<catalog::RowId>> SelectIds(
      catalog::TableId table,
      const std::vector<sql::BoundPredicate>& predicates) const;

  /// Packed [id | columns...] rows of `ids` (ascending, as SelectIds
  /// returns them), carrying the requested visible columns.
  Result<ProjectionPayload> Project(
      catalog::TableId table, const std::vector<catalog::RowId>& ids,
      const std::vector<catalog::ColumnId>& columns) const;

  /// The id an on_id predicate sees for `row`, and the id a sharded
  /// slice's rows merge by (global under sharding).
  catalog::RowId GlobalId(catalog::TableId table, catalog::RowId row) const {
    return global_ids_[table].empty() ? row : global_ids_[table][row];
  }

  /// Decodes one visible column of one row (used by tests and the oracle).
  Result<catalog::Value> GetValue(catalog::TableId table, catalog::RowId row,
                                  catalog::ColumnId column) const;

  /// Column statistics for the planner (visible side).
  Result<catalog::ColumnStats> BuildStats(catalog::TableId table,
                                          catalog::ColumnId column) const;

 private:
  /// Appends the ids in [begin, end) matching every predicate to `out`
  /// (the SIMD inner loop of SelectIds; one shard's work).
  /// GHOSTDB_HOST_COMPUTE: runs on pool workers — leakcheck's purity rule
  /// bars it (and everything it calls) from device/clock/RAM state.
  GHOSTDB_HOST_COMPUTE void ScanRange(catalog::TableId table,
                 const std::vector<sql::BoundPredicate>& predicates,
                 catalog::RowId begin, catalog::RowId end,
                 std::vector<catalog::RowId>* out) const;

  const catalog::Schema* schema_;
  exec::ThreadPool* pool_;
  std::vector<std::vector<uint8_t>> partitions_;  // per table, packed rows
  std::vector<uint64_t> row_counts_;
  // Per table: local→global id map (empty = identity; see SetGlobalIds).
  std::vector<std::vector<catalog::RowId>> global_ids_;
  std::vector<uint32_t> row_widths_;
  // Per table: byte offset of each visible column within a packed row
  // (indexed by ColumnId; hidden columns map to UINT32_MAX).
  std::vector<std::vector<uint32_t>> column_offsets_;
};

}  // namespace ghostdb::untrusted
