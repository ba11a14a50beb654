// The Untrusted query agent: receives the (visible) query text, evaluates
// Visible predicates/projections locally, and ships results over the
// channel. Every byte it sends or receives goes through the audited channel
// so the leak-freedom property is checkable.
//
// Multi-session serving adds speculative evaluation: the PC is a separate
// processor from the key, so while the channel arbiter has the key serving
// one session, the PC can already evaluate the *next* sessions' visible
// requests — every request is a pure function of the visible statement
// text, announced before execution. A VisPrefetch carries those
// precomputed answers into the Serve*() calls; the channel interaction
// (message order, labels, sizes, digests, simulated cost) is byte-for-byte
// identical whether or not an answer was prefetched, so the transcript
// contract is untouched.
//
// Vis id lists, projection payloads and visible-only results cross the
// channel in the link's wire format (device/wire_codec.h); the Serve calls
// return the bytes that were shipped, which the key decodes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "device/channel.h"
#include "device/wire_codec.h"
#include "sql/binder.h"
#include "untrusted/visible_store.h"

namespace ghostdb::untrusted {

/// \brief Precomputed visible answers for one query (PC-side speculation).
/// Entries are moved out as the Serve calls consume them.
struct VisPrefetch {
  /// Per table with visible predicates: the sorted Vis id list.
  std::map<catalog::TableId, std::vector<catalog::RowId>> ids;
  /// Per table the query certainly projects visible columns from: the
  /// requested column set and its payload.
  std::map<catalog::TableId,
           std::pair<std::vector<catalog::ColumnId>, ProjectionPayload>>
      projections;
  /// The wire messages of the answers above (keyed alike), encoded before
  /// admission so encoding runs outside it too. The prefetch is built
  /// inside the statement's own serving call, so the channel throughput
  /// the encoder reads cannot change before the messages ship.
  std::map<catalog::TableId, std::vector<uint8_t>> id_messages;
  std::map<catalog::TableId, std::vector<uint8_t>> projection_messages;
  /// A visible-only statement's `vis-result` message for this shard's key
  /// (its range of the final rows), built before admission. Served as is,
  /// never consumed, so a masked fault replay re-sends the same bytes.
  std::optional<std::vector<uint8_t>> result_message;
};

/// Row layout of a `vis-vals` message for `columns` of `table` (no columns:
/// a `vis-ids` message). Both ends derive it from the visible query.
device::WireLayout WireLayoutOf(const catalog::Schema& schema,
                                catalog::TableId table,
                                const std::vector<catalog::ColumnId>& columns);

/// \brief Untrusted's query-serving facade.
class UntrustedEngine {
 public:
  UntrustedEngine(const catalog::Schema* schema, device::Channel* channel)
      : schema_(schema), channel_(channel), store_(schema) {}

  VisibleStore& store() { return store_; }
  const VisibleStore& store() const { return store_; }

  /// Worker pool for sharding visible scans/projections (null = inline).
  /// The PC is "fast and free" in the paper's cost model; the pool makes
  /// it so in wall-clock too. Workers touch only the visible partitions —
  /// never the channel.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Secure announces the query (the only information that ever leaves the
  /// key). Charged as a Secure -> Untrusted transfer.
  void ReceiveQuery(const std::string& sql);

  /// Speculatively evaluates every visible request `query` is certain to
  /// make (Vis id lists for tables with visible predicates; projection
  /// payloads for tables whose visible columns are projected) and encodes
  /// their wire messages — exactly the work the Serve calls would do, no
  /// more, so running it early never costs anything the query would not
  /// pay anyway; nothing for a visible-only statement, whose key requests
  /// neither (ProjectStatement feeds the PC's own answer instead). Pure
  /// read of the visible store and of the channel's configuration
  /// (format, throughput): safe to run on a session's thread while
  /// another session holds the channel. Transfers nothing.
  Result<VisPrefetch> PrefetchVisible(const sql::BoundQuery& query) const;

  /// Vis(Q, T, {id}): sorted ids of rows of `table` satisfying the query's
  /// visible predicates on that table. Charged as Untrusted -> Secure;
  /// returns the shipped message. `prefetch` (optional): consume the
  /// precomputed answer instead of scanning now.
  Result<std::vector<uint8_t>> ServeVisibleIds(
      const sql::BoundQuery& query, catalog::TableId table,
      VisPrefetch* prefetch = nullptr);

  /// Vis(Q, T, {<id, vlist>}): sorted [id | visible values] rows for
  /// projection. Charged as Untrusted -> Secure; returns the shipped
  /// message (layout WireLayoutOf(table, columns)).
  Result<std::vector<uint8_t>> ServeProjection(
      const sql::BoundQuery& query, catalog::TableId table,
      const std::vector<catalog::ColumnId>& columns,
      VisPrefetch* prefetch = nullptr);

  /// The PC's projection of visible-only `query`: its anchor's rows
  /// passing the visible predicates, [global id | the projected visible
  /// columns], ascending id — the input of exec::RunUntrustedTail.
  /// Transfers nothing.
  Result<ProjectionPayload> ProjectStatement(
      const sql::BoundQuery& query) const;

  /// Wire message of `count` raw `vis-result` rows of `layout` on this
  /// channel.
  std::vector<uint8_t> EncodeResult(const device::WireLayout& layout,
                                    const uint8_t* rows,
                                    uint64_t count) const;

  /// Vis-result(Q, T): the final rows of a visible-only statement, the
  /// message `prefetch->result_message` holds (Internal when none was
  /// prepared). Charged as Untrusted -> Secure; returns the shipped
  /// message.
  Result<std::vector<uint8_t>> ServeVisibleResult(
      catalog::TableId table, const VisPrefetch* prefetch);

  /// Count of rows satisfying the visible predicates (a tiny message used
  /// by the planner; derived from visible data + the query only). Reads
  /// the prefetched id list's size when available (without consuming it —
  /// execution still needs the ids).
  Result<uint64_t> ServeVisibleCount(const sql::BoundQuery& query,
                                     catalog::TableId table,
                                     const VisPrefetch* prefetch = nullptr);

 private:
  /// Wire messages of an id list / a projection payload on this channel.
  std::vector<uint8_t> EncodeIds(
      const std::vector<catalog::RowId>& ids) const;
  std::vector<uint8_t> EncodeProjection(
      catalog::TableId table, const std::vector<catalog::ColumnId>& columns,
      const ProjectionPayload& payload) const;

  const catalog::Schema* schema_;
  device::Channel* channel_;
  VisibleStore store_;
  exec::ThreadPool* pool_ = nullptr;
};

}  // namespace ghostdb::untrusted
