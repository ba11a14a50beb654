// The Untrusted query agent: receives the (visible) query text, evaluates
// Visible predicates/projections locally, and ships results over the
// channel. Every byte it sends or receives goes through the audited channel
// so the leak-freedom property is checkable.
//
// Every message the PC sends the key is prepared before the statement is
// admitted: the PC is a separate processor from the key, so while the
// channel arbiter has the key serving one session, the PC already
// evaluates and encodes the next sessions' visible requests — every
// request is a pure function of the visible statement text, announced
// before execution. A VisPrefetch holds those messages; the Serve*()
// calls only ship them (a request with nothing prepared is Internal), so a
// masked fault replay re-ships the very bytes the first attempt shipped.
//
// Vis id lists, projection payloads and visible-only results cross the
// channel in the link's wire format (device/wire_codec.h); the Serve calls
// return a view of the bytes that were shipped, which the key decodes.
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

/// \brief The prepared visible answers of one statement on one shard's PC.
/// Built before admission, read-only afterwards: the Serve calls ship its
/// messages without consuming them.
struct VisPrefetch {
  /// Per table with visible predicates: the sorted Vis id list.
  std::map<catalog::TableId, std::vector<catalog::RowId>> ids;
  /// Per table the query certainly projects visible columns from: the
  /// requested column set and its payload.
  std::map<catalog::TableId,
           std::pair<std::vector<catalog::ColumnId>, ProjectionPayload>>
      projections;
  /// The wire messages of the answers above (keyed alike). The prefetch is
  /// built inside the statement's own serving call, so the channel
  /// throughput the encoder reads cannot change before the messages ship.
  std::map<catalog::TableId, std::vector<uint8_t>> id_messages;
  std::map<catalog::TableId, std::vector<uint8_t>> projection_messages;
  /// A visible-only statement's `vis-result` message for this shard's key
  /// (its range of the final rows).
  std::optional<std::vector<uint8_t>> result_message;
  /// Under worst-case padding, on the coordinator only, for a statement
  /// that groups on visible anchor keys
  /// (sql::BoundQuery::GroupsOnVisibleAnchorKeys): the `vis-distinct`
  /// message, the fleet-wide count of distinct key tuples among the
  /// anchor rows passing the visible predicates, 8 bytes.
  std::optional<std::vector<uint8_t>> distinct_message;
};

/// Row layout of a `vis-vals` message for `columns` of `table` (no columns:
/// a `vis-ids` message). Both ends derive it from the visible query.
device::WireLayout WireLayoutOf(const catalog::Schema& schema,
                                catalog::TableId table,
                                const std::vector<catalog::ColumnId>& columns);

/// \brief Untrusted's query-serving facade.
class UntrustedEngine {
 public:
  /// `pool` (not null) shards the visible scans and projections. The PC
  /// is "fast and free" in the paper's cost model; the pool makes it so in
  /// wall-clock too. Workers touch only the visible partitions — never
  /// the channel.
  UntrustedEngine(const catalog::Schema* schema, device::Channel* channel,
                  exec::ThreadPool* pool)
      : schema_(schema), channel_(channel), store_(schema, pool) {}

  VisibleStore& store() { return store_; }
  const VisibleStore& store() const { return store_; }

  /// Secure announces the query (the only information that ever leaves the
  /// key). Charged as a Secure -> Untrusted transfer.
  void ReceiveQuery(const std::string& sql);

  /// Evaluates every visible request `query` is certain to make (Vis id
  /// lists for tables with visible predicates; projection payloads for
  /// tables whose visible columns are projected; one scan per table
  /// serves both) and encodes their wire messages; nothing for a
  /// visible-only statement, whose key requests neither
  /// (ProjectStatement feeds the PC's own answer instead). An
  /// EXPLAIN only asks for vis-counts: its prefetch holds the id lists
  /// alone, unencoded. Pure read of the visible store and of the channel's
  /// configuration (format, throughput): safe to run on a session's thread
  /// while another session holds the channel. Transfers nothing.
  Result<VisPrefetch> PrefetchVisible(const sql::BoundQuery& query) const;

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

  // The Serve calls ship what `prefetch` holds for the request, charged as
  // Untrusted -> Secure, and return a view of the shipped bytes (valid as
  // long as `prefetch`). A request `prefetch` (may be null) holds nothing
  // for is Internal and transfers nothing.

  /// Vis(Q, T, {id}): sorted ids of `table`'s rows satisfying the query's
  /// visible predicates on that table.
  Result<const std::vector<uint8_t>*> ServeVisibleIds(
      catalog::TableId table, const VisPrefetch* prefetch);

  /// Vis(Q, T, {<id, vlist>}): sorted [id | visible values] rows for
  /// projection, in layout WireLayoutOf(table, columns); `columns` must be
  /// the prepared set.
  Result<const std::vector<uint8_t>*> ServeProjection(
      catalog::TableId table, const std::vector<catalog::ColumnId>& columns,
      const VisPrefetch* prefetch);

  /// Vis-result(Q, T): the final rows of a visible-only statement.
  Result<const std::vector<uint8_t>*> ServeVisibleResult(
      catalog::TableId table, const VisPrefetch* prefetch);

  /// Count of rows satisfying the visible predicates on `table` (a tiny
  /// message used by the planner): the size of the prepared id list.
  Result<uint64_t> ServeVisibleCount(catalog::TableId table,
                                     const VisPrefetch* prefetch);

  /// Vis-distinct(Q, T): the distinct visible key count of a statement
  /// grouping on visible keys of anchor `table` (8 bytes), the bound the
  /// key's worst-case volume padding targets.
  Result<const std::vector<uint8_t>*> ServeVisibleDistinct(
      catalog::TableId table, const VisPrefetch* prefetch);

 private:
  /// Wire messages of an id list / a projection payload on this channel.
  std::vector<uint8_t> EncodeIds(
      const std::vector<catalog::RowId>& ids) const;
  std::vector<uint8_t> EncodeProjection(
      catalog::TableId table, const std::vector<catalog::ColumnId>& columns,
      const ProjectionPayload& payload) const;
  /// Ships prepared `message` as `kind`:<table name>; Internal when null.
  Result<const std::vector<uint8_t>*> Ship(
      const char* kind, catalog::TableId table,
      const std::vector<uint8_t>* message);

  const catalog::Schema* schema_;
  device::Channel* channel_;
  VisibleStore store_;
};

}  // namespace ghostdb::untrusted
