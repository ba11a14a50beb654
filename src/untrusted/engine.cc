#include "untrusted/engine.h"

#include "common/coding.h"

namespace ghostdb::untrusted {

using device::Direction;

namespace {

/// `map`'s entry for `table`, or null.
template <typename V>
const V* Prepared(const std::map<catalog::TableId, V>& map,
                  catalog::TableId table) {
  auto it = map.find(table);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

device::WireLayout WireLayoutOf(const catalog::Schema& schema,
                                catalog::TableId table,
                                const std::vector<catalog::ColumnId>& columns) {
  device::WireLayout layout;
  const auto& cols = schema.table(table).columns;
  layout.columns.reserve(columns.size());
  for (catalog::ColumnId c : columns) {
    layout.columns.push_back({cols[c].type, cols[c].width});
  }
  return layout;
}

std::vector<uint8_t> UntrustedEngine::EncodeIds(
    const std::vector<catalog::RowId>& ids) const {
  std::vector<uint8_t> rows(ids.size() * 4);
  for (size_t i = 0; i < ids.size(); ++i) {
    EncodeFixed32(rows.data() + i * 4, ids[i]);
  }
  return device::EncodeRows(channel_->wire_format(), device::WireLayout{},
                            rows.data(), ids.size(), channel_->throughput());
}

std::vector<uint8_t> UntrustedEngine::EncodeProjection(
    catalog::TableId table, const std::vector<catalog::ColumnId>& columns,
    const ProjectionPayload& payload) const {
  return device::EncodeRows(channel_->wire_format(),
                            WireLayoutOf(*schema_, table, columns),
                            payload.bytes.data(), payload.rows,
                            channel_->throughput());
}

void UntrustedEngine::ReceiveQuery(const std::string& sql) {
  channel_->Transfer(Direction::kToUntrusted, "query",
                     reinterpret_cast<const uint8_t*>(sql.data()),
                     sql.size());
}

Result<VisPrefetch> UntrustedEngine::PrefetchVisible(
    const sql::BoundQuery& query) const {
  VisPrefetch prefetch;
  // A visible-only statement's key requests neither: the PC answers it
  // whole (ProjectStatement).
  if (!query.TouchesHidden(*schema_)) return prefetch;
  for (catalog::TableId t : query.tables) {
    // Vis id lists: requested by VisSelectOp for every table with visible
    // predicates, regardless of strategy.
    if (query.HasVisiblePredicateOn(t)) {
      GHOSTDB_ASSIGN_OR_RETURN(
          std::vector<catalog::RowId> ids,
          store_.SelectIds(t, query.VisiblePredicatesOn(t), pool_));
      // An EXPLAIN only ships the vis-counts, which read the list's size.
      if (!query.explain) prefetch.id_messages.emplace(t, EncodeIds(ids));
      prefetch.ids.emplace(t, std::move(ids));
    }
    if (query.explain) continue;
    // Projection payloads: requested by the projection operators for every
    // table whose visible columns appear in the SELECT list.
    std::vector<catalog::ColumnId> cols =
        query.ProjectedVisibleColumns(*schema_, t);
    if (!cols.empty()) {
      GHOSTDB_ASSIGN_OR_RETURN(
          ProjectionPayload payload,
          store_.Project(t, query.VisiblePredicatesOn(t), cols, pool_));
      prefetch.projection_messages.emplace(
          t, EncodeProjection(t, cols, payload));
      prefetch.projections.emplace(
          t, std::make_pair(std::move(cols), std::move(payload)));
    }
  }
  return prefetch;
}

Result<ProjectionPayload> UntrustedEngine::ProjectStatement(
    const sql::BoundQuery& query) const {
  const catalog::TableId t = query.anchor;
  GHOSTDB_ASSIGN_OR_RETURN(
      ProjectionPayload payload,
      store_.Project(t, query.VisiblePredicatesOn(t),
                     query.ProjectedVisibleColumns(*schema_, t), pool_));
  // Payload id headers are local; a sharded slice's rows merge with the
  // other shards' by global id.
  for (uint64_t r = 0; r < payload.rows; ++r) {
    uint8_t* id = payload.bytes.data() + r * payload.row_width;
    EncodeFixed32(id, store_.GlobalId(t, DecodeFixed32(id)));
  }
  return payload;
}

std::vector<uint8_t> UntrustedEngine::EncodeResult(
    const device::WireLayout& layout, const uint8_t* rows,
    uint64_t count) const {
  return device::EncodeRows(channel_->wire_format(), layout, rows, count,
                            channel_->throughput());
}

Result<const std::vector<uint8_t>*> UntrustedEngine::Ship(
    const char* kind, catalog::TableId table,
    const std::vector<uint8_t>* message) {
  const std::string label =
      std::string(kind) + ":" + schema_->table(table).name;
  if (message == nullptr) {
    return Status::Internal("no " + label + " message prepared");
  }
  channel_->Transfer(Direction::kToSecure, label, message->data(),
                     message->size());
  return message;
}

Result<const std::vector<uint8_t>*> UntrustedEngine::ServeVisibleIds(
    catalog::TableId table, const VisPrefetch* prefetch) {
  return Ship("vis-ids", table,
              prefetch == nullptr ? nullptr
                                  : Prepared(prefetch->id_messages, table));
}

Result<const std::vector<uint8_t>*> UntrustedEngine::ServeProjection(
    catalog::TableId table, const std::vector<catalog::ColumnId>& columns,
    const VisPrefetch* prefetch) {
  const std::vector<uint8_t>* message = nullptr;
  if (prefetch != nullptr) {
    const auto* projection = Prepared(prefetch->projections, table);
    if (projection != nullptr && projection->first == columns) {
      message = Prepared(prefetch->projection_messages, table);
    }
  }
  return Ship("vis-vals", table, message);
}

Result<const std::vector<uint8_t>*> UntrustedEngine::ServeVisibleResult(
    catalog::TableId table, const VisPrefetch* prefetch) {
  return Ship("vis-result", table,
              prefetch == nullptr || !prefetch->result_message.has_value()
                  ? nullptr
                  : &*prefetch->result_message);
}

Result<uint64_t> UntrustedEngine::ServeVisibleCount(
    catalog::TableId table, const VisPrefetch* prefetch) {
  const std::vector<catalog::RowId>* ids =
      prefetch == nullptr ? nullptr : Prepared(prefetch->ids, table);
  if (ids == nullptr) return Ship("vis-count", table, nullptr).status();
  std::vector<uint8_t> payload(8);
  EncodeFixed64(payload.data(), ids->size());
  GHOSTDB_RETURN_NOT_OK(Ship("vis-count", table, &payload).status());
  return ids->size();
}

}  // namespace ghostdb::untrusted
