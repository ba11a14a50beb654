#include "untrusted/engine.h"

#include "common/coding.h"

namespace ghostdb::untrusted {

using device::Direction;

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
      prefetch.id_messages.emplace(t, EncodeIds(ids));
      prefetch.ids.emplace(t, std::move(ids));
    }
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

Result<std::vector<uint8_t>> UntrustedEngine::ServeVisibleIds(
    const sql::BoundQuery& query, catalog::TableId table,
    VisPrefetch* prefetch) {
  std::vector<uint8_t> message;
  bool prefetched = false;
  if (prefetch != nullptr) {
    auto it = prefetch->ids.find(table);
    if (it != prefetch->ids.end()) {
      message = std::move(prefetch->id_messages[table]);
      prefetch->ids.erase(it);
      prefetch->id_messages.erase(table);
      prefetched = true;
    }
  }
  if (!prefetched) {
    GHOSTDB_ASSIGN_OR_RETURN(
        std::vector<catalog::RowId> ids,
        store_.SelectIds(table, query.VisiblePredicatesOn(table), pool_));
    message = EncodeIds(ids);
  }
  // The message is identical whether the answer was speculative or inline.
  channel_->Transfer(Direction::kToSecure,
                     "vis-ids:" + schema_->table(table).name, message.data(),
                     message.size());
  return message;
}

Result<std::vector<uint8_t>> UntrustedEngine::ServeProjection(
    const sql::BoundQuery& query, catalog::TableId table,
    const std::vector<catalog::ColumnId>& columns, VisPrefetch* prefetch) {
  std::vector<uint8_t> message;
  bool prefetched = false;
  if (prefetch != nullptr) {
    auto it = prefetch->projections.find(table);
    if (it != prefetch->projections.end() && it->second.first == columns) {
      message = std::move(prefetch->projection_messages[table]);
      prefetch->projections.erase(it);
      prefetch->projection_messages.erase(table);
      prefetched = true;
    }
  }
  if (!prefetched) {
    GHOSTDB_ASSIGN_OR_RETURN(
        ProjectionPayload payload,
        store_.Project(table, query.VisiblePredicatesOn(table), columns,
                       pool_));
    message = EncodeProjection(table, columns, payload);
  }
  channel_->Transfer(Direction::kToSecure,
                     "vis-vals:" + schema_->table(table).name,
                     message.data(), message.size());
  return message;
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

Result<std::vector<uint8_t>> UntrustedEngine::ServeVisibleResult(
    catalog::TableId table, const VisPrefetch* prefetch) {
  if (prefetch == nullptr || !prefetch->result_message.has_value()) {
    return Status::Internal("no vis-result prepared for the statement");
  }
  const std::vector<uint8_t>& message = *prefetch->result_message;
  channel_->Transfer(Direction::kToSecure,
                     "vis-result:" + schema_->table(table).name,
                     message.data(), message.size());
  return message;
}

Result<uint64_t> UntrustedEngine::ServeVisibleCount(
    const sql::BoundQuery& query, catalog::TableId table,
    const VisPrefetch* prefetch) {
  uint64_t count = 0;
  bool prefetched = false;
  if (prefetch != nullptr) {
    auto it = prefetch->ids.find(table);
    if (it != prefetch->ids.end()) {
      count = it->second.size();
      prefetched = true;
    }
  }
  if (!prefetched) {
    GHOSTDB_ASSIGN_OR_RETURN(
        std::vector<catalog::RowId> ids,
        store_.SelectIds(table, query.VisiblePredicatesOn(table), pool_));
    count = ids.size();
  }
  uint8_t payload[8];
  EncodeFixed64(payload, count);
  channel_->Transfer(Direction::kToSecure,
                     "vis-count:" + schema_->table(table).name, payload, 8);
  return count;
}

}  // namespace ghostdb::untrusted
