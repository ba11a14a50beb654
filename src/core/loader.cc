#include "core/loader.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "common/coding.h"
#include "crypto/secure_channel.h"
#include "storage/btree.h"

namespace ghostdb::core {

using catalog::ColumnId;
using catalog::RowId;
using catalog::TableId;
using catalog::Value;

namespace {

// Master secret shared between owner and device (in deployment this is
// provisioned at key personalization time).
constexpr char kMasterSecret[] = "ghostdb-device-master-secret";

crypto::DeviceKeys Keys() {
  return crypto::DeviceKeys::Derive(
      reinterpret_cast<const uint8_t*>(kMasterSecret),
      sizeof(kMasterSecret) - 1);
}

// splitmix64: a full-avalanche mix so consecutive ids spread uniformly
// across shards (modulo alone would stripe them).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Result<ShardedStaging> PartitionStagedByRoot(
    const catalog::Schema& schema, const std::vector<TableData>& staged,
    uint32_t shard_count) {
  if (shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (staged.size() != schema.table_count()) {
    return Status::InvalidArgument("staged data must cover every table");
  }
  ShardedStaging out;
  out.shards.resize(shard_count);
  out.root_global_ids.resize(shard_count);
  if (shard_count == 1) {
    out.shards[0] = staged;  // identity global-id maps stay empty
    return out;
  }
  TableId root = schema.root();
  for (uint32_t s = 0; s < shard_count; ++s) {
    out.shards[s].reserve(staged.size());
    for (TableId t = 0; t < schema.table_count(); ++t) {
      if (t == root) {
        out.shards[s].emplace_back(&schema, t);
      } else {
        out.shards[s].push_back(staged[t]);  // full replica
      }
    }
  }
  const TableData& root_data = staged[root];
  uint32_t width = root_data.row_width();
  for (RowId r = 0; r < root_data.row_count(); ++r) {
    uint32_t s = static_cast<uint32_t>(SplitMix64(r) % shard_count);
    out.shards[s][root].AppendPackedRow(
        root_data.bytes().data() + static_cast<uint64_t>(r) * width);
    out.root_global_ids[s].push_back(r);
  }
  return out;
}

Result<SecureStore> Loader::Load(const std::vector<TableData>& staged) {
  if (staged.size() != schema_->table_count()) {
    return Status::InvalidArgument("staged data must cover every table");
  }
  // Referential integrity: every fk must hit an existing child row.
  for (TableId t = 0; t < schema_->table_count(); ++t) {
    const auto& cols = schema_->table(t).columns;
    for (ColumnId c = 0; c < cols.size(); ++c) {
      if (!cols[c].is_foreign_key()) continue;
      GHOSTDB_ASSIGN_OR_RETURN(TableId child,
                               schema_->FindTable(cols[c].references));
      uint64_t child_rows = staged[child].row_count();
      for (RowId r = 0; r < staged[t].row_count(); ++r) {
        if (staged[t].GetFk(r, c) >= child_rows) {
          return Status::InvalidArgument(
              "foreign key violation: " + schema_->table(t).name + "." +
              cols[c].name + " row " + std::to_string(r));
        }
      }
    }
  }

  GHOSTDB_RETURN_NOT_OK(BuildAncestorMaps(staged));

  SecureStore store;
  store.tables.resize(schema_->table_count());
  for (TableId t = 0; t < schema_->table_count(); ++t) {
    TableImage* image = &store.tables[t];
    image->row_count = staged[t].row_count();
    GHOSTDB_RETURN_NOT_OK(LoadVisiblePartition(t, staged[t]));
    GHOSTDB_RETURN_NOT_OK(BuildHiddenImage(t, staged[t], image));
    if (!schema_->tree(t).descendants.empty()) {
      GHOSTDB_RETURN_NOT_OK(BuildSkt(t, staged, image));
    }
    // Attribute climbing indexes: configured set, or all hidden non-FK.
    std::vector<ColumnId> to_index;
    if (indexed_attrs_.has_value()) {
      auto it = indexed_attrs_->find(t);
      if (it != indexed_attrs_->end()) to_index = it->second;
    } else {
      for (ColumnId c : schema_->HiddenColumns(t)) {
        if (!schema_->table(t).columns[c].is_foreign_key()) {
          to_index.push_back(c);
        }
      }
    }
    for (ColumnId c : to_index) {
      GHOSTDB_RETURN_NOT_OK(BuildAttrIndex(t, c, staged[t], image));
    }
    if (t != schema_->root()) {
      GHOSTDB_RETURN_NOT_OK(BuildIdIndex(t, staged[t], image));
    }
    GHOSTDB_RETURN_NOT_OK(BuildStats(t, staged[t], image));
  }
  return store;
}

Status Loader::LoadVisiblePartition(TableId t, const TableData& data) {
  auto visible = schema_->VisibleColumns(t);
  uint32_t vis_width = schema_->VisibleRowWidth(t);
  std::vector<uint8_t> packed;
  packed.resize(data.row_count() * vis_width);
  uint8_t* dst = packed.data();
  const auto& cols = schema_->table(t).columns;
  for (RowId r = 0; r < data.row_count(); ++r) {
    for (ColumnId c : visible) {
      std::memcpy(dst, data.CellPtr(r, c), cols[c].width);
      dst += cols[c].width;
    }
  }
  return untrusted_->store().LoadTable(t, std::move(packed),
                                       data.row_count());
}

Status Loader::BuildHiddenImage(TableId t, const TableData& data,
                                TableImage* image) {
  auto hidden = schema_->HiddenColumns(t);
  image->hidden_offsets.assign(schema_->table(t).columns.size(),
                               UINT32_MAX);
  if (hidden.empty()) return Status::OK();
  const auto& cols = schema_->table(t).columns;
  uint32_t width = 0;
  for (ColumnId c : hidden) {
    image->hidden_offsets[c] = width;
    width += cols[c].width;
  }
  std::vector<uint8_t> packed(data.row_count() * width);
  uint8_t* dst = packed.data();
  for (RowId r = 0; r < data.row_count(); ++r) {
    for (ColumnId c : hidden) {
      std::memcpy(dst, data.CellPtr(r, c), cols[c].width);
      dst += cols[c].width;
    }
  }

  // The owner seals the Hidden partition; the device verifies and opens
  // it. Tampered downloads fail here.
  auto keys = Keys();
  auto sealed = crypto::Seal(keys, packed, /*nonce_seed=*/t + 1);
  GHOSTDB_ASSIGN_OR_RETURN(packed, crypto::Open(keys, sealed));

  std::vector<uint8_t> scratch(device_->flash().config().page_size);
  storage::FixedTableBuilder builder(
      &device_->flash(), allocator_, scratch.data(), width,
      "hidden:" + schema_->table(t).name);
  for (RowId r = 0; r < data.row_count(); ++r) {
    GHOSTDB_RETURN_NOT_OK(builder.AppendRow(packed.data() +
                                            static_cast<uint64_t>(r) * width));
  }
  GHOSTDB_ASSIGN_OR_RETURN(auto ref, builder.Finish());
  image->hidden_image = std::move(ref);
  return Status::OK();
}

Status Loader::BuildSkt(TableId t, const std::vector<TableData>& staged,
                        TableImage* image) {
  image->skt_columns = schema_->tree(t).descendants;  // pre-order
  uint32_t width = 4 * static_cast<uint32_t>(image->skt_columns.size());
  std::vector<uint8_t> scratch(device_->flash().config().page_size);
  storage::FixedTableBuilder builder(&device_->flash(), allocator_,
                                     scratch.data(), width,
                                     "skt:" + schema_->table(t).name);
  std::vector<uint8_t> row(width);
  // Slot of each descendant within the SKT row.
  std::map<TableId, uint32_t> slot;
  for (uint32_t i = 0; i < image->skt_columns.size(); ++i) {
    slot[image->skt_columns[i]] = i;
  }
  // Recursive fill: parent holds the fk to each child.
  std::function<void(TableId, RowId)> fill = [&](TableId table, RowId r) {
    for (TableId child : schema_->tree(table).children) {
      RowId child_id =
          staged[table].GetFk(r, schema_->tree(child).parent_fk);
      EncodeFixed32(row.data() + slot[child] * 4, child_id);
      fill(child, child_id);
    }
  };
  for (RowId r = 0; r < staged[t].row_count(); ++r) {
    fill(t, r);
    GHOSTDB_RETURN_NOT_OK(builder.AppendRow(row.data()));
  }
  GHOSTDB_ASSIGN_OR_RETURN(auto ref, builder.Finish());
  image->skt = std::move(ref);
  return Status::OK();
}

Status Loader::BuildAncestorMaps(const std::vector<TableData>& staged) {
  anc_ids_.assign(schema_->table_count(), {});
  // BFS from the root so a parent's maps exist before its children's.
  std::vector<TableId> order = {schema_->root()};
  for (size_t i = 0; i < order.size(); ++i) {
    for (TableId c : schema_->tree(order[i]).children) order.push_back(c);
  }
  for (TableId t : order) {
    if (t == schema_->root()) continue;
    TableId parent = schema_->tree(t).parent;
    ColumnId fk = schema_->tree(t).parent_fk;
    size_t levels = schema_->tree(t).ancestors.size();
    anc_ids_[t].resize(levels);
    // Level 0: parent rows referencing each row of t (ascending by
    // construction).
    auto& direct = anc_ids_[t][0];
    direct.assign(staged[t].row_count(), {});
    for (RowId p = 0; p < staged[parent].row_count(); ++p) {
      direct[staged[parent].GetFk(p, fk)].push_back(p);
    }
    // Higher levels: compose with the parent's maps.
    for (size_t level = 1; level < levels; ++level) {
      auto& out = anc_ids_[t][level];
      out.assign(staged[t].row_count(), {});
      const auto& parent_level = anc_ids_[parent][level - 1];
      for (RowId r = 0; r < staged[t].row_count(); ++r) {
        auto& dst = out[r];
        for (RowId p : direct[r]) {
          dst.insert(dst.end(), parent_level[p].begin(),
                     parent_level[p].end());
        }
        std::sort(dst.begin(), dst.end());
        dst.erase(std::unique(dst.begin(), dst.end()), dst.end());
      }
    }
  }
  return Status::OK();
}

Status Loader::BuildAttrIndex(TableId t, ColumnId c, const TableData& data,
                              TableImage* image) {
  const auto& col = schema_->table(t).columns[c];
  size_t anc_levels = schema_->tree(t).ancestors.size();
  storage::BTreeBuilder builder(
      &device_->flash(), allocator_, col.type, col.width,
      static_cast<uint32_t>(1 + anc_levels),
      "ci:" + schema_->table(t).name + "." + col.name);

  // Sort row ids by (encoded key, id).
  std::vector<RowId> order(data.row_count());
  std::iota(order.begin(), order.end(), 0);
  auto cmp_cells = [&](RowId a, RowId b) {
    int cv = catalog::CompareEncoded(col.type, col.width, data.CellPtr(a, c),
                                     data.CellPtr(b, c));
    if (cv != 0) return cv < 0;
    return a < b;
  };
  std::sort(order.begin(), order.end(), cmp_cells);

  std::vector<std::vector<RowId>> levels(1 + anc_levels);
  size_t i = 0;
  while (i < order.size()) {
    const uint8_t* key_cell = data.CellPtr(order[i], c);
    Value key = data.Get(order[i], c);
    for (auto& l : levels) l.clear();
    size_t j = i;
    while (j < order.size() &&
           catalog::CompareEncoded(col.type, col.width, key_cell,
                                   data.CellPtr(order[j], c)) == 0) {
      levels[0].push_back(order[j]);
      ++j;
    }
    for (size_t level = 0; level < anc_levels; ++level) {
      auto& dst = levels[1 + level];
      for (size_t k = i; k < j; ++k) {
        const auto& src = anc_ids_[t][level][order[k]];
        dst.insert(dst.end(), src.begin(), src.end());
      }
      std::sort(dst.begin(), dst.end());
      dst.erase(std::unique(dst.begin(), dst.end()), dst.end());
    }
    GHOSTDB_RETURN_NOT_OK(builder.Add(key, levels));
    i = j;
  }
  GHOSTDB_ASSIGN_OR_RETURN(auto ref, builder.Finish());
  image->attr_indexes.emplace(c, std::move(ref));
  return Status::OK();
}

Status Loader::BuildIdIndex(TableId t, const TableData& data,
                            TableImage* image) {
  size_t anc_levels = schema_->tree(t).ancestors.size();
  storage::BTreeBuilder builder(&device_->flash(), allocator_,
                                catalog::DataType::kInt32, 4,
                                static_cast<uint32_t>(anc_levels),
                                "ci:" + schema_->table(t).name + ".id");
  std::vector<std::vector<RowId>> levels(anc_levels);
  for (RowId r = 0; r < data.row_count(); ++r) {
    for (size_t level = 0; level < anc_levels; ++level) {
      levels[level] = anc_ids_[t][level][r];
    }
    GHOSTDB_RETURN_NOT_OK(
        builder.Add(Value::Int32(static_cast<int32_t>(r)), levels));
  }
  GHOSTDB_ASSIGN_OR_RETURN(auto ref, builder.Finish());
  image->id_index = std::move(ref);
  return Status::OK();
}

Status Loader::BuildStats(TableId t, const TableData& data,
                          TableImage* image) {
  // Sampled statistics keep host memory bounded on large tables.
  constexpr uint64_t kMaxSample = 65536;
  uint64_t step = std::max<uint64_t>(1, data.row_count() / kMaxSample);
  for (ColumnId c : schema_->HiddenColumns(t)) {
    std::vector<Value> sample;
    for (RowId r = 0; r < data.row_count(); r += step) {
      sample.push_back(data.Get(r, c));
    }
    image->hidden_stats.emplace(c,
                                catalog::ColumnStats::Build(std::move(sample)));
  }
  return Status::OK();
}

}  // namespace ghostdb::core
