#include "exec/operator.h"

#include "common/coding.h"
#include "device/wire_codec.h"
#include "exec/operators_project.h"
#include "exec/operators_rel.h"
#include "exec/operators_sj.h"

namespace ghostdb::exec {

Status ValidateExecConfig(const ExecConfig& config) {
  if (config.pad_spill_runs &&
      config.volume_padding == VolumePadding::kOff) {
    return Status::InvalidArgument(
        "ExecConfig.pad_spill_runs requires a volume_padding mode: padding "
        "spill-run counts while exposing exact result volumes defends the "
        "narrow channel and leaves the wide one open");
  }
  return Status::OK();
}

Status Operator::Open() {
  for (auto& child : children_) {
    GHOSTDB_RETURN_NOT_OK(child->Open());
  }
  return Status::OK();
}

Status Operator::Close() {
  for (auto& child : children_) {
    GHOSTDB_RETURN_NOT_OK(child->Close());
  }
  return Status::OK();
}

namespace {

/// Decodes a received row message in `layout` (keys below `key_limit`)
/// and charges its decode.
Result<device::WireRows> DecodeReceived(ExecContext* ctx,
                                        const device::WireLayout& layout,
                                        const std::vector<uint8_t>& message,
                                        uint64_t key_limit) {
  GHOSTDB_ASSIGN_OR_RETURN(
      device::WireRows rows,
      device::DecodeRows(ctx->device->channel().wire_format(), layout,
                         message.data(), message.size(), key_limit));
  if (rows.compact_bytes > 0) {
    auto scope = ctx->clock().Enter("decode");
    ctx->clock().Advance(rows.compact_bytes * device::kDecodeNsPerByte);
  }
  return rows;
}

}  // namespace

Result<std::vector<catalog::RowId>> ReceiveVisibleIds(ExecContext* ctx,
                                                      catalog::TableId table) {
  GHOSTDB_ASSIGN_OR_RETURN(
      const std::vector<uint8_t>* message,
      ctx->untrusted->ServeVisibleIds(table, ctx->vis_prefetch));
  GHOSTDB_ASSIGN_OR_RETURN(
      device::WireRows rows,
      DecodeReceived(ctx, device::WireLayout{}, *message,
                     ctx->store->tables[table].row_count));
  std::vector<catalog::RowId> ids(rows.rows);
  for (uint64_t i = 0; i < rows.rows; ++i) {
    ids[i] = DecodeFixed32(rows.bytes.data() + i * 4);
  }
  return ids;
}

Result<untrusted::ProjectionPayload> ReceiveProjection(
    ExecContext* ctx, catalog::TableId table,
    const std::vector<catalog::ColumnId>& columns) {
  GHOSTDB_ASSIGN_OR_RETURN(
      const std::vector<uint8_t>* message,
      ctx->untrusted->ServeProjection(table, columns, ctx->vis_prefetch));
  device::WireLayout layout =
      untrusted::WireLayoutOf(*ctx->schema, table, columns);
  GHOSTDB_ASSIGN_OR_RETURN(
      device::WireRows rows,
      DecodeReceived(ctx, layout, *message,
                     ctx->store->tables[table].row_count));
  untrusted::ProjectionPayload payload;
  payload.row_width = layout.row_width();
  payload.rows = rows.rows;
  payload.bytes = std::move(rows.bytes);
  return payload;
}

Result<untrusted::ProjectionPayload> ReceiveVisibleValues(
    ExecContext* ctx, const VisTable* vt, catalog::TableId table,
    const std::vector<catalog::ColumnId>& columns) {
  if (!columns.empty() || vt == nullptr) {
    return ReceiveProjection(ctx, table, columns);
  }
  untrusted::ProjectionPayload payload;
  payload.rows = vt->ids.size();
  payload.bytes.resize(vt->ids.size() * 4);
  for (size_t i = 0; i < vt->ids.size(); ++i) {
    EncodeFixed32(payload.bytes.data() + i * 4, vt->ids[i]);
  }
  return payload;
}

Result<device::WireRows> ReceiveVisibleResult(ExecContext* ctx,
                                              catalog::TableId table,
                                              const device::WireLayout& layout,
                                              uint64_t key_limit) {
  GHOSTDB_ASSIGN_OR_RETURN(
      const std::vector<uint8_t>* message,
      ctx->untrusted->ServeVisibleResult(table, ctx->vis_prefetch));
  return DecodeReceived(ctx, layout, *message, key_limit);
}

Status ExecContext::RequireDevice(std::string_view what) const {
  if (device != nullptr) return Status::OK();
  return Status::Internal("device-free tail run reached the device (" +
                          std::string(what) + ")");
}

std::optional<uint32_t> SjState::ColumnOffset(catalog::TableId t,
                                              catalog::TableId anchor) const {
  if (t == anchor) return 0u;
  for (uint32_t i = 0; i < column_tables.size(); ++i) {
    if (column_tables[i] == t) return 4 + 4 * i;
  }
  return std::nullopt;
}

MetricSnapshot MetricSnapshot::Take(device::SecureDevice* device) {
  MetricSnapshot snap;
  snap.clock_ns = device->clock().now();
  snap.categories = device->clock().categories();
  snap.flash = device->flash().stats();
  snap.bytes_to_secure =
      device->channel().BytesMoved(device::Direction::kToSecure);
  snap.bytes_to_untrusted =
      device->channel().BytesMoved(device::Direction::kToUntrusted);
  snap.flash_retries = device->fault_injector().flash_retries();
  snap.faults_injected = device->fault_injector().faults_injected();
  return snap;
}

void QueryMetrics::Accumulate(const QueryMetrics& other) {
  total_ns += other.total_ns;
  for (const auto& [category, ns] : other.categories) {
    categories[category] += ns;
  }
  flash.pages_read += other.flash.pages_read;
  flash.pages_written += other.flash.pages_written;
  flash.bytes_transferred += other.flash.bytes_transferred;
  flash.blocks_erased += other.flash.blocks_erased;
  flash.gc_page_copies += other.flash.gc_page_copies;
  flash.trims += other.flash.trims;
  bytes_to_secure += other.bytes_to_secure;
  bytes_to_untrusted += other.bytes_to_untrusted;
  qepsj_rows += other.qepsj_rows;
  result_rows += other.result_rows;
  peak_ram_buffers = std::max(peak_ram_buffers, other.peak_ram_buffers);
  merge.reduction_rounds += other.merge.reduction_rounds;
  merge.reduction_ids_written += other.merge.reduction_ids_written;
  merge.ids_emitted += other.merge.ids_emitted;
  merge.peak_streams = std::max(merge.peak_streams, other.merge.peak_streams);
  merge.window_bytes = std::max(merge.window_bytes, other.merge.window_bytes);
  merge.bitmap_groups += other.merge.bitmap_groups;
  bloom_fpr_estimate = std::max(bloom_fpr_estimate, other.bloom_fpr_estimate);
  sort_spill_runs += other.sort_spill_runs;
  sort_spill_pages += other.sort_spill_pages;
  sort_merge_pages += other.sort_merge_pages;
  topk_short_circuits += other.topk_short_circuits;
  observed_volume += other.observed_volume;
  padding_rows += other.padding_rows;
  padding_spill_runs += other.padding_spill_runs;
  flash_retries += other.flash_retries;
  faults_injected += other.faults_injected;
}

void MetricSnapshot::Delta(device::SecureDevice* device,
                           QueryMetrics* metrics) const {
  metrics->total_ns = device->clock().now() - clock_ns;
  metrics->categories.clear();
  for (const auto& [k, v] : device->clock().categories()) {
    auto it = categories.find(k);
    SimNanos before = it == categories.end() ? 0 : it->second;
    if (v > before) metrics->categories[k] = v - before;
  }
  metrics->flash = device->flash().stats() - flash;
  metrics->bytes_to_secure =
      device->channel().BytesMoved(device::Direction::kToSecure) -
      bytes_to_secure;
  metrics->bytes_to_untrusted =
      device->channel().BytesMoved(device::Direction::kToUntrusted) -
      bytes_to_untrusted;
  metrics->flash_retries =
      device->fault_injector().flash_retries() - flash_retries;
  metrics->faults_injected =
      device->fault_injector().faults_injected() - faults_injected;
}

namespace {

Result<std::unique_ptr<Operator>> BuildNode(ExecContext* ctx,
                                            const plan::PhysicalPlan& plan,
                                            int idx) {
  if (idx < 0 || static_cast<size_t>(idx) >= plan.nodes.size()) {
    return Status::Internal("physical plan node index out of range");
  }
  const plan::PhysicalNode& node = plan.nodes[idx];
  // Gather legs of a sharded scatter-gather: the fan-out boundary and
  // everything below it already ran per shard, so it becomes a
  // GatherSourceOp over the seq-merged row stream. Untrusted's tail run
  // feeds its tail the same way, from the PC's projection rows.
  if (ctx->gather_rows != nullptr && plan::IsProjectionBoundary(node.op)) {
    return std::unique_ptr<Operator>(std::make_unique<GatherSourceOp>(ctx));
  }
  // Every other operator but the tail's works on the key: a device-free
  // run may not instantiate one.
  switch (node.op) {
    case plan::PhysicalOp::kHashGroup:
    case plan::PhysicalOp::kSort:
    case plan::PhysicalOp::kLimit:
      break;
    default:
      GHOSTDB_RETURN_NOT_OK(ctx->RequireDevice(plan::PhysicalOpName(node.op)));
  }
  // The nodes below VisResult ran on Untrusted before the key was asked.
  if (node.op == plan::PhysicalOp::kVisResult) {
    return std::unique_ptr<Operator>(
        std::make_unique<VisResultOp>(ctx, plan.result_keyed_by_id()));
  }
  std::vector<std::unique_ptr<Operator>> kids;
  for (int c : node.children) {
    GHOSTDB_ASSIGN_OR_RETURN(std::unique_ptr<Operator> kid,
                             BuildNode(ctx, plan, c));
    kids.push_back(std::move(kid));
  }

  std::unique_ptr<Operator> op;
  switch (node.op) {
    case plan::PhysicalOp::kVisSelect:
      op = std::make_unique<VisSelectOp>(ctx);
      break;
    case plan::PhysicalOp::kBloomBuild:
      op = std::make_unique<BloomBuildOp>(ctx);
      break;
    case plan::PhysicalOp::kMerge:
      op = std::make_unique<MergeOp>(ctx);
      break;
    case plan::PhysicalOp::kSJoin: {
      // SJoin drives its Merge child through a push sink (the paper's
      // pipelined composition), so it needs the typed child.
      if (kids.size() != 1 ||
          plan.nodes[node.children[0]].op != plan::PhysicalOp::kMerge) {
        return Status::Internal("SJoin node requires a Merge child");
      }
      op = std::make_unique<SJoinOp>(
          ctx, static_cast<MergeOp*>(kids[0].get()));
      break;
    }
    case plan::PhysicalOp::kPostSelect:
      op = std::make_unique<PostSelectOp>(ctx);
      break;
    case plan::PhysicalOp::kProject:
      op = std::make_unique<ProjectOp>(
          ctx, plan.choice.project == plan::ProjectAlgo::kProject);
      break;
    case plan::PhysicalOp::kBruteForceProject:
      op = std::make_unique<BruteForceProjectOp>(ctx);
      break;
    case plan::PhysicalOp::kHashGroup:
      op = std::make_unique<HashGroupOp>(ctx);
      break;
    case plan::PhysicalOp::kSort:
      op = std::make_unique<SortOp>(ctx, node.limit);
      break;
    case plan::PhysicalOp::kLimit:
      op = std::make_unique<LimitOp>(ctx, *node.limit);
      break;
    case plan::PhysicalOp::kVolumePad:
      op = std::make_unique<VolumePadOp>(ctx);
      break;
    case plan::PhysicalOp::kVisProject:
    case plan::PhysicalOp::kVisResult:
      return Status::Internal(
          "visible-only plan node outside a VisResult or tail run");
  }
  if (op == nullptr) {
    return Status::Internal("unknown physical operator");
  }
  for (auto& kid : kids) op->AddChild(std::move(kid));
  return op;
}

}  // namespace

Result<std::unique_ptr<Operator>> BuildOperatorTree(
    ExecContext* ctx, const plan::PhysicalPlan& plan) {
  if (plan.root < 0) {
    return Status::Internal("physical plan has no root");
  }
  return BuildNode(ctx, plan, plan.root);
}

}  // namespace ghostdb::exec
