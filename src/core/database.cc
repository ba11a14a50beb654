#include "core/database.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "crypto/sha256.h"
#include "device/guards.h"
#include "exec/operators_rel.h"
#include "sql/binder.h"

namespace ghostdb::core {

using catalog::TableId;

namespace {

/// Runs one execution `attempt` on `device` — an inline leg, a scatter
/// leg, or the gather — with no-leak fault recovery. Under the padded
/// volume modes an injected fault must be invisible on the wire, because
/// whether it fired depends on the flash-op count — hidden data. So a
/// failed attempt's recorded span is erased and the attempt replays with
/// the device's injector masked: the replay is a deterministic function of
/// visible inputs, so the surviving transcript and padded volume are
/// exactly the fault-free ones. Only execution replays; planning happened
/// before the span opened. The caller holds `device`'s admission (no other
/// session touches its channel), and `attempt` resets its own outputs and
/// measures from a baseline that predates the fault, so faults_injected /
/// flash_retries still record what really happened. Without padding, or
/// on a genuine error, the failure stands.
Result<exec::QueryResult> RecoverUnderMask(
    device::SecureDevice* device, bool padded,
    const std::function<Result<exec::QueryResult>()>& attempt) {
  device::Channel& channel = device->channel();
  const size_t span_begin = channel.transcript_size();
  Result<exec::QueryResult> r = attempt();
  if (r.ok() || !padded ||
      !device::FaultInjector::IsInjectedFault(r.status())) {
    return r;
  }
  channel.EraseTranscript(span_begin, channel.transcript_size() - span_begin);
  device::FaultInjector::MaskScope mask(&device->fault_injector());
  return attempt();
}

}  // namespace

uint32_t DeclaredShapeWeight(const sql::BoundQuery& query) {
  // Visible information only: the arbiter's fairness unit is the number of
  // FROM tables the statement names. Never derived from hidden data or
  // from execution outcomes.
  return std::max<uint32_t>(1, static_cast<uint32_t>(query.tables.size()));
}

GhostDB::GhostDB(GhostDBConfig config) : config_(std::move(config)) {
  // External NAND pages are always encrypted (the chip sits outside the
  // secure perimeter, Fig 2); zero simulated-time cost.
  if (!config_.device.flash.cipher_key.has_value()) {
    // Derive the at-rest key from the device master secret.
    const char* label = "ghostdb-at-rest-key";
    auto digest = crypto::Sha256::Hash(
        reinterpret_cast<const uint8_t*>(label), 19);
    std::array<uint8_t, 32> key{};
    std::copy(digest.begin(), digest.end(), key.begin());
    config_.device.flash.cipher_key = key;
  }
  // Every shard device (this one and the ones Build() creates) carries the
  // same fault schedule; Build() reseeds each onto its own lane and arms
  // them once loading is done.
  config_.device.fault = config_.fault_config;
  shards_.resize(1);
  shards_[0].device = std::make_unique<device::SecureDevice>(config_.device);
  shards_[0].allocator =
      std::make_unique<storage::PageAllocator>(&shards_[0].device->flash());
}

GhostDB::~GhostDB() = default;

Status GhostDB::Execute(const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (auto* create = std::get_if<sql::CreateTableStmt>(&stmt)) {
    if (built_) {
      return Status::NotSupported("schema changes after Build()");
    }
    return schema_.AddTable(create->def);
  }
  if (auto* insert = std::get_if<sql::InsertStmt>(&stmt)) {
    if (built_) {
      return Status::NotSupported(
          "updates after Build() are outside this prototype's scope "
          "(the paper treats updates as untime-critical, section 2.3)");
    }
    if (!schema_.finalized()) {
      GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
      staged_.clear();
      for (TableId t = 0; t < schema_.table_count(); ++t) {
        staged_.emplace_back(&schema_, t);
      }
    }
    GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(insert->table));
    return staged_[t].AppendRow(insert->values);
  }
  return Status::InvalidArgument(
      "Execute() handles CREATE TABLE / INSERT; use Query() for SELECT");
}

Result<TableData*> GhostDB::MutableStaging(const std::string& table) {
  if (built_) {
    return Status::NotSupported("staging after Build()");
  }
  if (!schema_.finalized()) {
    GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
    staged_.clear();
    for (TableId t = 0; t < schema_.table_count(); ++t) {
      staged_.emplace_back(&schema_, t);
    }
  }
  GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(table));
  return &staged_[t];
}

Status GhostDB::Build() {
  if (built_) return Status::OK();
  if (config_.worker_threads == 0) {
    return Status::InvalidArgument(
        "GhostDBConfig.worker_threads must be >= 1 (1 = serial)");
  }
  if (config_.worker_threads > 64) {
    return Status::InvalidArgument(
        "GhostDBConfig.worker_threads > 64 is absurd for a PC-side morsel "
        "pool");
  }
  if (config_.shard_count == 0) {
    return Status::InvalidArgument(
        "GhostDBConfig.shard_count must be >= 1 (1 = single device)");
  }
  if (config_.shard_count > 16) {
    return Status::InvalidArgument(
        "GhostDBConfig.shard_count > 16 is absurd for a simulated fleet of "
        "smart USB keys on one host");
  }
  GHOSTDB_RETURN_NOT_OK(exec::ValidateExecConfig(config_.exec));
  GHOSTDB_RETURN_NOT_OK(device::ValidateFaultConfig(config_.fault_config));
  // Effective width: the explicit ExecConfig override if set, else the
  // database-wide knob. Stamp it back into the exec config so the planner
  // and executor see one value.
  if (config_.exec.worker_threads == 0) {
    config_.exec.worker_threads = config_.worker_threads;
  }
  if (config_.exec.worker_threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(config_.exec.worker_threads);
  }
  if (!schema_.finalized()) {
    GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
    staged_.clear();
    for (TableId t = 0; t < schema_.table_count(); ++t) {
      staged_.emplace_back(&schema_, t);
    }
  }
  IndexedAttrs indexed_attrs;
  if (config_.indexed_attrs_by_name.has_value()) {
    std::map<TableId, std::vector<catalog::ColumnId>> resolved;
    for (const auto& [table_name, columns] :
         *config_.indexed_attrs_by_name) {
      GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(table_name));
      for (const auto& column_name : columns) {
        auto c = schema_.table(t).FindColumn(column_name);
        if (!c.has_value()) {
          return Status::NotFound("indexed column '" + table_name + "." +
                                  column_name + "' not found");
        }
        resolved[t].push_back(*c);
      }
      resolved.try_emplace(t);  // ensure entry exists even if empty
    }
    indexed_attrs = std::move(resolved);
  }
  // Sharded fleets: hash-partition the root's rows across the devices
  // (every other table replicates) and install each shard's local→global
  // id map on both sides of its channel — Secure renders global anchor
  // ids, Untrusted evaluates id predicates against them.
  const bool partitioned = config_.shard_count > 1 && schema_.table_count() > 0;
  ShardedStaging parts;
  if (partitioned) {
    GHOSTDB_ASSIGN_OR_RETURN(
        parts,
        PartitionStagedByRoot(schema_, staged_, config_.shard_count));
  }
  shards_.resize(config_.shard_count);
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    Shard& shard = shards_[s];
    if (shard.device == nullptr) {
      shard.device = std::make_unique<device::SecureDevice>(config_.device);
      shard.allocator =
          std::make_unique<storage::PageAllocator>(&shard.device->flash());
    }
    shard.untrusted = std::make_unique<untrusted::UntrustedEngine>(
        &schema_, &shard.device->channel());
    shard.untrusted->set_pool(pool_.get());
    Loader loader(&schema_, shard.device.get(), shard.allocator.get(),
                  shard.untrusted.get(), indexed_attrs);
    GHOSTDB_ASSIGN_OR_RETURN(
        shard.store, loader.Load(partitioned ? parts.shards[s] : staged_));
    if (partitioned) {
      TableId root = schema_.root();
      shard.store.tables[root].global_ids = parts.root_global_ids[s];
      shard.store.tables[root].global_row_count = staged_[root].row_count();
      GHOSTDB_RETURN_NOT_OK(shard.untrusted->store().SetGlobalIds(
          root, parts.root_global_ids[s]));
    }
    shard.executor = std::make_unique<exec::SecureExecutor>(
        shard.device.get(), shard.allocator.get(), &schema_, &shard.store,
        shard.untrusted.get(), config_.exec);
  }
  // The planner reads shard 0's store (statistics differ per shard only in
  // their samples; one plan runs on every leg of the fleet).
  planner_ = std::make_unique<plan::Planner>(
      &schema_, &shards_[0].store, plan::PlannerConfig{config_.shard_count});
  if (!config_.retain_staged_data) {
    staged_.clear();
    staged_.shrink_to_fit();
  }
  // Arm the fault schedule only now: the load phase above must always run
  // fault-free (a half-built store is not a scenario the paper's device
  // would ship). Each shard draws from its own seed lane so a fleet run
  // doesn't replay shard 0's schedule N times.
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    device::FaultInjector& injector = shard_device(s).fault_injector();
    injector.Reseed(config_.fault_config.seed +
                    0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(s));
    injector.set_armed(true);
  }
  // The default session registers with every shard's arbiter before any
  // caller can open one, so it heads each DRR cycle.
  GHOSTDB_ASSIGN_OR_RETURN(default_session_,
                           AttachSession(kDefaultSessionId, "main", 0));
  built_ = true;
  return Status::OK();
}

Result<std::unique_ptr<Session>> GhostDB::OpenSession(
    SessionOptions options) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before OpenSession()");
  }
  int32_t id;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    id = next_session_id_++;
  }
  std::string name =
      options.name.empty() ? "s" + std::to_string(id) : options.name;
  uint32_t quota = options.ram_quota_buffers;
  if (quota == SessionOptions::kDefaultRamQuota) {
    quota = std::max<uint32_t>(1, device().ram().total_buffers() / 4);
  }
  GHOSTDB_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                           AttachSession(id, std::move(name), quota));
  std::lock_guard<std::mutex> lk(sessions_mu_);
  open_sessions_ += 1;
  return session;
}

Result<std::unique_ptr<Session>> GhostDB::AttachSession(int32_t id,
                                                        std::string name,
                                                        uint32_t quota) {
  // A session spans the fleet: the same quota is pledged on every shard's
  // RAM manager and the session registers with every shard's arbiter, so
  // its scatter legs are admitted and charged on each device identically.
  std::vector<device::RamPartitionId> partitions;
  partitions.reserve(shard_count());
  for (uint32_t s = 0; s < shard_count(); ++s) {
    device::SecureDevice& dev = shard_device(s);
    device::RamPartitionId partition = device::kSharedRamPartition;
    if (quota > 0) {
      // The partition pledge mutates the RAM manager, so take an
      // admission: device state only ever changes under the arbiter's
      // exclusion. (The default session pledges nothing, so it exists
      // whenever this runs.)
      device::AdmissionGuard admission(&dev.arbiter(),
                                       default_session_->id(), 1);
      GHOSTDB_ASSIGN_OR_RETURN(partition,
                               dev.ram().CreatePartition(name, quota));
    }
    dev.arbiter().Register(id, name);
    partitions.push_back(partition);
  }
  return std::unique_ptr<Session>(
      new Session(this, id, std::move(name), std::move(partitions)));
}

void GhostDB::CloseSession(Session* session) {
  for (uint32_t s = 0; s < shard_count() &&
                       s < static_cast<uint32_t>(session->bindings_.size());
       ++s) {
    device::SecureDevice& dev = shard_device(s);
    device::RamPartitionId partition = session->bindings_[s].ram_partition;
    if (partition != device::kSharedRamPartition) {
      device::AdmissionGuard admission(&dev.arbiter(),
                                                  session->id_, 1);
      // A failure here means the session still holds buffers — impossible
      // once its last query finished (all operator handles are RAII);
      // there is nothing useful to do with it in a destructor path.
      GHOSTDB_IGNORE_STATUS(dev.ram().ReleasePartition(partition),
                            "session teardown is a destructor path");
    }
    dev.arbiter().Unregister(session->id_);
  }
  if (session->id_ == kDefaultSessionId) return;
  std::lock_guard<std::mutex> lk(sessions_mu_);
  open_sessions_ -= 1;
}

size_t GhostDB::open_sessions() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  return open_sessions_;
}

Result<sql::BoundQuery> GhostDB::BindSelect(const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  auto* select = std::get_if<sql::SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("Query() expects a SELECT");
  }
  return sql::Bind(*select, schema_, sql);
}

Status GhostDB::ServeVisCounts(const sql::BoundQuery& query,
                               const untrusted::VisPrefetch* prefetch,
                               std::map<TableId, uint64_t>* out) {
  // A visible-only plan has no strategy for the counts to choose.
  if (planner_->VisibleOnly(query)) return Status::OK();
  for (TableId t : query.tables) {
    if (!query.HasVisiblePredicateOn(t)) continue;
    GHOSTDB_ASSIGN_OR_RETURN(
        uint64_t count, untrusted().ServeVisibleCount(t, prefetch));
    (*out)[t] = count;
  }
  return Status::OK();
}

Status GhostDB::AnswerOnUntrusted(
    const sql::BoundQuery& query, const plan::PhysicalPlan& plan,
    std::vector<untrusted::VisPrefetch>* prefetch) {
  // Each leg's PC projects its own slice (global ids); the coordinator's
  // PC merges the slices and runs the tail once.
  const size_t legs = prefetch->size();
  std::vector<untrusted::ProjectionPayload> slices(legs);
  for (size_t s = 0; s < legs; ++s) {
    GHOSTDB_ASSIGN_OR_RETURN(slices[s],
                             shards_[s].untrusted->ProjectStatement(query));
  }
  GHOSTDB_ASSIGN_OR_RETURN(
      untrusted::ProjectionPayload rows,
      exec::RunUntrustedTail(query, plan, schema_, std::move(slices)));
  // Then splits the final rows into one contiguous key range per leg:
  // shard s's key receives range s over its own channel, and the gather
  // concatenates the ranges by key.
  const device::WireLayout layout = exec::VisResultWireLayout(
      query, plan.value_layout, plan.result_keyed_by_id());
  for (size_t s = 0; s < legs; ++s) {
    const uint64_t begin = rows.rows * s / legs;
    const uint64_t end = rows.rows * (s + 1) / legs;
    (*prefetch)[s].result_message = shards_[s].untrusted->EncodeResult(
        layout, rows.bytes.data() + begin * rows.row_width, end - begin);
  }
  return Status::OK();
}

Result<exec::QueryResult> GhostDB::RunSelect(const sql::BoundQuery& query,
                                             const plan::PlanChoice* pinned,
                                             const Session& session) {
  const std::vector<exec::SessionBinding>& bindings = session.bindings_;
  // Visible inputs only (fleet size, anchor table, EXPLAIN flag): whether a
  // statement scatters is as observable as the statement itself. EXPLAIN
  // renders the plan without touching data.
  const bool fanout = !query.explain && planner_->FansOut(query);
  const uint32_t legs = fanout ? shard_count() : 1;
  const uint32_t weight = DeclaredShapeWeight(query);
  const bool padded =
      config_.exec.volume_padding != exec::VolumePadding::kOff;
  std::vector<untrusted::VisPrefetch> prefetch(legs);

  // Planning happens once, outside every span a fault recovery erases: a
  // recovery replays execution only. Every statement plans from its own
  // visible counts, so its strategy (and transcript) depends only on its
  // own text and the visible data. Pinned runs serve the counts too, so
  // their transcripts and metrics stay comparable across strategies.
  std::map<TableId, uint64_t> vis_counts;
  plan::PhysicalPlan plan;
  auto plan_statement = [&]() -> Status {
    GHOSTDB_RETURN_NOT_OK(ServeVisCounts(query, &prefetch[0], &vis_counts));
    if (pinned != nullptr) {
      plan = planner_->LowerPlan(query, *pinned, config_.exec);
      return Status::OK();
    }
    plan = planner_->PlanQuery(query, vis_counts, config_.exec);
    return Status::OK();
  };

  // PC-side work, before asking for any device: everything the PC sends is
  // a pure function of the (already announced-to-be) visible statement, so
  // each shard's Untrusted prepares it over its own slice while the keys
  // are still serving other sessions. A visible-only statement plans here
  // too (it needs no round-trip) and the PC answers it whole; any other
  // statement's PC evaluates and encodes the visible answers each leg's
  // key will request (an EXPLAIN's PC only evaluates its Vis id lists,
  // whose sizes are the vis-counts). The key's requests then ship these
  // messages as is, on every attempt.
  const bool pc_answers = !query.explain && planner_->VisibleOnly(query);
  if (pc_answers) {
    GHOSTDB_RETURN_NOT_OK(plan_statement());
    GHOSTDB_RETURN_NOT_OK(AnswerOnUntrusted(query, plan, &prefetch));
  } else {
    for (uint32_t s = 0; s < legs; ++s) {
      GHOSTDB_ASSIGN_OR_RETURN(prefetch[s],
                               shards_[s].untrusted->PrefetchVisible(query));
    }
  }

  exec::EncodedRows deferred;  // the answer's rendering surface
  Result<exec::QueryResult> result = [&]() -> Result<exec::QueryResult> {
    // Admission = the device. Shard 0 is the coordinator: one admission
    // covers the baseline snapshot, the announcement, the planning
    // round-trips, its own leg, and the gather pass, so its transcript is
    // a single deterministic block under this session's tag.
    Shard& coordinator = shards_[0];
    device::AdmissionGuard admission(&coordinator.device->arbiter(),
                                     bindings[0].id, weight);
    const exec::MetricSnapshot baseline =
        exec::MetricSnapshot::Take(coordinator.device.get());
    // The query text is the only information that leaves the key.
    coordinator.untrusted->ReceiveQuery(query.sql);
    if (!pc_answers) GHOSTDB_RETURN_NOT_OK(plan_statement());
    if (query.explain) {
      exec::QueryResult explained;
      explained.columns = {"plan"};
      explained.rows = {{catalog::Value::String(
          planner_->Explain(query, plan, vis_counts))}};
      explained.total_rows = 1;
      return explained;
    }

    // The legs. A fan-out statement runs the plan's subtree at/below the
    // fan-out boundary on every shard over its own slice: shards 1..N-1 on
    // their own threads under their own arbiters (independent devices
    // admit independently), the coordinator's leg on this thread under the
    // admission already held. Any other statement — and every statement on
    // a fleet of one — is a single inline leg running the whole plan on the
    // coordinator: no scatter, no thread, no gather.
    std::vector<Result<exec::QueryResult>> leg_results(
        legs, Result<exec::QueryResult>(Status::Internal("leg unset")));
    std::vector<exec::EncodedRows> leg_rows(legs);
    auto run_leg = [&](uint32_t s) {
      Shard& shard = shards_[s];
      std::optional<device::AdmissionGuard> leg_admission;
      if (s != 0) {
        leg_admission.emplace(&shard.device->arbiter(), bindings[s].id,
                              weight);
      }
      // Taken once per leg, so a recovery re-run still reports the failed
      // attempt's fault counters and clock.
      const exec::MetricSnapshot leg_base =
          s == 0 ? baseline : exec::MetricSnapshot::Take(shard.device.get());
      exec::FanoutParams scatter;
      leg_results[s] = RecoverUnderMask(
          shard.device.get(), padded, [&]() -> Result<exec::QueryResult> {
            leg_rows[s] = exec::EncodedRows{};
            if (fanout) {
              // Whole-shard reset: the device drops out before a byte
              // moves — the leg dies with an empty transcript span and a
              // tagged error while its neighbors keep running.
              if (shard.device->fault_injector().DrawShardReset()) {
                return Status::IOError(
                    std::string(device::FaultInjector::kTag) + " shard " +
                    std::to_string(s) + " reset during scatter");
              }
              if (s != 0) shard.untrusted->ReceiveQuery(query.sql);
            }
            return shard.executor->Execute(query, plan, leg_base,
                                           bindings[s], &leg_rows[s],
                                           &prefetch[s],
                                           fanout ? &scatter : nullptr);
          });
    };
    std::vector<std::thread> threads;
    threads.reserve(legs - 1);
    for (uint32_t s = 1; s < legs; ++s) threads.emplace_back(run_leg, s);
    run_leg(0);
    for (auto& t : threads) t.join();
    // A leg that failed even after recovery fails the query with its clean
    // per-session Status; every other leg already finished, and nothing
    // below holds resources.
    for (const auto& r : leg_results) GHOSTDB_RETURN_NOT_OK(r.status());
    if (!fanout) {
      deferred = std::move(leg_rows[0]);
      return std::move(leg_results[0]);
    }

    // Merge the shard outputs into the gather pass's input: the exact row
    // order a single device would have produced.
    if (plan.visible_only()) {
      GHOSTDB_RETURN_NOT_OK(
          exec::CheckVisResultRanges(leg_rows, plan.result_keyed_by_id()));
    }
    exec::GatherInput gather_input;
    for (uint32_t s = 0; s < legs; ++s) {
      gather_input.skipped_rows +=
          leg_results[s]->total_rows - leg_rows[s].row_count;
      gather_input.padding_row_bound += leg_rows[s].padding_row_bound;
    }
    gather_input.rows = exec::MergeEncodedRowsBySeq(std::move(leg_rows));
    exec::FanoutParams gparams;
    gparams.role = exec::FanoutParams::Role::kGather;
    gparams.gather_rows = &gather_input;

    // Gather on the coordinator: the plan's tail over the merged
    // stream, measured from its own baseline (taken once, like a leg's).
    // The gather inputs are const, so the tail is re-runnable after a
    // recovery erases the failed span.
    const exec::MetricSnapshot gather_base =
        exec::MetricSnapshot::Take(coordinator.device.get());
    GHOSTDB_ASSIGN_OR_RETURN(
        exec::QueryResult gathered,
        RecoverUnderMask(coordinator.device.get(), padded, [&] {
          deferred = exec::EncodedRows{};
          return coordinator.executor->Execute(query, plan, gather_base,
                                               bindings[0], &deferred, nullptr,
                                               &gparams);
        }));

    // Fleet metrics: channel/flash/QEP counters sum over every leg;
    // wall-clock is the slowest scatter leg plus the gather tail (the
    // legs' device clocks tick concurrently); the answer-volume fields
    // are the gather's alone — scatter outputs are intermediate.
    exec::QueryMetrics total;
    SimNanos slowest_leg = 0;
    for (const auto& r : leg_results) {
      total.Accumulate(r->metrics);
      slowest_leg = std::max(slowest_leg, r->metrics.total_ns);
    }
    total.Accumulate(gathered.metrics);
    total.total_ns = slowest_leg + gathered.metrics.total_ns;
    total.result_rows = gathered.metrics.result_rows;
    total.observed_volume = gathered.metrics.observed_volume;
    total.padding_rows = gathered.metrics.padding_rows;
    gathered.metrics = std::move(total);
    return gathered;
  }();
  if (!result.ok()) return result;
  // The rendering half of the surface: decode the captured cells to
  // Values *after* the admission released, so one session's rendering
  // overlaps the next session's device work. Purely local — the decode
  // can touch nothing observable.
  deferred.DecodeInto(&result.ValueUnsafe());
  return result;
}

Result<uint64_t> GhostDB::DrainSessions(
    const std::vector<Session*>& sessions) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  uint64_t ran = 0;
  for (;;) {
    // Who is asking, at what declared weight — the arbiter's only inputs.
    std::vector<std::pair<int32_t, uint32_t>> pending;
    pending.reserve(sessions.size());
    for (Session* s : sessions) {
      uint32_t weight = 1;
      if (s->BindHead(&weight)) pending.emplace_back(s->id(), weight);
    }
    if (pending.empty()) break;
    int32_t pick = device().arbiter().PickNext(pending);
    for (Session* s : sessions) {
      if (s->id() == pick) {
        s->RunHead();
        break;
      }
    }
    ran += 1;
  }
  return ran;
}

Result<BatchResult> GhostDB::QueryBatch(const std::vector<std::string>& sqls) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  // One ephemeral session holding the whole stream, no dedicated RAM
  // partition (the batch runs from the shared reserve, like the default
  // session).
  SessionOptions options;
  options.ram_quota_buffers = 0;
  options.name = "batch";
  GHOSTDB_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                           OpenSession(std::move(options)));
  BatchResult batch;
  batch.results.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    // Fail fast: the first erroring statement ends the batch — later
    // statements never reach the device.
    GHOSTDB_ASSIGN_OR_RETURN(exec::QueryResult r, session->Query(sql));
    // The batch totals are the statement sums: every device cost of the
    // batch falls inside some statement, and each statement's metrics
    // already fold in all of its legs, so this holds at every fleet size.
    batch.total.Accumulate(r.metrics);
    batch.results.push_back(std::move(r));
  }
  return batch;
}

Result<exec::QueryResult> GhostDB::Query(const std::string& sql) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  return default_session_->Query(sql);
}

Result<exec::QueryResult> GhostDB::QueryWithPlan(
    const std::string& sql, const plan::PlanChoice& plan) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query, BindSelect(sql));
  return default_session_->Run(query, &plan);
}

Result<std::string> GhostDB::Explain(const std::string& sql) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query, BindSelect(sql));
  query.explain = true;
  GHOSTDB_ASSIGN_OR_RETURN(exec::QueryResult result,
                           default_session_->Run(query, nullptr));
  return result.rows[0][0].AsString();
}

std::string GhostDB::StorageReport() const {
  // Fleet-wide: each tag summed over every shard's allocator (a sharded
  // store holds the root slices plus a replica of every other table).
  std::map<std::string, int64_t> by_tag;
  uint64_t used = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [tag, pages] : shard.allocator->usage_by_tag()) {
      by_tag[tag] += pages;
    }
    used += shard.allocator->used_pages();
  }
  std::string out = "flash pages by structure:\n";
  for (const auto& [tag, pages] : by_tag) {
    if (pages == 0) continue;
    out += "  " + tag + ": " + std::to_string(pages) + "\n";
  }
  const uint64_t page_size = config_.device.flash.page_size;
  out += "total used: " + std::to_string(used) + " pages (" +
         std::to_string(used * page_size / 1024 / 1024) + " MiB)\n";
  return out;
}

}  // namespace ghostdb::core
