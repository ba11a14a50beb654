// GhostDB: the public facade.
//
// Usage:
//   ghostdb::core::GhostDB db;
//   db.Execute("CREATE TABLE Patients (id INT, name CHAR(20) HIDDEN, ...)");
//   db.Execute("INSERT INTO Patients VALUES (...)");   // staged
//   db.Build();                                        // partition + index
//   auto r = db.Query("SELECT ... FROM ... WHERE ..."); // leak-free
//
//   // Multi-session serving (the paper's one-key-many-principals case):
//   auto alice = db.OpenSession({.name = "alice"});
//   auto bob   = db.OpenSession({.name = "bob"});
//   auto r1 = (*alice)->Query("SELECT ...");  // concurrent with bob's,
//   auto r2 = (*bob)->Query("SELECT ...");    // arbitrated on the channel
//
// The object owns both worlds: the Untrusted engine (visible partitions)
// and the Secure device (hidden partitions, SKTs, climbing indexes), wired
// by the audited channel. Only the query text ever crosses to Untrusted.
// Every statement runs in a Session. Build() opens the default session
// (id -1, "main", shared RAM reserve only), which serves the sessionless
// calls — Query(), QueryWithPlan(), Explain() — from any number of
// threads; OpenSession() adds more. Sessions share the store and the
// device; the channel arbiter serializes device access under a
// deterministic visible-only policy and tags every transcript message with
// its session. Every statement is planned from its own text and the
// visible counts it asks for, so its transcript never depends on what
// another statement or session ran before it.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "core/loader.h"
#include "core/secure_store.h"
#include "core/session.h"
#include "core/table_data.h"
#include "device/secure_device.h"
#include "exec/executor.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "storage/page_allocator.h"
#include "untrusted/engine.h"

namespace ghostdb::core {

/// Everything a GhostDB deployment can set. Each value has a caller
/// outside the tests (a bench, a workload, an example or the end-to-end
/// benchmark; ARCHITECTURE.md, "Configuration surface"); behaviour nobody
/// varies is a named constant in the module that reads it.
struct GhostDBConfig {
  /// The simulated device (the paper's Table 1 parameters). An unset
  /// `device.flash.cipher_key` is derived from the device master secret:
  /// external flash pages are always encrypted.
  device::DeviceConfig device;
  /// Seeded fault schedule, applied to every shard's device (each on its
  /// own seed lane). Inert by default; validated and armed by Build() so
  /// the load phase always runs fault-free.
  device::FaultConfig fault_config;
  /// Simulated SecureDevices the logical database shards across. The
  /// loader hash-partitions the schema root's rows over the fleet (every
  /// other table replicates in full, so parent→child foreign keys stay
  /// local); root-anchored queries scatter the plan up to its projection
  /// across all devices concurrently, merge the projected rows by global
  /// id, and run the relational tail once on a gather pass. Answers and
  /// errors are byte-identical for every value; each
  /// device keeps its own channel, flash, clock, RAM partition pool, and
  /// arbiter, so the per-device transcript contract is unchanged. 1 = the
  /// classic single device.
  uint32_t shard_count = 1;
  /// Keep the staged (owner-side) data after Build() — used by tests to
  /// cross-check results against the reference oracle.
  bool retain_staged_data = false;
  /// Which hidden attributes get climbing indexes, as table name -> column
  /// names (resolved at Build(); an unknown name fails it with NotFound).
  /// nullopt = every hidden non-foreign-key attribute (the paper's fully
  /// indexed model); a table left out, or mapped to no columns, gets no
  /// attribute indexes. Id indexes are always built.
  std::optional<std::map<std::string, std::vector<std::string>>>
      indexed_attrs_by_name;
  /// Width of the PC-side morsel worker pool (calling thread included):
  /// 1 = fully serial (no threads spawned), N = N-way parallel visible
  /// scans and projections (VisibleStore::SelectIds/Project), the pool's
  /// only work; the key's operators and the relational tail run
  /// single-threaded. Thread count never changes results or the channel
  /// transcript — the leak sweep asserts it. Build() rejects 0 and absurd
  /// values with InvalidArgument. The pool's workers are pinned
  /// round-robin across cores (Linux; best-effort).
  uint32_t worker_threads = 1;
  /// Execution knobs: the ablation and padding dials, the result row
  /// limit and the relational-tail budget (exec/operator.h).
  exec::ExecConfig exec;
};

/// \brief Result of QueryBatch(): per-statement answers plus batch-level
/// costs.
struct BatchResult {
  std::vector<exec::QueryResult> results;
  exec::QueryMetrics total;  ///< sum of the statements' metrics
};

/// \brief The GhostDB engine.
class GhostDB {
 public:
  explicit GhostDB(GhostDBConfig config = {});
  ~GhostDB();

  /// Executes a DDL or INSERT statement (before Build()).
  Status Execute(const std::string& sql);

  /// Bulk-stages packed rows for `table` (before Build()).
  Result<TableData*> MutableStaging(const std::string& table);

  /// Finalizes the schema, partitions the data, and builds the Secure-side
  /// fully indexed model. Must be called once, before the first query.
  Status Build();

  /// Opens a serving session: its own RAM partition (per SessionOptions),
  /// metrics baseline, result surface, and transcript identity. Sessions
  /// share the store; the channel arbiter interleaves their device
  /// access. The GhostDB must outlive the session.
  Result<std::unique_ptr<Session>> OpenSession(SessionOptions options = {});

  /// The deterministic multi-session scheduler: executes every statement
  /// queued (Session::Enqueue) on `sessions`, interleaving by the channel
  /// arbiter's deficit-round-robin policy over declared shape weights —
  /// visible inputs only, so the interleaving (and the global transcript)
  /// is reproducible. Per-session results land on each session's result
  /// surface in statement order. Returns the number of statements run.
  Result<uint64_t> DrainSessions(const std::vector<Session*>& sessions);

  /// Number of sessions a caller opened (OpenSession, QueryBatch) that
  /// are still open; the default session is not counted.
  size_t open_sessions() const;

  /// Runs a SELECT (or EXPLAIN SELECT) in the default session. The
  /// planner picks strategies from this statement's own visible counts
  /// (one vis-count round-trip per table with visible predicates).
  Result<exec::QueryResult> Query(const std::string& sql);

  /// Executes many statements — the throughput surface. Per-statement
  /// answers come back in order; `total` sums their metrics. Each
  /// statement is planned and run exactly as a lone Query() would run it,
  /// in order, in one ephemeral session; the first error ends the batch.
  Result<BatchResult> QueryBatch(const std::vector<std::string>& sqls);

  /// Runs a SELECT in the default session under a pinned plan (benches
  /// compare strategies). The Vis counts are still served, so transcripts
  /// and metrics stay comparable with a planner run.
  Result<exec::QueryResult> QueryWithPlan(const std::string& sql,
                                          const plan::PlanChoice& plan);

  /// EXPLAIN text for a query without executing it (default session).
  Result<std::string> Explain(const std::string& sql);

  bool built() const { return built_; }
  const catalog::Schema& schema() const { return schema_; }
  /// Shard 0's stack: the whole database on a single device.
  device::SecureDevice& device() { return shard_device(0); }
  storage::PageAllocator& allocator() { return *shards_[0].allocator; }
  untrusted::UntrustedEngine& untrusted() { return shard_untrusted(0); }
  const SecureStore& store() const { return shard_store(0); }

  /// Devices in the fleet (1 until Build() under a sharded config).
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Shard s's device / store / engine (shard 0 is the coordinator the
  /// unsharded accessors above return).
  device::SecureDevice& shard_device(uint32_t s) { return *shards_[s].device; }
  const SecureStore& shard_store(uint32_t s) const {
    return shards_[s].store;
  }
  untrusted::UntrustedEngine& shard_untrusted(uint32_t s) {
    return *shards_[s].untrusted;
  }
  /// Staged data (only if retain_staged_data).
  const std::vector<TableData>& staged() const { return staged_; }

  /// Storage report: live flash pages per structure tag, summed over every
  /// shard of the fleet.
  std::string StorageReport() const;

  /// Always 0: there is no plan cache. Kept only because the end-to-end
  /// benchmark prints it; ROADMAP item 1 deletes it.
  uint64_t plan_cache_evictions() const { return 0; }

 private:
  friend class Session;

  /// One device of the fleet and the full vertical stack over it: device,
  /// allocator, Untrusted engine over its visible slice, Secure store,
  /// executor. Shard 0 is the coordinator — it announces, plans, and
  /// gathers — and a single-device database is a fleet of one.
  struct Shard {
    std::unique_ptr<device::SecureDevice> device;
    std::unique_ptr<storage::PageAllocator> allocator;
    std::unique_ptr<untrusted::UntrustedEngine> untrusted;
    SecureStore store;
    std::unique_ptr<exec::SecureExecutor> executor;
  };

  /// The default session's id: the transcript tag of every sessionless
  /// call, and first in every shard arbiter's cycle.
  static constexpr int32_t kDefaultSessionId = -1;

  Result<sql::BoundQuery> BindSelect(const std::string& sql);
  /// Full arbitrated execution of a bound SELECT under `session`'s
  /// identity: per-shard prefetch (a visible-only statement: planning and
  /// the PC's whole answer, AnswerOnUntrusted); then, under the
  /// coordinator's admission, announcement and planning (the vis-count
  /// exchange, then `pinned` lowered or the planner's choice); then the
  /// legs — one per shard when the statement fans out (Planner::FansOut),
  /// shards 1..N-1 concurrently under their own arbiters, else a single
  /// inline leg running the whole plan on shard 0; then, for a fan-out,
  /// the gather pass, which runs the plan's tail on the coordinator over
  /// the legs' seq-merged rows.
  Result<exec::QueryResult> RunSelect(const sql::BoundQuery& query,
                                      const plan::PlanChoice* pinned,
                                      const Session& session);
  /// The PC's answer to visible-only `query` under `plan`, before
  /// admission: each leg's PC projects its slice, the coordinator's PC
  /// runs the tail once (exec::RunUntrustedTail) and splits the final rows
  /// into one contiguous key range per leg, encoded into that leg's
  /// `prefetch` entry as its `vis-result` message.
  Status AnswerOnUntrusted(const sql::BoundQuery& query,
                           const plan::PhysicalPlan& plan,
                           std::vector<untrusted::VisPrefetch>* prefetch);
  /// One vis-count exchange per table with visible predicates (the
  /// planner's selectivity inputs; visible information only).
  Status ServeVisCounts(const sql::BoundQuery& query,
                        const untrusted::VisPrefetch* prefetch,
                        std::map<catalog::TableId, uint64_t>* out);
  /// Attaches a new session to the fleet: pledges `quota` buffers (0 =
  /// none) on every shard's RAM manager and registers `id` with every
  /// shard's arbiter.
  Result<std::unique_ptr<Session>> AttachSession(int32_t id,
                                                 std::string name,
                                                 uint32_t quota);
  /// Detaches a closing session (releases its partition under admission
  /// and unregisters it from the arbiter).
  void CloseSession(Session* session);

  GhostDBConfig config_;
  catalog::Schema schema_;
  std::vector<TableData> staged_;
  std::unique_ptr<exec::ThreadPool> pool_;  ///< outlives the shards' stacks
  /// The fleet, shard 0 first. Shard 0's device and allocator exist from
  /// construction; Build() adds the other devices and every shard's stack.
  std::vector<Shard> shards_;
  std::unique_ptr<plan::Planner> planner_;
  mutable std::mutex sessions_mu_;  // next_session_id_, open_sessions_
  int32_t next_session_id_ = 0;
  size_t open_sessions_ = 0;
  bool built_ = false;
  /// Opened by Build(); declared last, so it closes before the fleet goes.
  std::unique_ptr<Session> default_session_;
};

/// Declared weight of a query for the channel arbiter: a pure function of
/// the visible query shape (the number of FROM tables; >= 1).
uint32_t DeclaredShapeWeight(const sql::BoundQuery& query);

}  // namespace ghostdb::core
