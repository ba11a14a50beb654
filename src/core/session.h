// A Session: one principal's query surface over a shared GhostDB.
//
// The paper's deployment is inherently multi-user — one smart USB key
// serving several principals — so the engine serves N sessions over one
// SecureStore. Each session owns:
//
//   * a RAM partition — a fixed buffer quota pledged from the device's
//     32-buffer budget (plus access to the shared reserve), so one
//     session's appetite cannot starve another's guarantee;
//   * a metrics baseline and result surface — per-query answers and
//     accumulated session totals, kept on the Secure side;
//   * a transcript identity — every channel message a session causes is
//     tagged with its id by the arbiter.
//
// Sessions share the plan cache (shape-keyed, visible-only) and the device,
// whose access is serialized by the ChannelArbiter under a deterministic,
// visible-only policy. Two ways to drive a session:
//
//   * Query() — blocking; safe to call from several threads at once, on
//     one session or many (the arbiter grants each call by ticket and
//     interleaves them);
//   * Enqueue() + GhostDB::DrainSessions() — the deterministic scheduler:
//     queued statements across sessions run under an interleaving that is
//     a pure function of visible inputs, which is what the multi-session
//     leak tests replay and compare. Each queue has one consumer.
//
// Every statement runs in a session. GhostDB::Build() opens the default
// session (id -1, "main", no RAM pledge), which serves every thread that
// calls the sessionless GhostDB::Query/QueryWithPlan/Explain; the paper's
// one-key-many-principals scenario opens one session per principal. A
// Session must not outlive its GhostDB.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/ram_manager.h"
#include "exec/operator.h"
#include "plan/strategy.h"
#include "sql/binder.h"

namespace ghostdb::core {

class GhostDB;

/// Options for GhostDB::OpenSession().
struct SessionOptions {
  /// Pledges this many buffers as the session's dedicated RAM partition.
  /// kDefaultRamQuota = a quarter of the device's buffers; 0 = pledge
  /// nothing (the session draws from the shared reserve only).
  static constexpr uint32_t kDefaultRamQuota = UINT32_MAX;
  uint32_t ram_quota_buffers = kDefaultRamQuota;
  /// Display name for diagnostics/transcripts ("s<id>" when empty).
  std::string name;
};

/// \brief One principal's handle on the shared engine.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  /// The session's RAM partition on shard 0 (sharded fleets pledge a
  /// sibling partition of the same quota on every shard).
  device::RamPartitionId ram_partition() const {
    return bindings_[0].ram_partition;
  }

  /// Runs a SELECT for this session, blocking until the arbiter admits it.
  /// Safe to call from several threads at once, on this session or others
  /// (each call is admitted by its own ticket).
  Result<exec::QueryResult> Query(const std::string& sql);

  /// Queues a statement for GhostDB::DrainSessions() (the deterministic
  /// scheduler). Results arrive in enqueue order via TakeResults().
  void Enqueue(std::string sql);
  /// Statements queued and not yet executed.
  size_t pending() const;
  /// Drained results in statement order (clears the surface).
  std::vector<Result<exec::QueryResult>> TakeResults();

  /// Session totals: metric sums over every query this session executed
  /// (its own baseline, independent of other sessions' traffic).
  exec::QueryMetrics metrics() const;
  uint64_t queries_executed() const;

 private:
  friend class GhostDB;

  struct Queued {
    std::string sql;
    std::optional<sql::BoundQuery> bound;  ///< filled by BindHead
    uint32_t weight = 1;
  };

  /// `partitions` is the session's RAM partition on each shard (index =
  /// shard; size = the fleet's shard count).
  Session(GhostDB* db, int32_t id, std::string name,
          std::vector<device::RamPartitionId> partitions);

  /// Runs a bound statement (under `pinned` if non-null), counts it and
  /// folds its metrics into the session totals. The one execution step
  /// behind Query(), RunHead() and the sessionless GhostDB calls.
  Result<exec::QueryResult> Run(const sql::BoundQuery& query,
                                const plan::PlanChoice* pinned);
  /// Binds the head of the queue (recording bind errors as results and
  /// popping, until a statement binds). Returns false when the queue is
  /// empty; otherwise fills `weight` with the head's declared shape weight.
  bool BindHead(uint32_t* weight);
  /// Executes the (bound) head statement and records its result.
  void RunHead();

  GhostDB* db_;
  int32_t id_;
  std::string name_;
  /// One binding per shard (shard 0 first): same identity everywhere,
  /// each carrying that shard's RAM partition.
  std::vector<exec::SessionBinding> bindings_;

  mutable std::mutex mu_;  // queue_, results_, totals_, executed_
  std::deque<Queued> queue_;
  std::vector<Result<exec::QueryResult>> results_;
  exec::QueryMetrics totals_;
  uint64_t executed_ = 0;
};

}  // namespace ghostdb::core
