// The shared plan cache: prepared physical plans keyed by query shape,
// serving all sessions of one GhostDB.
//
// Shapes derive from the visible query text only (literals normalized to
// '?'), so cache behavior — hits, LRU order, evictions — can never depend
// on Hidden data, and sharing entries across sessions leaks nothing a
// session could not already see: a cross-session hit reveals only that some
// session posed the same visible shape, which the spy already learned from
// the query announcements themselves.
//
// Catalog statistics are fixed once the store is built, so an entry is
// never re-planned: it lives until the LRU bound evicts it.
//
// The cache is synchronized (one mutex) and entries are immutable
// snapshots handed out as shared_ptr: eviction drops the cache's
// reference, so a snapshot a statement still holds mid-execution remains
// valid and unchanging until it finishes. Planning on a miss happens
// inside the lock — the planner consults the channel, whose arbiter
// admission the caller already holds, so the lock adds no new contention
// beyond the device's own serialization.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "plan/physical_plan.h"

namespace ghostdb::core {

/// \brief A cached physical plan, keyed on the query shape (statement text
/// with literals normalized to '?'). Shapes derive from the visible query
/// text only, so the cache's behavior can never depend on Hidden data.
/// Literal-dependent pieces (predicate values, the LIMIT count) are always
/// re-bound from the live statement at execution time. An entry never
/// changes after construction.
struct PreparedQuery {
  std::string shape;
  plan::PhysicalPlan plan;
};

/// \brief Shape-keyed, LRU-bounded, synchronized plan cache.
class PlanCache {
 public:
  /// `capacity` = most shapes kept (0 = unbounded).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Outcome of GetOrPlan: a hit, or else a miss that planned.
  struct Outcome {
    std::shared_ptr<const PreparedQuery> entry;
    bool hit = false;  ///< cached entry reused as-is
  };

  /// Looks up `shape`; on a miss calls `plan_fn` to produce a plan — under
  /// the cache lock, and under whatever channel admission the caller
  /// holds. The returned snapshot stays valid and unchanging for as long
  /// as the caller holds it, regardless of concurrent evictions.
  Result<Outcome> GetOrPlan(
      const std::string& shape,
      const std::function<Result<plan::PhysicalPlan>()>& plan_fn);

  size_t size() const;
  uint64_t evictions() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  /// Recency order (front = most recently used) with a shape index.
  std::list<std::shared_ptr<const PreparedQuery>> entries_;
  std::unordered_map<
      std::string, std::list<std::shared_ptr<const PreparedQuery>>::iterator>
      index_;
  uint64_t evictions_ = 0;
};

}  // namespace ghostdb::core
