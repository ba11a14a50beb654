// A pinned worker pool for morsel-driven parallel execution.
//
// GhostDB always owns one pool, sized by GhostDBConfig::worker_threads,
// and its one user is the PC's visible scans (VisibleStore::SelectIds and
// Project, handed the pool through UntrustedEngine); the key's operators
// and the relational tail run single-threaded. Worker threads run *pure host-side
// value compute only*: they never touch the channel, the flash device, the
// RAM manager, query metrics, or any other device state — all of that
// stays on the calling thread. Work is dealt as contiguous shards of an
// index range whose boundaries are a pure function of (n, min_grain,
// width), and every result lands in a caller-indexed slot, so the outcome
// of a parallel region is bit-identical for every thread count — the leak
// sweep's transcript contract and the differential fuzz oracle hold for
// worker_threads 1 and 8 alike.
//
// The pool is shared: several session threads may run parallel regions
// concurrently (two sessions' PC-side prefetches). Shards of all in-flight
// regions draw from one FIFO of regions; the submitting thread always
// participates, so a region makes progress even when every worker is busy
// elsewhere — and a width-1 pool (worker_threads=1) degrades to a plain
// inline loop with no threads at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ghostdb::exec {

/// \brief Fixed-width pool of pinned worker threads.
class ThreadPool {
 public:
  /// `width` is the total parallelism degree (calling thread included):
  /// width w spawns w-1 workers. On Linux, workers are pinned round-robin
  /// across the machine's cores (best-effort), the related systems'
  /// ThreadGroup discipline — morsel workers stop migrating under load.
  explicit ThreadPool(uint32_t width);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism degree (>= 1, calling thread included).
  uint32_t width() const { return width_; }

  /// Number of contiguous shards ParallelShards will cut [0, n) into:
  /// min(width, n / min_grain), at least 1. Pure function of its inputs.
  uint32_t ShardCount(uint64_t n, uint64_t min_grain) const;

  /// Boundaries of shard `s` of `shards` over [0, n): balanced contiguous
  /// ranges, deterministic.
  static std::pair<uint64_t, uint64_t> ShardRange(uint64_t n, uint32_t shards,
                                                  uint32_t s);

  /// Runs body(shard, begin, end) for every shard of [0, n), concurrently
  /// across the pool; the calling thread participates and the call returns
  /// only when every shard has finished. Bodies must confine themselves to
  /// host memory owned by the caller (never device state) and must not
  /// throw. Reentrant: bodies must not call back into the pool.
  void ParallelShards(
      uint64_t n, uint64_t min_grain,
      const std::function<void(uint32_t, uint64_t, uint64_t)>& body);

 private:
  struct Region {
    const std::function<void(uint32_t, uint64_t, uint64_t)>* body;
    uint64_t n;
    uint32_t shards;
    uint32_t next = 0;  ///< next shard to hand out (guarded by mu_)
    uint32_t done = 0;  ///< shards finished (guarded by mu_)
  };

  void WorkerLoop(uint32_t worker_index);
  /// Runs shards of `region` until none are left to claim. Entered with
  /// `lk` (on mu_) held and at least one unclaimed shard; returns with it
  /// held.
  void DrainRegion(Region* region, std::unique_lock<std::mutex>& lk);

  const uint32_t width_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a region was queued
  std::condition_variable done_cv_;  ///< submitters: some shard finished
  std::deque<Region*> regions_;      ///< regions with unclaimed shards
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace ghostdb::exec
