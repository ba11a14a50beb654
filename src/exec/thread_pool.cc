#include "exec/thread_pool.h"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace ghostdb::exec {

namespace {

void PinToCore(std::thread* thread, uint32_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  // Best-effort: a constrained affinity mask (cgroups, taskset) can refuse
  // the core; the worker then just runs unpinned.
  pthread_setaffinity_np(thread->native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)core;
#endif
}

}  // namespace

ThreadPool::ThreadPool(uint32_t width)
    : width_(std::max<uint32_t>(1, width)) {
  uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(width_ - 1);
  for (uint32_t i = 0; i + 1 < width_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
    // Round-robin starting at core 1: core 0 is where the admitted /
    // submitting thread most likely runs.
    PinToCore(&threads_.back(), (i + 1) % cores);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

uint32_t ThreadPool::ShardCount(uint64_t n, uint64_t min_grain) const {
  if (n == 0) return 1;
  uint64_t by_grain = n / std::max<uint64_t>(1, min_grain);
  return static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min<uint64_t>(width_, by_grain)));
}

std::pair<uint64_t, uint64_t> ThreadPool::ShardRange(uint64_t n,
                                                     uint32_t shards,
                                                     uint32_t s) {
  // Balanced contiguous split: the first n % shards shards get one extra.
  uint64_t base = n / shards;
  uint64_t extra = n % shards;
  uint64_t begin = s * base + std::min<uint64_t>(s, extra);
  uint64_t end = begin + base + (s < extra ? 1 : 0);
  return {begin, end};
}

void ThreadPool::ParallelShards(
    uint64_t n, uint64_t min_grain,
    const std::function<void(uint32_t, uint64_t, uint64_t)>& body) {
  uint32_t shards = ShardCount(n, min_grain);
  if (shards <= 1 || threads_.empty()) {
    body(0, 0, n);
    return;
  }
  Region region{&body, n, shards};
  std::unique_lock<std::mutex> lk(mu_);
  regions_.push_back(&region);
  work_cv_.notify_all();
  // The submitter works its own region too, then blocks only for shards
  // still running on workers.
  DrainRegion(&region, lk);
  done_cv_.wait(lk, [&] { return region.done == region.shards; });
}

void ThreadPool::DrainRegion(Region* region, std::unique_lock<std::mutex>& lk) {
  // Lifetime protocol: the Region lives on the submitter's stack and dies
  // as soon as done == shards, so a thread may only dereference `region`
  // while it holds an unfinished claimed shard (which pins done < shards).
  // Entry holds mu_ with at least one unclaimed shard, so the first claim
  // happens before any unlock; afterwards, reporting a shard done and
  // claiming the next happen in one critical section — the moment a thread
  // leaves it without a claim it never touches `region` again.
  uint32_t s = region->next++;
  if (region->next >= region->shards) {
    // Fully claimed: retire from the queue so workers stop seeing it.
    auto it = std::find(regions_.begin(), regions_.end(), region);
    if (it != regions_.end()) regions_.erase(it);
  }
  for (;;) {
    lk.unlock();
    auto [begin, end] = ShardRange(region->n, region->shards, s);
    (*region->body)(s, begin, end);
    lk.lock();
    region->done += 1;
    bool finished_last = region->done == region->shards;
    bool have_next = region->next < region->shards;
    if (have_next) {
      s = region->next++;
      if (region->next >= region->shards) {
        auto it = std::find(regions_.begin(), regions_.end(), region);
        if (it != regions_.end()) regions_.erase(it);
      }
    }
    if (finished_last) done_cv_.notify_all();
    if (!have_next) return;  // lk held; `region` is out of bounds from here
  }
}

void ThreadPool::WorkerLoop(uint32_t /*worker_index*/) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !regions_.empty(); });
    if (stop_) return;
    // Queue invariant: a listed region always has an unclaimed shard.
    DrainRegion(regions_.front(), lk);
  }
}

}  // namespace ghostdb::exec
