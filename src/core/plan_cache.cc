#include "core/plan_cache.h"

namespace ghostdb::core {

Result<PlanCache::Outcome> PlanCache::GetOrPlan(
    const std::string& shape,
    const std::function<Result<plan::PhysicalPlan>()>& plan_fn) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(shape);
  if (it != index_.end()) {
    // Refresh recency: move the entry to the front of the LRU list.
    entries_.splice(entries_.begin(), entries_, it->second);
    it->second = entries_.begin();
    Outcome out;
    out.entry = *it->second;
    out.hit = true;
    return out;
  }
  GHOSTDB_ASSIGN_OR_RETURN(plan::PhysicalPlan plan, plan_fn());
  auto fresh = std::make_shared<PreparedQuery>();
  fresh->shape = shape;
  fresh->plan = std::move(plan);
  entries_.push_front(fresh);
  index_[fresh->shape] = entries_.begin();
  if (capacity_ != 0 && entries_.size() > capacity_) {
    // Dropping the cache's reference; snapshots still held elsewhere stay
    // alive until released.
    index_.erase(entries_.back()->shape);
    entries_.pop_back();
    evictions_ += 1;
  }
  Outcome out;
  out.entry = std::move(fresh);
  return out;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evictions_;
}

}  // namespace ghostdb::core
