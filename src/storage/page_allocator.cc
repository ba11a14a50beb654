#include "storage/page_allocator.h"

#include <algorithm>

#include "device/fault_injector.h"

namespace ghostdb::storage {

Result<uint32_t> PageAllocator::Alloc(uint32_t count, const std::string& tag) {
  if (count == 0) {
    return Status::InvalidArgument("cannot allocate zero pages");
  }
  if (device_->fault_injector() != nullptr) {
    GHOSTDB_RETURN_NOT_OK(device_->fault_injector()->CheckSite(
        device::FaultSite::kPageAlloc,
        "alloc of " + std::to_string(count) + " pages (tag " + tag + ")"));
  }
  // First fit in the free list.
  for (size_t i = 0; i < free_list_.size(); ++i) {
    if (free_list_[i].second >= count) {
      uint32_t first = free_list_[i].first;
      free_list_[i].first += count;
      free_list_[i].second -= count;
      if (free_list_[i].second == 0) {
        free_list_.erase(free_list_.begin() + static_cast<long>(i));
      }
      used_pages_ += count;
      high_water_ = std::max(high_water_, used_pages_);
      usage_by_tag_[tag] += count;
      return first;
    }
  }
  if (next_ + count > limit_) {
    return Status::ResourceExhausted(
        "flash space exhausted: want " + std::to_string(count) + " pages, " +
        std::to_string(limit_ - next_) + " fresh remain (tag " + tag + ")");
  }
  uint32_t first = next_;
  next_ += count;
  used_pages_ += count;
  high_water_ = std::max(high_water_, used_pages_);
  usage_by_tag_[tag] += count;
  return first;
}

Status PageAllocator::Free(uint32_t first, uint32_t count,
                           const std::string& tag) {
  if (count == 0) return Status::OK();
  for (uint32_t p = first; p < first + count; ++p) {
    GHOSTDB_RETURN_NOT_OK(device_->Trim(p));
  }
  // Keep the free list sorted and coalesced, and hand an extent that ends
  // at the bump pointer back to fresh space: freed pages must stay usable
  // by requests larger than the piece that happened to be freed.
  auto it = free_list_.insert(
      std::lower_bound(free_list_.begin(), free_list_.end(),
                       std::make_pair(first, count)),
      {first, count});
  auto next = it + 1;
  if (next != free_list_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_list_.erase(next);
  }
  if (it != free_list_.begin()) {
    auto prev = it - 1;
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_list_.erase(it);
    }
  }
  if (!free_list_.empty() &&
      free_list_.back().first + free_list_.back().second == next_) {
    next_ = free_list_.back().first;
    free_list_.pop_back();
  }
  used_pages_ -= count;
  usage_by_tag_[tag] -= count;
  return Status::OK();
}

}  // namespace ghostdb::storage
