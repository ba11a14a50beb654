// Logical page allocation over the flash device's flat page space.
// Structures (SKTs, climbing indexes, hidden images, temporary runs) each
// own page ranges; released ranges are recycled and trimmed so the FTL can
// garbage-collect them. Per-tag accounting feeds the Fig 7 storage report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/annotations.h"
#include "flash/flash.h"

namespace ghostdb::storage {

/// \brief First-fit allocator of contiguous logical page ranges.
class PageAllocator {
 public:
  explicit PageAllocator(flash::FlashDevice* device)
      : device_(device), limit_(device->config().logical_pages) {}

  /// Allocates `count` contiguous pages; `tag` labels usage for accounting.
  /// Transcript sink: page counts show in the storage report and FTL trim
  /// stream, so hidden-derived extents are a leak. Call through PageGuard
  /// (device/guards.h) — leakcheck's paired-resource rule enforces it.
  GHOSTDB_TRANSCRIPT_SINK Result<uint32_t> Alloc(uint32_t count,
                                                 const std::string& tag);

  /// Returns a range; the pages are trimmed on the device. Same sink and
  /// guard discipline as Alloc.
  GHOSTDB_TRANSCRIPT_SINK Status Free(uint32_t first, uint32_t count,
                                      const std::string& tag);

  uint32_t used_pages() const { return used_pages_; }
  uint32_t high_water_pages() const { return high_water_; }
  uint32_t capacity_pages() const { return limit_; }

  /// Live page count per tag (for storage reports).
  const std::map<std::string, int64_t>& usage_by_tag() const {
    return usage_by_tag_;
  }

 private:
  flash::FlashDevice* device_;
  uint32_t limit_;
  uint32_t next_ = 0;  // bump pointer; freed ranges go to the free list
  /// (first, count), sorted by first, no two extents adjacent, none ending
  /// at next_.
  std::vector<std::pair<uint32_t, uint32_t>> free_list_;
  uint32_t used_pages_ = 0;
  uint32_t high_water_ = 0;
  std::map<std::string, int64_t> usage_by_tag_;
};

}  // namespace ghostdb::storage
