// RAII guards for GhostDB's three paired-resource primitives.
//
// leakcheck's paired-resource rule (rule 3) forbids calling
// PageAllocator::Alloc/Free, RamManager::Acquire/AcquireOne, and
// ChannelArbiter::Admit/Release anywhere except through these guards:
// the functions in guards.cc are the only ones annotated
// GHOSTDB_RESOURCE_IMPL, so a raw pairing anywhere else in src/ is a
// finding. PR 9 hand-audited every executor/operator/merge error path for
// leaked pages and stranded admissions; the guards make that audit a
// compile-time property instead of a review discipline.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "core/annotations.h"
#include "device/channel_arbiter.h"
#include "device/ram_manager.h"
#include "storage/page_allocator.h"

namespace ghostdb::device {

/// \brief Owns a contiguous flash page extent; frees it on destruction.
///
/// Two ownership transfers cover the non-scoped lifetimes in the storage
/// layer: Detach() hands the extent to a long-lived structure (RunRef /
/// FixedTableRef extents), and Adopt() re-wraps such an extent so it can be
/// freed through the guard (FreeRun, tail trims, abort sweeps).
class PageGuard {
 public:
  PageGuard() = default;

  /// Allocates `count` pages under `tag`. The guard owns them.
  GHOSTDB_RESOURCE_IMPL static Result<PageGuard> Alloc(
      storage::PageAllocator* allocator, uint32_t count,
      const std::string& tag);

  /// Wraps an extent currently owned elsewhere so the guard frees it.
  static PageGuard Adopt(storage::PageAllocator* allocator, uint32_t first,
                         uint32_t count, std::string tag);

  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return allocator_ != nullptr && count_ > 0; }
  uint32_t first() const { return first_; }
  uint32_t count() const { return count_; }

  /// Frees the extent now and disarms the guard. Idempotent.
  GHOSTDB_RESOURCE_IMPL Status Free();

  /// Transfers ownership out: returns (first, count) and disarms the
  /// guard. The caller's long-lived structure now owns the pages.
  std::pair<uint32_t, uint32_t> Detach();

 private:
  PageGuard(storage::PageAllocator* allocator, uint32_t first, uint32_t count,
            std::string tag)
      : allocator_(allocator),
        first_(first),
        count_(count),
        tag_(std::move(tag)) {}

  storage::PageAllocator* allocator_ = nullptr;
  uint32_t first_ = 0;
  uint32_t count_ = 0;
  std::string tag_;
};

/// \brief Owns secure-RAM buffers acquired from a RamManager.
///
/// Wraps the BufferHandle the manager vends; the handle type itself stays
/// an implementation detail of the RAM layer, and operator/executor code
/// holds RamGuards instead (leakcheck flags raw Acquire calls).
class RamGuard {
 public:
  RamGuard() = default;

  /// Acquires `buffers` contiguous buffers charged to the calling session.
  GHOSTDB_RESOURCE_IMPL static Result<RamGuard> Acquire(RamManager* ram,
                                                        uint32_t buffers,
                                                        std::string owner);

  /// Acquires a single buffer.
  GHOSTDB_RESOURCE_IMPL static Result<RamGuard> AcquireOne(RamManager* ram,
                                                           std::string owner);

  RamGuard(RamGuard&&) noexcept = default;
  RamGuard& operator=(RamGuard&&) noexcept = default;

  bool valid() const { return handle_.valid(); }
  uint8_t* data() { return handle_.data(); }
  const uint8_t* data() const { return handle_.data(); }
  size_t size() const { return handle_.size(); }
  uint32_t buffer_count() const { return handle_.buffer_count(); }

  /// Returns the buffers to the manager now (idempotent; the destructor
  /// otherwise does it).
  void Release() { handle_.Release(); }

 private:
  explicit RamGuard(BufferHandle handle) : handle_(std::move(handle)) {}

  BufferHandle handle_;
};

/// \brief Scoped admission to the channel arbiter: admits the session on
/// construction, releases it on destruction.
///
/// Replaces the old ChannelArbiter::Admission nested type; the deferred
/// engagement pattern (admit only once a leg actually runs) is spelled
/// `std::optional<AdmissionGuard>` + emplace.
class AdmissionGuard {
 public:
  GHOSTDB_RESOURCE_IMPL AdmissionGuard(ChannelArbiter* arbiter,
                                       int32_t session, uint32_t weight);
  GHOSTDB_RESOURCE_IMPL ~AdmissionGuard();

  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

 private:
  ChannelArbiter* arbiter_;
  int32_t session_;
};

}  // namespace ghostdb::device
