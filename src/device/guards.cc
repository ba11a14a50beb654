#include "device/guards.h"

namespace ghostdb::device {

Result<PageGuard> PageGuard::Alloc(storage::PageAllocator* allocator,
                                   uint32_t count, const std::string& tag) {
  GHOSTDB_ASSIGN_OR_RETURN(uint32_t first, allocator->Alloc(count, tag));
  return PageGuard(allocator, first, count, tag);
}

PageGuard PageGuard::Adopt(storage::PageAllocator* allocator, uint32_t first,
                           uint32_t count, std::string tag) {
  return PageGuard(allocator, first, count, std::move(tag));
}

PageGuard::~PageGuard() {
  GHOSTDB_IGNORE_STATUS(Free(), "destructor cleanup is best-effort");
}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : allocator_(other.allocator_),
      first_(other.first_),
      count_(other.count_),
      tag_(std::move(other.tag_)) {
  other.allocator_ = nullptr;
  other.count_ = 0;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    GHOSTDB_IGNORE_STATUS(Free(), "overwritten guard frees best-effort");
    allocator_ = other.allocator_;
    first_ = other.first_;
    count_ = other.count_;
    tag_ = std::move(other.tag_);
    other.allocator_ = nullptr;
    other.count_ = 0;
  }
  return *this;
}

Status PageGuard::Free() {
  if (!valid()) return Status::OK();
  Status s = allocator_->Free(first_, count_, tag_);
  allocator_ = nullptr;
  count_ = 0;
  return s;
}

std::pair<uint32_t, uint32_t> PageGuard::Detach() {
  std::pair<uint32_t, uint32_t> extent{first_, count_};
  allocator_ = nullptr;
  count_ = 0;
  return extent;
}

Result<RamGuard> RamGuard::Acquire(RamManager* ram, uint32_t buffers,
                                   std::string owner) {
  GHOSTDB_ASSIGN_OR_RETURN(BufferHandle handle,
                           ram->Acquire(buffers, std::move(owner)));
  return RamGuard(std::move(handle));
}

Result<RamGuard> RamGuard::AcquireOne(RamManager* ram, std::string owner) {
  GHOSTDB_ASSIGN_OR_RETURN(BufferHandle handle,
                           ram->AcquireOne(std::move(owner)));
  return RamGuard(std::move(handle));
}

AdmissionGuard::AdmissionGuard(ChannelArbiter* arbiter, int32_t session,
                               uint32_t weight)
    : arbiter_(arbiter), session_(session) {
  arbiter_->Admit(session_, weight);
}

AdmissionGuard::~AdmissionGuard() { arbiter_->Release(session_); }

}  // namespace ghostdb::device
