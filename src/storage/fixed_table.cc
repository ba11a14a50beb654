#include "storage/fixed_table.h"

#include <algorithm>
#include <cstring>

#include "device/guards.h"

namespace ghostdb::storage {

namespace {
constexpr uint32_t kExtentPages = 64;
}

FixedTableBuilder::FixedTableBuilder(flash::FlashDevice* device,
                                     PageAllocator* allocator,
                                     uint8_t* buffer, uint32_t row_width,
                                     std::string tag)
    : device_(device),
      allocator_(allocator),
      buffer_(buffer),
      row_width_(row_width),
      tag_(std::move(tag)),
      page_size_(device->config().page_size),
      rows_per_page_(device->config().page_size / row_width) {}

Status FixedTableBuilder::AppendRow(const uint8_t* row) {
  if (rows_per_page_ == 0) {
    return Status::InvalidArgument("row width exceeds page size");
  }
  std::memcpy(buffer_ + rows_in_page_ * row_width_, row, row_width_);
  rows_in_page_ += 1;
  row_count_ += 1;
  if (rows_in_page_ == rows_per_page_) {
    GHOSTDB_RETURN_NOT_OK(FlushPage());
  }
  return Status::OK();
}

Status FixedTableBuilder::FlushPage() {
  uint32_t have = 0;
  for (auto& e : extents_) have += e.second;
  if (pages_used_ == have) {
    GHOSTDB_ASSIGN_OR_RETURN(
        device::PageGuard extent,
        device::PageGuard::Alloc(allocator_, kExtentPages, tag_));
    // Joins the builder's extent list; Finish() hands it to the table ref
    // (build-time only, so there is no abort path to reclaim on).
    auto [first, count] = extent.Detach();
    if (!extents_.empty() &&
        extents_.back().first + extents_.back().second == first) {
      extents_.back().second += count;
    } else {
      extents_.emplace_back(first, count);
    }
  }
  uint32_t idx = pages_used_;
  uint32_t lpn = 0;
  for (auto& e : extents_) {
    if (idx < e.second) {
      lpn = e.first + idx;
      break;
    }
    idx -= e.second;
  }
  uint32_t fill = rows_in_page_ * row_width_;
  if (fill < page_size_) std::memset(buffer_ + fill, 0, page_size_ - fill);
  GHOSTDB_RETURN_NOT_OK(device_->WritePage(lpn, buffer_));
  pages_used_ += 1;
  rows_in_page_ = 0;
  return Status::OK();
}

Result<FixedTableRef> FixedTableBuilder::Finish() {
  if (finished_) return Status::Internal("FixedTableBuilder finished twice");
  finished_ = true;
  if (rows_in_page_ > 0) {
    GHOSTDB_RETURN_NOT_OK(FlushPage());
  }
  uint32_t have = 0;
  for (auto& e : extents_) have += e.second;
  if (have > pages_used_) {
    uint32_t extra = have - pages_used_;
    auto& last = extents_.back();
    GHOSTDB_RETURN_NOT_OK(
        device::PageGuard::Adopt(allocator_, last.first + last.second - extra,
                                 extra, tag_)
            .Free());
    last.second -= extra;
    if (last.second == 0) extents_.pop_back();
  }
  FixedTableRef ref;
  ref.run.extents = std::move(extents_);
  ref.run.bytes = static_cast<uint64_t>(pages_used_) * page_size_;
  ref.row_width = row_width_;
  ref.rows_per_page = rows_per_page_;
  ref.row_count = row_count_;
  return ref;
}

FixedTableReader::FixedTableReader(flash::FlashDevice* device,
                                   const FixedTableRef& ref, uint8_t* buffer)
    : device_(device), ref_(ref), buffer_(buffer) {}

Status FixedTableReader::ReadRow(catalog::RowId row, uint8_t* dst) {
  if (row >= ref_.row_count) {
    return Status::OutOfRange("row " + std::to_string(row) + " past end (" +
                              std::to_string(ref_.row_count) + " rows)");
  }
  int64_t page = row / ref_.rows_per_page;
  if (page != buffered_page_) {
    GHOSTDB_RETURN_NOT_OK(device_->ReadFullPage(
        ref_.run.PageAt(static_cast<uint32_t>(page)), buffer_));
    buffered_page_ = page;
    pages_touched_ += 1;
  }
  uint32_t slot = row % ref_.rows_per_page;
  std::memcpy(dst, buffer_ + slot * ref_.row_width, ref_.row_width);
  return Status::OK();
}

Result<FixedTableReader::Span> FixedTableReader::RowSpan(catalog::RowId row) {
  if (row >= ref_.row_count) {
    return Status::OutOfRange("row " + std::to_string(row) + " past end (" +
                              std::to_string(ref_.row_count) + " rows)");
  }
  int64_t page = row / ref_.rows_per_page;
  if (page != buffered_page_) {
    GHOSTDB_RETURN_NOT_OK(device_->ReadFullPage(
        ref_.run.PageAt(static_cast<uint32_t>(page)), buffer_));
    buffered_page_ = page;
    pages_touched_ += 1;
  }
  uint32_t slot = row % ref_.rows_per_page;
  uint64_t first_on_page = static_cast<uint64_t>(page) * ref_.rows_per_page;
  uint64_t rows_on_page =
      std::min<uint64_t>(ref_.rows_per_page, ref_.row_count - first_on_page);
  Span span;
  span.data = buffer_ + slot * ref_.row_width;
  span.rows = static_cast<uint32_t>(rows_on_page - slot);
  return span;
}

Status FixedTableReader::ReadRowsOnPage(uint32_t page,
                                        const std::vector<uint64_t>& slots,
                                        uint32_t col_begin, uint32_t col_end) {
  if (col_begin >= col_end || col_end > ref_.row_width) {
    return Status::InvalidArgument("column byte range outside the row");
  }
  // The highest set slot bounds every row asked for.
  size_t top = slots.size();
  while (top > 0 && slots[top - 1] == 0) --top;
  if (top == 0) return Status::OK();
  uint64_t last_slot = (top - 1) * 64 + (63 - __builtin_clzll(slots[top - 1]));
  uint64_t last_row =
      static_cast<uint64_t>(page) * ref_.rows_per_page + last_slot;
  if (last_slot >= ref_.rows_per_page) {
    return Status::InvalidArgument("slot past the page's rows");
  }
  if (last_row >= ref_.row_count) {
    return Status::OutOfRange("row " + std::to_string(last_row) +
                              " past end (" + std::to_string(ref_.row_count) +
                              " rows)");
  }
  const flash::FlashConfig& cfg = device_->config();
  const uint32_t lpn = ref_.run.PageAt(page);
  // The cached page (if any) is about to be partially overwritten.
  buffered_page_ = -1;
  pages_touched_ += 1;
  uint32_t span_begin = 0, span_end = 0;  // empty span: nothing pending
  auto read_span = [&]() -> Status {
    if (span_end == span_begin) return Status::OK();
    return device_->ReadPage(lpn, buffer_ + span_begin, span_begin,
                             span_end - span_begin);
  };
  for (size_t w = 0; w < top; ++w) {
    for (uint64_t bits = slots[w]; bits != 0; bits &= bits - 1) {
      uint32_t slot = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      uint32_t begin = slot * ref_.row_width + col_begin;
      uint32_t end = slot * ref_.row_width + col_end;
      if (span_end > span_begin &&
          static_cast<SimNanos>(begin - span_end) *
                  cfg.byte_transfer_latency <
              cfg.read_page_latency) {
        span_end = end;  // cheaper to transfer the gap than to reload
        continue;
      }
      GHOSTDB_RETURN_NOT_OK(read_span());
      span_begin = begin;
      span_end = end;
    }
  }
  return read_span();
}

}  // namespace ghostdb::storage
