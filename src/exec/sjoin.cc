#include "exec/sjoin.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace ghostdb::exec {

SJoinStage::SJoinStage(
    flash::FlashDevice* device, const storage::FixedTableRef* skt,
    std::vector<uint32_t> skt_slots, uint8_t* buffer,
    std::function<Status(const uint8_t* row, uint32_t width)> sink)
    : slots_(std::move(skt_slots)),
      sink_(std::move(sink)),
      row_width_(4 + 4 * static_cast<uint32_t>(slots_.size())),
      buffer_(buffer) {
  if (skt != nullptr && !slots_.empty()) {
    reader_.emplace(device, *skt, buffer);
    skt_row_width_ = skt->row_width;
    rows_per_page_ = skt->rows_per_page;
    auto [lo, hi] = std::minmax_element(slots_.begin(), slots_.end());
    col_begin_ = *lo * 4;
    col_end_ = *hi * 4 + 4;
    pending_.assign((rows_per_page_ + 63) / 64, 0);
  }
  out_row_.resize(row_width_);
}

Status SJoinStage::Consume(catalog::RowId anchor_id) {
  if (static_cast<int64_t>(anchor_id) <= last_id_) {
    return Status::Internal("SJoin anchor ids must ascend");
  }
  last_id_ = anchor_id;
  if (!reader_.has_value()) {
    EncodeFixed32(out_row_.data(), anchor_id);
    return sink_(out_row_.data(), row_width_);
  }
  int64_t page = anchor_id / rows_per_page_;
  if (page != page_) {
    GHOSTDB_RETURN_NOT_OK(FlushPage());
    page_ = page;
  }
  uint32_t slot = anchor_id % rows_per_page_;
  pending_[slot / 64] |= uint64_t{1} << (slot % 64);
  return Status::OK();
}

Status SJoinStage::Finish() { return FlushPage(); }

Status SJoinStage::FlushPage() {
  if (page_ < 0) return Status::OK();
  GHOSTDB_RETURN_NOT_OK(reader_->ReadRowsOnPage(
      static_cast<uint32_t>(page_), pending_, col_begin_, col_end_));
  catalog::RowId first = static_cast<catalog::RowId>(page_) * rows_per_page_;
  for (size_t w = 0; w < pending_.size(); ++w) {
    for (uint64_t bits = pending_[w]; bits != 0; bits &= bits - 1) {
      uint32_t slot = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      const uint8_t* skt_row = buffer_ + slot * skt_row_width_;
      EncodeFixed32(out_row_.data(), first + slot);
      for (size_t i = 0; i < slots_.size(); ++i) {
        std::memcpy(out_row_.data() + 4 + i * 4, skt_row + slots_[i] * 4, 4);
      }
      GHOSTDB_RETURN_NOT_OK(sink_(out_row_.data(), row_width_));
    }
    pending_[w] = 0;
  }
  page_ = -1;
  return Status::OK();
}

}  // namespace ghostdb::exec
