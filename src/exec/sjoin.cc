#include "exec/sjoin.h"

#include <cstring>

#include "common/coding.h"

namespace ghostdb::exec {

SJoinStage::SJoinStage(
    flash::FlashDevice* device, const storage::FixedTableRef* skt,
    std::vector<uint32_t> skt_slots, uint8_t* buffer,
    std::function<Status(const uint8_t* row, uint32_t width)> sink)
    : slots_(std::move(skt_slots)),
      sink_(std::move(sink)),
      row_width_(4 + 4 * static_cast<uint32_t>(slots_.size())) {
  if (skt != nullptr && !slots_.empty()) {
    reader_.emplace(device, *skt, buffer);
    skt_row_.resize(skt->row_width);
  }
  out_row_.resize(row_width_);
}

Status SJoinStage::Consume(catalog::RowId anchor_id) {
  EncodeFixed32(out_row_.data(), anchor_id);
  if (reader_.has_value()) {
    GHOSTDB_RETURN_NOT_OK(reader_->ReadRow(anchor_id, skt_row_.data()));
    for (size_t i = 0; i < slots_.size(); ++i) {
      std::memcpy(out_row_.data() + 4 + i * 4,
                  skt_row_.data() + slots_[i] * 4, 4);
    }
  }
  return sink_(out_row_.data(), row_width_);
}

}  // namespace ghostdb::exec
