// Sorted id streams: the common currency of the Secure-side operators.
// Every source exposes one-element lookahead (head) over ascending RowIds.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/run.h"

namespace ghostdb::exec {

/// \brief Abstract ascending id stream with lookahead.
class IdSource {
 public:
  virtual ~IdSource() = default;
  /// Loads the first element. Must be called exactly once before use.
  virtual Status Prime() = 0;
  virtual bool valid() const = 0;
  virtual catalog::RowId head() const = 0;
  virtual Status Advance() = 0;
};

/// In-RAM sorted vector (Vis streams arrive through the dedicated
/// communication buffer, costing no RAM buffers — paper section 3.4).
class VectorIdSource final : public IdSource {
 public:
  explicit VectorIdSource(std::vector<catalog::RowId>&& ids)
      : ids_(std::move(ids)) {}
  Status Prime() override { return Status::OK(); }
  bool valid() const override { return pos_ < ids_.size(); }
  catalog::RowId head() const override { return ids_[pos_]; }
  Status Advance() override {
    ++pos_;
    return Status::OK();
  }

 private:
  std::vector<catalog::RowId> ids_;
  size_t pos_ = 0;
};

/// A climbing-index posting sublist on flash; needs one RAM buffer, or a
/// sub-buffer window when the Merge-alternative rule picks windows.
class PostingIdSource final : public IdSource {
 public:
  PostingIdSource(flash::FlashDevice* device, const storage::RunRef* area,
                  storage::PostingRange range, uint8_t* buffer,
                  uint32_t window_bytes = 0)
      : cursor_(device, area, range, buffer, window_bytes) {}
  Status Prime() override { return cursor_.Prime(); }
  bool valid() const override { return cursor_.valid(); }
  catalog::RowId head() const override { return cursor_.head(); }
  Status Advance() override { return cursor_.Advance(); }

 private:
  storage::PostingCursor cursor_;
};

/// A temporary sorted run on flash; needs one RAM buffer.
class RunIdSource final : public IdSource {
 public:
  RunIdSource(flash::FlashDevice* device, storage::RunRef ref,
              uint8_t* buffer, uint32_t window_bytes = 0)
      : reader_(device, std::move(ref), buffer, window_bytes) {}
  Status Prime() override { return reader_.Prime(); }
  bool valid() const override { return reader_.valid(); }
  catalog::RowId head() const override { return reader_.head(); }
  Status Advance() override { return reader_.Advance(); }

 private:
  storage::IdRunReader reader_;
};

/// The id universe [0, n): used when a query has no selective predicate on
/// the anchor path (costs no I/O — ids are implicit).
class IotaIdSource final : public IdSource {
 public:
  explicit IotaIdSource(catalog::RowId n) : n_(n) {}
  Status Prime() override { return Status::OK(); }
  bool valid() const override { return next_ < n_; }
  catalog::RowId head() const override { return next_; }
  Status Advance() override {
    ++next_;
    return Status::OK();
  }

 private:
  catalog::RowId n_;
  catalog::RowId next_ = 0;
};

/// The set bits of an id bitmap in RAM (the Merge's plan C): bit i of
/// 64-bit word w is id 64 * w + i. Scanned word by word, skipping empty
/// words; costs no I/O. `map` (`words` words) must outlive the source.
class BitmapIdSource final : public IdSource {
 public:
  BitmapIdSource(const uint8_t* map, uint64_t words)
      : map_(map), words_(words) {}
  Status Prime() override {
    word_ = words_ > 0 ? Word(0) : 0;
    return Advance();
  }
  bool valid() const override { return valid_; }
  catalog::RowId head() const override { return head_; }
  Status Advance() override {
    while (word_ == 0) {
      if (index_ + 1 >= words_) {
        valid_ = false;
        return Status::OK();
      }
      word_ = Word(++index_);
    }
    head_ = static_cast<catalog::RowId>(
        index_ * 64 + static_cast<uint64_t>(__builtin_ctzll(word_)));
    word_ &= word_ - 1;
    valid_ = true;
    return Status::OK();
  }

 private:
  uint64_t Word(uint64_t index) const {
    uint64_t word;
    std::memcpy(&word, map_ + index * 8, 8);
    return word;
  }

  const uint8_t* map_;
  uint64_t words_;
  uint64_t index_ = 0;
  uint64_t word_ = 0;  ///< bits of word `index_` not yet returned
  catalog::RowId head_ = 0;
  bool valid_ = false;
};

}  // namespace ghostdb::exec
