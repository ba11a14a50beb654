#include "device/wire_codec.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace ghostdb::device {

namespace {

using catalog::DataType;

// Block modes (the first byte of every block).
constexpr uint8_t kModeRaw = 0;
constexpr uint8_t kModeDelta = 1;
constexpr uint8_t kModeBitmap = 2;

// Widest bit-packed field: ids, INT values and CHAR lengths are 32-bit.
constexpr uint32_t kMaxBitWidth = 32;

uint32_t BitWidth(uint64_t v) {
  return v == 0 ? 0 : 64 - static_cast<uint32_t>(__builtin_clzll(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint64_t PackedBytes(uint64_t count, uint32_t bits) {
  return (count * bits + 7) / 8;
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// LSB-first bit packer into a buffer sized for everything it will write.
class BitWriter {
 public:
  explicit BitWriter(uint8_t* p) : p_(p) {}
  void Put(uint32_t v, uint32_t bits) {
    if (bits == 0) return;
    acc_ |= static_cast<uint64_t>(v) << fill_;
    fill_ += bits;
    while (fill_ >= 8) {
      *p_++ = static_cast<uint8_t>(acc_);
      acc_ >>= 8;
      fill_ -= 8;
    }
  }
  /// Flushes the last partial byte; returns the end of the bit array.
  uint8_t* Finish() {
    if (fill_ > 0) *p_++ = static_cast<uint8_t>(acc_);
    return p_;
  }

 private:
  uint8_t* p_;
  uint64_t acc_ = 0;
  uint32_t fill_ = 0;
};

/// Reads LSB-first fields from a bit array whose byte length the caller
/// has already bounds-checked for every field it will read.
class BitReader {
 public:
  explicit BitReader(const uint8_t* p) : p_(p) {}
  uint32_t Get(uint32_t bits) {
    if (bits == 0) return 0;
    while (fill_ < bits) {
      acc_ |= static_cast<uint64_t>(*p_++) << fill_;
      fill_ += 8;
    }
    uint32_t v = static_cast<uint32_t>(acc_ & ((uint64_t{1} << bits) - 1));
    acc_ >>= bits;
    fill_ -= bits;
    return v;
  }

 private:
  const uint8_t* p_;
  uint64_t acc_ = 0;
  uint32_t fill_ = 0;
};

constexpr uint64_t kSpaces = 0x2020202020202020ULL;

/// Length of a space-padded CHAR cell without its trailing spaces.
uint32_t TrimmedLength(const uint8_t* cell, uint32_t width) {
  while (width >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, cell + width - 8, 8);
    if (word != kSpaces) break;
    width -= 8;
  }
  while (width > 0 && cell[width - 1] == ' ') --width;
  return width;
}

/// Copies `len` bytes in 8-byte words; may write up to 7 bytes past
/// dst + len, and reads past src + len only below `src_end`.
uint8_t* CopyShort(uint8_t* dst, const uint8_t* src, uint32_t len,
                   const uint8_t* src_end) {
  uint32_t k = 0;
  for (; k < len && src + k + 8 <= src_end; k += 8) {
    std::memcpy(dst + k, src + k, 8);
  }
  for (; k < len; ++k) dst[k] = src[k];
  return dst + len;
}

// ---- encoder ---------------------------------------------------------------

/// The compact-vs-raw rule: true when shipping `compact` bytes and decoding
/// `decoded` bytes costs less than shipping `raw` bytes.
bool CompactWins(uint64_t compact, uint64_t raw, uint64_t decoded,
                 double throughput) {
  if (throughput <= 0) return false;  // a free channel: decoding never pays
  double ns_per_byte = static_cast<double>(kSecond) / throughput;
  return static_cast<double>(compact) * ns_per_byte +
             static_cast<double>(decoded * kDecodeNsPerByte) <
         static_cast<double>(raw) * ns_per_byte;
}

/// The compact form of one block of rows: its size, computed from the
/// rows' statistics, and the writer that follows the same plan.
class CompactBlock {
 public:
  CompactBlock(const WireLayout& layout, const uint8_t* rows, uint64_t n)
      : layout_(layout),
        width_(layout.row_width()),
        rows_(rows),
        n_(n),
        columns_(layout.columns.size()) {
    first_ = Id(0);
    last_ = Id(n - 1);
    uint64_t max_gap = 0;
    for (uint64_t i = 1; i < n; ++i) {
      max_gap = std::max<uint64_t>(max_gap, Id(i) - Id(i - 1) - 1);
    }
    gap_bits_ = BitWidth(max_gap);
    const uint64_t delta = 1 + PackedBytes(n - 1, gap_bits_);
    const uint64_t span = static_cast<uint64_t>(last_) - first_ + 1;
    const uint64_t bitmap = VarintSize(span) + (span + 7) / 8;
    bitmap_ = bitmap < delta;
    size_ = 1 + VarintSize(n) + VarintSize(first_) + std::min(delta, bitmap);
    uint32_t off = 4;
    for (size_t c = 0; c < columns_.size(); ++c) {
      const WireColumn& col = layout.columns[c];
      Column& plan = columns_[c];
      const uint8_t* cells = rows + off;
      if (col.type == DataType::kInt32) {
        int32_t lo = static_cast<int32_t>(DecodeFixed32(cells));
        int32_t hi = lo;
        for (uint64_t i = 1; i < n; ++i) {
          int32_t v = static_cast<int32_t>(DecodeFixed32(cells + i * width_));
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        plan.base = static_cast<uint32_t>(lo);
        plan.bits = BitWidth(static_cast<uint32_t>(hi) - plan.base);
        size_ += 5 + PackedBytes(n, plan.bits);
      } else if (col.type == DataType::kString) {
        uint32_t max_len = 0;
        uint64_t chars = 0;
        plan.lengths.resize(n);
        for (uint64_t i = 0; i < n; ++i) {
          uint32_t len = TrimmedLength(cells + i * width_, col.width);
          plan.lengths[i] = len;
          max_len = std::max(max_len, len);
          chars += len;
        }
        plan.bits = BitWidth(max_len);
        size_ += 1 + PackedBytes(n, plan.bits) + chars;
      } else {
        size_ += n * col.width;
      }
      off += col.width;
    }
  }

  uint64_t size() const { return size_; }

  /// Appends the block (exactly size() bytes).
  void Emit(std::vector<uint8_t>* out) const {
    const size_t at = out->size();
    out->resize(at + size_ + 8);  // CopyShort's slack
    uint8_t* p = out->data() + at;
    *p++ = bitmap_ ? kModeBitmap : kModeDelta;
    p = PutVarint(p, n_);
    p = PutVarint(p, first_);
    if (bitmap_) {
      uint64_t span = static_cast<uint64_t>(last_) - first_ + 1;
      p = PutVarint(p, span);
      std::memset(p, 0, (span + 7) / 8);
      for (uint64_t i = 0; i < n_; ++i) {
        uint64_t bit = Id(i) - first_;
        p[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      }
      p += (span + 7) / 8;
    } else {
      *p++ = static_cast<uint8_t>(gap_bits_);
      BitWriter bits(p);
      for (uint64_t i = 1; i < n_; ++i) {
        bits.Put(Id(i) - Id(i - 1) - 1, gap_bits_);
      }
      p = bits.Finish();
    }
    uint32_t off = 4;
    for (size_t c = 0; c < columns_.size(); ++c) {
      const WireColumn& col = layout_.columns[c];
      const Column& plan = columns_[c];
      const uint8_t* cells = rows_ + off;
      if (col.type == DataType::kInt32) {
        EncodeFixed32(p, plan.base);
        p[4] = static_cast<uint8_t>(plan.bits);
        BitWriter bits(p + 5);
        for (uint64_t i = 0; i < n_; ++i) {
          bits.Put(DecodeFixed32(cells + i * width_) - plan.base, plan.bits);
        }
        p = bits.Finish();
      } else if (col.type == DataType::kString) {
        *p++ = static_cast<uint8_t>(plan.bits);
        BitWriter bits(p);
        for (uint32_t len : plan.lengths) bits.Put(len, plan.bits);
        p = bits.Finish();
        const uint8_t* end = rows_ + n_ * width_;
        for (uint64_t i = 0; i < n_; ++i) {
          p = CopyShort(p, cells + i * width_, plan.lengths[i], end);
        }
      } else {
        for (uint64_t i = 0; i < n_; ++i) {
          std::memcpy(p, cells + i * width_, col.width);
          p += col.width;
        }
      }
      off += col.width;
    }
    out->resize(at + size_);
  }

 private:
  /// Per column: the INT frame (base, bits) or the CHAR length field's
  /// width and the trimmed lengths.
  struct Column {
    uint32_t base = 0;
    uint32_t bits = 0;
    std::vector<uint32_t> lengths;
  };

  uint32_t Id(uint64_t i) const { return DecodeFixed32(rows_ + i * width_); }

  const WireLayout& layout_;
  const uint32_t width_;
  const uint8_t* rows_;
  const uint64_t n_;
  uint32_t first_ = 0;
  uint32_t last_ = 0;
  uint32_t gap_bits_ = 0;
  bool bitmap_ = false;
  uint64_t size_ = 0;
  std::vector<Column> columns_;
};

void EmitRawBlock(const uint8_t* rows, uint64_t n, uint32_t width,
                  std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 1 + VarintSize(n) + n * width);
  uint8_t* p = out->data() + at;
  *p++ = kModeRaw;
  p = PutVarint(p, n);
  std::memcpy(p, rows, n * width);
}

// ---- decoder ---------------------------------------------------------------

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed wire message: ") +
                                 what);
}

/// Bounds-checked cursor over a received message.
class Cursor {
 public:
  Cursor(const uint8_t* p, size_t size) : p_(p), end_(p + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  const uint8_t* pos() const { return p_; }

  bool Byte(uint8_t* v) {
    if (p_ == end_) return false;
    *v = *p_++;
    return true;
  }
  /// A varint of at most 32 bits.
  bool Varint(uint32_t* v) {
    uint64_t acc = 0;
    for (uint32_t shift = 0; shift < 35; shift += 7) {
      if (p_ == end_) return false;
      uint8_t byte = *p_++;
      acc |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (acc > UINT32_MAX) return false;
        *v = static_cast<uint32_t>(acc);
        return true;
      }
    }
    return false;
  }
  /// Consumes `n` bytes; null when fewer remain.
  const uint8_t* Take(uint64_t n) {
    if (n > remaining()) return nullptr;
    const uint8_t* at = p_;
    p_ += n;
    return at;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

/// Checks that ids of `n` rows at `rows` ascend strictly from past `*prev`
/// and stay below `limit`; advances `*prev`.
Status CheckIds(const uint8_t* rows, uint64_t n, uint32_t width,
                uint64_t limit, int64_t* prev) {
  for (uint64_t i = 0; i < n; ++i) {
    int64_t id = DecodeFixed32(rows + i * width);
    if (id <= *prev) return Malformed("ids not strictly ascending");
    if (static_cast<uint64_t>(id) >= limit) {
      return Malformed("id past the table's row count");
    }
    *prev = id;
  }
  return Status::OK();
}

/// Decodes the id section of a compact block into the first 4 bytes of
/// each of the `n` rows at `out`.
Status DecodeIds(Cursor* in, uint8_t mode, uint64_t n, uint32_t width,
                 uint64_t limit, uint8_t* out) {
  uint32_t first = 0;
  if (!in->Varint(&first)) return Malformed("truncated block");
  if (mode == kModeDelta) {
    uint8_t b = 0;
    if (!in->Byte(&b)) return Malformed("truncated block");
    if (b > kMaxBitWidth) return Malformed("bit width above 32");
    const uint8_t* packed = in->Take(PackedBytes(n - 1, b));
    if (packed == nullptr) return Malformed("truncated block");
    BitReader bits(packed);
    uint64_t id = first;
    for (uint64_t i = 0; i < n; ++i) {
      if (i > 0) id += uint64_t{1} + bits.Get(b);
      if (id >= limit) return Malformed("id past the table's row count");
      EncodeFixed32(out + i * width, static_cast<uint32_t>(id));
    }
    return Status::OK();
  }
  uint32_t span = 0;
  if (!in->Varint(&span)) return Malformed("truncated block");
  if (static_cast<uint64_t>(first) + span > limit) {
    return Malformed("id past the table's row count");
  }
  const uint8_t* map = in->Take((static_cast<uint64_t>(span) + 7) / 8);
  if (map == nullptr) return Malformed("truncated block");
  uint64_t found = 0;
  for (uint64_t byte = 0; byte * 8 < span; ++byte) {
    uint32_t bits = map[byte];
    if (span - byte * 8 < 8) bits &= (1u << (span - byte * 8)) - 1;
    for (; bits != 0; bits &= bits - 1) {
      if (found == n) {
        return Malformed("block row count disagrees with bitmap");
      }
      uint64_t id =
          first + byte * 8 + static_cast<uint32_t>(__builtin_ctz(bits));
      EncodeFixed32(out + found * width, static_cast<uint32_t>(id));
      ++found;
    }
  }
  if (found != n) return Malformed("block row count disagrees with bitmap");
  return Status::OK();
}

/// Decodes the column sections of a compact block into the `n` rows at
/// `out` (ids already in place).
Status DecodeColumns(Cursor* in, const WireLayout& layout, uint64_t n,
                     uint8_t* out) {
  const uint32_t width = layout.row_width();
  uint32_t off = 4;
  for (const WireColumn& col : layout.columns) {
    uint8_t* dst = out + off;
    if (col.type == DataType::kInt32) {
      const uint8_t* base = in->Take(4);
      uint8_t b = 0;
      if (base == nullptr || !in->Byte(&b)) return Malformed("truncated block");
      if (b > kMaxBitWidth) return Malformed("bit width above 32");
      const uint8_t* packed = in->Take(PackedBytes(n, b));
      if (packed == nullptr) return Malformed("truncated block");
      uint32_t lo = DecodeFixed32(base);
      BitReader bits(packed);
      for (uint64_t i = 0; i < n; ++i) {
        EncodeFixed32(dst + i * width, lo + bits.Get(b));
      }
    } else if (col.type == DataType::kString) {
      uint8_t b = 0;
      if (!in->Byte(&b)) return Malformed("truncated block");
      if (b > kMaxBitWidth) return Malformed("bit width above 32");
      const uint8_t* packed = in->Take(PackedBytes(n, b));
      if (packed == nullptr) return Malformed("truncated block");
      uint64_t total = 0;
      BitReader lengths(packed);
      for (uint64_t i = 0; i < n; ++i) {
        uint32_t len = lengths.Get(b);
        if (len > col.width) return Malformed("CHAR length above its width");
        total += len;
      }
      const uint8_t* chars = in->Take(total);
      if (chars == nullptr) return Malformed("truncated block");
      BitReader again(packed);
      for (uint64_t i = 0; i < n; ++i) {
        uint32_t len = again.Get(b);
        uint8_t* cell = dst + i * width;
        std::memcpy(cell, chars, len);
        std::memset(cell + len, ' ', col.width - len);
        chars += len;
      }
    } else {
      const uint8_t* cells = in->Take(n * col.width);
      if (cells == nullptr) return Malformed("truncated block");
      for (uint64_t i = 0; i < n; ++i) {
        std::memcpy(dst + i * width, cells + i * col.width, col.width);
      }
    }
    off += col.width;
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeRows(WireFormat format, const WireLayout& layout,
                                const uint8_t* rows, uint64_t count,
                                double throughput) {
  const uint32_t width = layout.row_width();
  if (format == WireFormat::kRaw) {
    return std::vector<uint8_t>(rows, rows + count * width);
  }
  std::vector<uint8_t> out;
  if (count == 0) return out;
  out.resize(VarintSize(count));
  PutVarint(out.data(), count);
  // Every block holds what one raw block can (a raw header is at most 3
  // bytes: mode + a 2-byte varint row count). The compact form is sent
  // only when it is smaller, so either form fits one buffer.
  const uint64_t block_rows =
      std::max<uint64_t>(1, (kWireBlockBytes - 3) / width);
  for (uint64_t start = 0; start < count;) {
    const uint64_t n = std::min(block_rows, count - start);
    const uint8_t* block = rows + start * width;
    CompactBlock compact(layout, block, n);
    const uint64_t raw = 1 + VarintSize(n) + n * width;
    if (CompactWins(compact.size(), raw, n * width, throughput)) {
      compact.Emit(&out);
    } else {
      EmitRawBlock(block, n, width, &out);
    }
    start += n;
  }
  return out;
}

Result<WireRows> DecodeRows(WireFormat format, const WireLayout& layout,
                            const uint8_t* message, size_t size,
                            uint64_t id_limit) {
  const uint32_t width = layout.row_width();
  WireRows decoded;
  int64_t prev = -1;
  if (format == WireFormat::kRaw) {
    if (size % width != 0) return Malformed("size not a multiple of the row");
    decoded.rows = size / width;
    GHOSTDB_RETURN_NOT_OK(
        CheckIds(message, decoded.rows, width, id_limit, &prev));
    decoded.bytes.assign(message, message + size);
    return decoded;
  }
  if (size == 0) return decoded;
  Cursor in(message, size);
  uint32_t total = 0;
  if (!in.Varint(&total)) return Malformed("truncated header");
  // Ids ascend strictly below id_limit, so no honest message has more
  // rows: the bound keeps a hostile header from sizing the output.
  if (total == 0 || total > id_limit) {
    return Malformed("row count out of range");
  }
  decoded.rows = total;
  decoded.bytes.resize(static_cast<size_t>(total) * width);
  const size_t block_limit = std::max<size_t>(kWireBlockBytes, 3 + width);
  for (uint64_t done = 0; done < total;) {
    const uint8_t* block_start = in.pos();
    uint8_t mode = 0;
    uint32_t n = 0;
    if (!in.Byte(&mode) || !in.Varint(&n)) return Malformed("truncated block");
    if (n == 0 || n > total - done) {
      return Malformed("block row count disagrees with the header");
    }
    uint8_t* out = decoded.bytes.data() + done * width;
    if (mode == kModeRaw) {
      const uint8_t* cells = in.Take(static_cast<uint64_t>(n) * width);
      if (cells == nullptr) return Malformed("truncated block");
      std::memcpy(out, cells, static_cast<size_t>(n) * width);
      GHOSTDB_RETURN_NOT_OK(CheckIds(out, n, width, id_limit, &prev));
    } else if (mode == kModeDelta || mode == kModeBitmap) {
      GHOSTDB_RETURN_NOT_OK(DecodeIds(&in, mode, n, width, id_limit, out));
      GHOSTDB_RETURN_NOT_OK(DecodeColumns(&in, layout, n, out));
      decoded.compact_bytes += static_cast<uint64_t>(n) * width;
      // Compact ids ascend strictly below the limit by construction; only
      // the seam with the previous block needs checking.
      GHOSTDB_RETURN_NOT_OK(CheckIds(out, 1, width, id_limit, &prev));
      prev = DecodeFixed32(out + static_cast<size_t>(n - 1) * width);
    } else {
      return Malformed("unknown block mode");
    }
    if (static_cast<size_t>(in.pos() - block_start) > block_limit) {
      return Malformed("block larger than one buffer");
    }
    done += n;
  }
  if (in.remaining() != 0) return Malformed("trailing bytes");
  return decoded;
}

Status CheckPositionKeys(const WireRows& rows, const WireLayout& layout,
                         bool any_first) {
  if (rows.rows == 0) return Status::OK();
  const uint32_t width = layout.row_width();
  // Keys ascend strictly (DecodeRows), so they are consecutive iff the
  // last is n - 1 past the first.
  const uint32_t first = DecodeFixed32(rows.bytes.data());
  const uint32_t last = DecodeFixed32(
      rows.bytes.data() + static_cast<size_t>(rows.rows - 1) * width);
  if (uint64_t{last} - first != rows.rows - 1 || (!any_first && first != 0)) {
    return Malformed("positions not consecutive from 0");
  }
  return Status::OK();
}

}  // namespace ghostdb::device
