// Wire format of the three PC -> key message kinds that carry rows:
// `vis-ids:<T>` (sorted Vis id lists), `vis-vals:<T>` (projection
// payloads, sorted [id | visible values] rows) and `vis-result:<T>` (the
// final rows of a visible-only statement, [key | cells], keyed by anchor
// id or by position). This module is the only place that knows their
// layout; the PC encodes with it and the key decodes with it, from the
// bytes that crossed the channel.
//
// All three are rows of [key(4) | column cells...] with strictly
// ascending keys — an id list is a projection with no columns. Two
// formats:
//
//  * kRaw — the paper's format: the rows verbatim (4 bytes per id,
//    space-padded CHAR cells). The paper-figure benches select it.
//  * kCompact (default) — a message is a varint row count followed by
//    self-contained blocks, each at most one RAM buffer (kWireBlockBytes)
//    when encoded, decodable with block-local state only:
//
//      block   := mode:u8 rows:varint body
//      kRaw    body: rows x row_width bytes, verbatim
//      kDelta  body: first:varint b:u8 (rows-1) x b-bit (gap-1) | columns
//      kBitmap body: first:varint span:varint span-bit presence map | columns
//      columns  := per projected column, in order:
//        INT    base:fixed32 b:u8 rows x b-bit (v - base)
//        CHAR(w) lb:u8 rows x lb-bit trimmed length, then the trimmed bytes
//        other  rows x width bytes, verbatim
//
//    Bit arrays are LSB-first and end on a byte boundary. An empty
//    message (zero bytes) is zero rows in both formats.
//
// Each block carries as many rows as one kRaw block fits in a buffer.
// Compact-vs-raw rule: a block is sent compact only when its encoded bytes
// over the channel plus the key's decode charge (kDecodeNsPerByte per
// decoded byte) cost less than its raw bytes over the channel; otherwise
// it is sent as a kRaw block. Inputs: the channel throughput (visible
// configuration) and the block's own bytes.
//
// Leak argument: every message kind is built by the PC from visible rows
// it already holds, and the encoding is a pure function of those rows and
// the throughput — so encoded sizes and digests carry nothing hidden.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "common/units.h"

namespace ghostdb::device {

/// Selects the wire format of the row messages.
enum class WireFormat : uint8_t {
  kCompact,  ///< block-coded (default)
  kRaw,      ///< the paper's fixed-width rows
};

/// Key-side cost of decoding one byte of a compact block: the paper's
/// Table 1 data register <-> RAM transfer time.
inline constexpr SimNanos kDecodeNsPerByte = 50;

/// Upper bound of one encoded block: one RAM buffer of the key.
inline constexpr size_t kWireBlockBytes = 2048;

/// Channel throughput (bytes/s) at and above which every block stays raw:
/// even a block that encodes to nothing costs more to decode than its raw
/// bytes cost to ship.
inline constexpr double kWireBreakEvenThroughput =
    static_cast<double>(kSecond) / static_cast<double>(kDecodeNsPerByte);

/// One projected visible column of a message row (after the 4-byte id).
struct WireColumn {
  catalog::DataType type;
  uint32_t width;
};

/// Row layout of a message: the id plus `columns`.
struct WireLayout {
  std::vector<WireColumn> columns;  ///< empty for an id list

  uint32_t row_width() const {
    uint32_t w = 4;
    for (const WireColumn& c : columns) w += c.width;
    return w;
  }
};

/// A decoded message.
struct WireRows {
  std::vector<uint8_t> bytes;  ///< rows x row_width, the raw rows
  uint64_t rows = 0;
  /// Raw bytes that were decoded from compact blocks (what the key is
  /// charged kDecodeNsPerByte for; 0 for a kRaw message).
  uint64_t compact_bytes = 0;
};

/// Encodes `count` rows of `layout` (ids strictly ascending) for a channel
/// of `throughput` bytes/s.
std::vector<uint8_t> EncodeRows(WireFormat format, const WireLayout& layout,
                                const uint8_t* rows, uint64_t count,
                                double throughput);

/// Decodes a received message. The PC is untrusted: any malformed message
/// (truncated, trailing bytes, bit width out of range, row counts that
/// disagree, ids not strictly ascending or >= `id_limit`, CHAR lengths past
/// the column width) is InvalidArgument, never an out-of-bounds read.
Result<WireRows> DecodeRows(WireFormat format, const WireLayout& layout,
                            const uint8_t* message, size_t size,
                            uint64_t id_limit);

/// The extra check on a decoded `vis-result` message keyed by position:
/// its keys must be first..first+n-1, with first = 0 unless `any_first`
/// (one leg's range of a fanned-out statement). InvalidArgument otherwise.
Status CheckPositionKeys(const WireRows& rows, const WireLayout& layout,
                         bool any_first);

}  // namespace ghostdb::device
