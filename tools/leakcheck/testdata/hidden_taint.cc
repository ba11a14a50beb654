// leakcheck self-test fixture: rule 1 (hidden-taint).
//
// Minimal mocks reusing the real annotations; each "// expect-finding:"
// marker names the rule leakcheck must report on that exact line, and the
// self-test fails on any finding without a marker (negatives below prove
// visible-derived flows stay clean). Parsed by the analyzer only — never
// compiled into the library.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/annotations.h"

namespace ghostdb {

class SimClock {
 public:
  GHOSTDB_TRANSCRIPT_SINK void Advance(uint64_t ns);
};

namespace device {
class Channel {
 public:
  GHOSTDB_TRANSCRIPT_SINK void TransferSized(int direction, const char* label,
                                             uint64_t bytes);
};
}  // namespace device

struct Image {
  GHOSTDB_HIDDEN uint64_t hidden_rows = 0;
  uint64_t visible_rows = 0;
};

struct PadContext {
  GHOSTDB_TRANSCRIPT_SINK uint64_t padding_row_bound = 0;
  GHOSTDB_TRANSCRIPT_SINK uint64_t distinct_key_bound = 0;
};

uint64_t CountMatches(uint64_t upto);
std::vector<uint32_t> ReceiveVisibleIds(uint32_t table);
uint64_t ReceiveVisibleDistinct(uint32_t table);

namespace exec {

// Violation: a hidden field propagates through two locals into a channel
// transfer size.
void LeakSize(device::Channel* chan, const Image& image) {
  uint64_t n = image.hidden_rows;
  uint64_t bytes = n * 8;
  chan->TransferSized(0, "rows", bytes);  // expect-finding: hidden-taint
}

// Violation: a clock charge guarded by a hidden-dependent branch — the
// charge amount is constant, but *whether* it happens depends on hidden
// data, so the branch itself is reported.
void LeakTiming(SimClock* clock, const Image& image) {
  uint64_t n = image.hidden_rows;
  if (n > 100) {  // expect-finding: hidden-taint
    clock->Advance(5000);
  }
}

// Violation: hidden-derived call result stored into a transcript-sink
// field (the padding bound decides the padded result volume).
void LeakBound(PadContext* ctx, const Image& image) {
  uint64_t rows = CountMatches(image.hidden_rows);
  ctx->padding_row_bound = rows;  // expect-finding: hidden-taint
}

// Negative: visible-derived size, branch, and bound — no findings.
void PadVisible(device::Channel* chan, PadContext* ctx, const Image& image) {
  uint64_t bytes = image.visible_rows * 8;
  ctx->padding_row_bound = image.visible_rows;
  if (image.visible_rows > 0) {
    chan->TransferSized(1, "pad", bytes);
  }
}

// Negative: the worst-case bound tightened to the anchor's decoded Vis id
// count — the ids crossed the channel from Untrusted, so the count is
// visible-derived.
void TightenVisible(PadContext* ctx, const Image& image) {
  uint64_t rows = image.visible_rows;
  std::vector<uint32_t> ids = ReceiveVisibleIds(0);
  ctx->padding_row_bound = std::min<uint64_t>(rows, ids.size());
}

// Violation: the same tightening with a hidden count.
void TightenHidden(PadContext* ctx, const Image& image) {
  uint64_t rows = image.visible_rows;
  uint64_t n = image.hidden_rows;
  ctx->padding_row_bound = std::min(rows, n);  // expect-finding: hidden-taint
}

// Negative: the grouped bound taken from the PC's vis-distinct message —
// a count over visible key columns, so visible-derived.
void BoundToVisibleKeys(PadContext* ctx) {
  ctx->distinct_key_bound = ReceiveVisibleDistinct(0);
}

// Violation: the grouped bound taken from a hidden-derived group count.
void BoundToHiddenGroups(PadContext* ctx, const Image& image) {
  uint64_t groups = CountMatches(image.hidden_rows);
  ctx->distinct_key_bound = groups;  // expect-finding: hidden-taint
}

}  // namespace exec
}  // namespace ghostdb
