// The USB channel between Untrusted (PC) and Secure (smart USB key).
//
// Two roles:
//  * cost model — transfers are charged to the simulated clock at the
//    configured throughput (paper section 6.6 varies 0.3..10 MB/s; USB 2.0
//    full speed is 12 Mb/s = 1.5 MB/s);
//  * audit log — every message is recorded (direction, label, size, content
//    digest). Leak-freedom tests replay a query against databases that
//    differ only in Hidden data and assert byte-identical transcripts: the
//    only information Secure ever emits is the query itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/units.h"
#include "core/annotations.h"
#include "device/wire_codec.h"

namespace ghostdb::device {

class FaultInjector;

/// Transfer direction over the USB link.
enum class Direction { kToSecure, kToUntrusted };

/// One recorded transfer.
struct ChannelMessage {
  Direction direction;
  std::string label;        ///< e.g. "query", "vis:T1.id"
  uint64_t bytes;           ///< payload size
  uint64_t content_digest;  ///< 64-bit hash of the payload
  /// Session the transfer belongs to (-1 = the default session, or outside
  /// any session, e.g. the build phase). Session ids and admission order
  /// are assigned from visible information only, so tagging leaks nothing
  /// — and the tags let the leak tests assert the *interleaved*
  /// multi-session transcript is hidden-independent, attribution included.
  int32_t session = -1;
};

/// \brief Simulated USB link with throughput accounting and transcript.
class Channel {
 public:
  Channel(SimClock* clock, double throughput_bytes_per_sec,
          WireFormat wire_format = WireFormat::kCompact)
      : clock_(clock),
        throughput_(throughput_bytes_per_sec),
        wire_format_(wire_format) {}

  /// Records a transfer of `payload` and charges `bytes / throughput` of
  /// simulated time to the "comm" category. Transcript sink: leakcheck
  /// rejects hidden-derived sizes/payloads reaching this call.
  GHOSTDB_TRANSCRIPT_SINK void Transfer(Direction direction,
                                        const std::string& label,
                                        const uint8_t* payload,
                                        uint64_t bytes);

  /// Convenience for size-only accounting (payload digest of empty data).
  GHOSTDB_TRANSCRIPT_SINK void TransferSized(Direction direction,
                                             const std::string& label,
                                             uint64_t bytes) {
    Transfer(direction, label, nullptr, bytes);
  }

  const std::vector<ChannelMessage>& transcript() const { return transcript_; }
  void ClearTranscript() { transcript_.clear(); }
  size_t transcript_size() const { return transcript_.size(); }

  /// Removes exactly the `count` messages starting at index `first` — the
  /// recovery path erases a failed attempt's recorded span before the
  /// masked replay re-emits the fault-free sequence. Clamped to the
  /// transcript bounds.
  void EraseTranscript(size_t first, size_t count);

  /// Session new transfers are attributed to. Set by the ChannelArbiter on
  /// admission (and only then — the channel is exclusive to the admitted
  /// session until release).
  void set_current_session(int32_t session) { current_session_ = session; }

  /// Total bytes moved in `direction` since the transcript was cleared.
  uint64_t BytesMoved(Direction direction) const;

  double throughput() const { return throughput_; }
  void set_throughput(double bytes_per_sec) { throughput_ = bytes_per_sec; }

  /// Format of the row-carrying messages (`vis-ids`, `vis-vals`) on this
  /// link: both ends encode and decode with it (device/wire_codec.h).
  WireFormat wire_format() const { return wire_format_; }

  /// Optional fault source consulted after each recorded transfer (stalls
  /// cost simulated time only; the transcript never sees them). Owned by
  /// the enclosing SecureDevice; may be null.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  SimClock* clock_;
  double throughput_;
  WireFormat wire_format_;
  int32_t current_session_ = -1;
  FaultInjector* injector_ = nullptr;
  std::vector<ChannelMessage> transcript_;
};

}  // namespace ghostdb::device
