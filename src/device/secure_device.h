// The Secure smart USB key: clock + RAM + flash + channel, wired together
// per the paper's Figure 2 and Table 1.
#pragma once

#include <memory>

#include "common/sim_clock.h"
#include "common/units.h"
#include "device/channel.h"
#include "device/channel_arbiter.h"
#include "device/fault_injector.h"
#include "device/ram_manager.h"
#include "flash/flash.h"

namespace ghostdb::device {

/// Hardware parameters of the Secure device (Table 1 defaults).
struct DeviceConfig {
  size_t ram_bytes = 64 * kKiB;  ///< Secure-chip RAM (32 buffers of 2 KB).
  size_t buffer_size = 2048;     ///< One flash page.
  /// USB 2.0 full speed = 12 Mb/s = 1.5 MB/s.
  double channel_throughput_bytes_per_sec = 1.5e6;
  /// Wire format of the Vis id lists and projection payloads. kRaw is the
  /// paper's fixed-width rows (the paper-figure benches' choice); kCompact
  /// block-codes them and charges the key's decode (device/wire_codec.h).
  WireFormat channel_wire_format = WireFormat::kCompact;
  flash::FlashConfig flash;
  /// Seeded fault schedule; inert by default (enabled=false, all
  /// probabilities zero).
  FaultConfig fault;
};

/// \brief The smart USB key: owns the simulated clock and all device
/// resources. Query processing on Secure goes through this object, so the
/// RAM budget and I/O costs cannot be bypassed.
class SecureDevice {
 public:
  explicit SecureDevice(DeviceConfig config)
      : config_(config),
        clock_(std::make_unique<SimClock>()),
        ram_(config.ram_bytes, config.buffer_size),
        flash_(config.flash, clock_.get()),
        channel_(clock_.get(), config.channel_throughput_bytes_per_sec,
                 config.channel_wire_format),
        arbiter_(&channel_),
        injector_(config.fault, clock_.get()) {
    flash_.set_fault_injector(&injector_);
    channel_.set_fault_injector(&injector_);
    ram_.set_fault_injector(&injector_);
  }

  const DeviceConfig& config() const { return config_; }
  SimClock& clock() { return *clock_; }
  RamManager& ram() { return ram_; }
  flash::FlashDevice& flash() { return flash_; }
  Channel& channel() { return channel_; }
  ChannelArbiter& arbiter() { return arbiter_; }
  /// Only touch under this device's arbiter admission (or before Build()
  /// completes): the injector has no internal synchronization.
  FaultInjector& fault_injector() { return injector_; }

 private:
  DeviceConfig config_;
  std::unique_ptr<SimClock> clock_;
  RamManager ram_;
  flash::FlashDevice flash_;
  Channel channel_;
  ChannelArbiter arbiter_;
  FaultInjector injector_;
};

}  // namespace ghostdb::device
