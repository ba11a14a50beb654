// Table 1: main performance parameters of the smart USB key.
// Prints the device configuration the simulator enforces — by construction
// identical to the paper's values.
#include <cstdio>

#include "device/secure_device.h"
#include "device/wire_codec.h"

int main() {
  ghostdb::device::DeviceConfig cfg;
  std::printf("=== Table 1: Main performance parameters of USB keys ===\n");
  std::printf("%-55s %10s %10s\n", "Parameter", "paper", "ours");
  std::printf("%-55s %10s %10.1f\n",
              "Communication throughput (MB/s)", "varying",
              cfg.channel_throughput_bytes_per_sec / 1e6);
  std::printf("%-55s %10d %10d\n", "Size of an ID (bytes)", 4, 4);
  std::printf("%-55s %10d %10u\n", "Size of a page in Flash (bytes)", 2048,
              cfg.flash.page_size);
  std::printf("%-55s %10d %10zu\n", "RAM size (bytes)", 65536,
              cfg.ram_bytes);
  std::printf("%-55s %10d %10.0f\n", "Time to read a page in Flash (us)",
              25, cfg.flash.read_page_latency / 1000.0);
  std::printf("%-55s %10d %10.0f\n", "Time to write a page in Flash (us)",
              200, cfg.flash.write_page_latency / 1000.0);
  std::printf("%-55s %10d %10llu\n",
              "Time to transfer a byte Data Register<->RAM (ns)", 50,
              static_cast<unsigned long long>(
                  cfg.flash.byte_transfer_latency));
  std::printf("%-55s %10s %10llu\n",
              "Key decode charge per compact wire byte (ns)", "-",
              static_cast<unsigned long long>(
                  ghostdb::device::kDecodeNsPerByte));
  std::printf("%-55s %10s %10.1f\n",
              "Break-even throughput: every block raw at/above (MB/s)", "-",
              ghostdb::device::kWireBreakEvenThroughput / 1e6);
  std::printf("\nDerived: full-page read 25..127 us; page write ~302 us; "
              "write/read ratio 2.4x..12x (paper: 2.5..12, section 2.3)\n");
  return 0;
}
