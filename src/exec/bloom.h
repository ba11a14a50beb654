// Bloom filters for Post-Filtering (paper sections 3.3-3.4).
//
// Calibration follows the paper: m = 8n bits with 4 hash functions gives a
// false-positive rate of ~0.024; when the id list outgrows the RAM that can
// be devoted to the filter, m/n degrades smoothly and the planner may
// reject Post-Filtering entirely (Fig 10: the Post-Filter curve stops when
// the filter "introduces more false positives than it can eliminate").
#pragma once

#include <cmath>
#include <cstdint>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"

namespace ghostdb::exec {

/// RAM cap for one QEP_SJ Bloom filter, in device buffers. Read by the
/// planner's Post-Filter feasibility rule (Fig 10) and by BloomBuildOp.
constexpr uint32_t kBloomMaxBuffers = 16;

/// \brief A RAM-resident Bloom filter over row ids.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_n` ids aiming at bits_per_element = 8,
  /// capped at `max_buffers` RAM buffers. Acquires RAM from `ram`.
  static Result<BloomFilter> Create(device::RamManager* ram,
                                    uint64_t expected_n, uint32_t max_buffers,
                                    double target_bits_per_element = 8.0);

  void Insert(catalog::RowId id);
  bool MightContain(catalog::RowId id) const;

  uint64_t inserted() const { return inserted_; }
  uint32_t buffers_used() const { return bits_.buffer_count(); }

  /// Achieved bits per (expected) element.
  double bits_per_element(uint64_t n) const {
    return n == 0 ? 0.0 : static_cast<double>(m_bits_) / static_cast<double>(n);
  }

  /// Theoretical false-positive rate for `n` inserted elements.
  double EstimatedFpr(uint64_t n) const {
    if (m_bits_ == 0) return 1.0;
    double exponent = -static_cast<double>(k_) * static_cast<double>(n) /
                      static_cast<double>(m_bits_);
    return std::pow(1.0 - std::exp(exponent), k_);
  }

 private:
  BloomFilter(device::RamGuard bits, uint64_t m_bits, uint32_t k)
      : bits_(std::move(bits)), m_bits_(m_bits), k_(k) {}

  device::RamGuard bits_;
  uint64_t m_bits_;
  uint32_t k_;
  uint64_t inserted_ = 0;
};

}  // namespace ghostdb::exec
