// Order-independent exact summation of IEEE-754 doubles.
//
// SUM/AVG over DOUBLE must produce byte-identical results no matter how the
// input is partitioned: a group that stays in the hash table folds values
// in arrival order, but a group that spills folds per-run partial sums —
// an order the floating-point `+=` cannot reproduce. ExactDoubleSum
// sidesteps the problem by accumulating into a wide fixed-point integer (a
// 2176-bit two's-complement register whose LSB is 2^-1074, the smallest
// subnormal ULP), where addition is associative and commutative *exactly*.
// Finish() rounds the exact total to the nearest double once, so any
// partition of the same multiset of inputs yields the same output bits.
//
// Capacity: the largest finite double occupies bits [2045, 2098); 2176 bits
// leave ~2^77 additions of headroom before the register could wrap — far
// beyond any reachable row count. Infinities and NaNs are tracked out of
// band (counters + flag) with the usual IEEE resolution at Finish().
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/coding.h"

namespace ghostdb::exec {

class ExactDoubleSum {
 public:
  static constexpr size_t kLimbs = 34;  ///< 34 x 64 = 2176 bits
  /// Serialized form: limbs, then the two infinity counters, then the NaN
  /// flag — the per-item partial-aggregate state of a spilled group row.
  static constexpr size_t kEncodedSize = kLimbs * 8 + 8 + 8 + 1;

  /// Folds one value into the register (exact for all finite inputs).
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    uint64_t frac = bits & ((uint64_t{1} << 52) - 1);
    uint32_t exp = static_cast<uint32_t>(bits >> 52) & 0x7FF;
    bool neg = (bits >> 63) != 0;
    if (exp == 0x7FF) {
      if (frac != 0) {
        nan_ = true;
      } else if (neg) {
        neg_inf_ += 1;
      } else {
        pos_inf_ += 1;
      }
      return;
    }
    // Fixed-point decomposition: value = ±mant * 2^(shift - 1074).
    uint64_t mant = exp == 0 ? frac : frac | (uint64_t{1} << 52);
    uint32_t shift = exp == 0 ? 0 : exp - 1;
    if (mant == 0) return;  // ±0 contributes nothing
    uint32_t limb = shift / 64, off = shift % 64;
    uint64_t lo = mant << off;
    uint64_t hi = off == 0 ? 0 : mant >> (64 - off);
    if (neg) {
      SubAt(limb, lo);
      SubAt(limb + 1, hi);
    } else {
      AddAt(limb, lo);
      AddAt(limb + 1, hi);
    }
  }

  /// Folds another accumulator in — the spill-run partial combine. Exact,
  /// so merge({a} then {b}) == merge({b} then {a}) == Add-ing every value.
  void Merge(const ExactDoubleSum& other) {
    nan_ = nan_ || other.nan_;
    pos_inf_ += other.pos_inf_;
    neg_inf_ += other.neg_inf_;
    uint64_t carry = 0;
    for (size_t i = 0; i < kLimbs; ++i) {
      uint64_t a = limbs_[i];
      uint64_t s = a + other.limbs_[i];
      uint64_t c = s < a ? 1 : 0;
      limbs_[i] = s + carry;
      carry = c | (limbs_[i] < s ? 1 : 0);
    }
  }

  /// The exact total rounded once to the nearest double (ties to even).
  double Finish() const {
    if (nan_ || (pos_inf_ > 0 && neg_inf_ > 0)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (pos_inf_ > 0) return std::numeric_limits<double>::infinity();
    if (neg_inf_ > 0) return -std::numeric_limits<double>::infinity();
    uint64_t mag[kLimbs];
    bool neg = (limbs_[kLimbs - 1] >> 63) != 0;
    if (neg) {  // |x| = ~x + 1
      uint64_t carry = 1;
      for (size_t i = 0; i < kLimbs; ++i) {
        mag[i] = ~limbs_[i] + carry;
        carry = carry != 0 && mag[i] == 0 ? 1 : 0;
      }
    } else {
      std::memcpy(mag, limbs_, sizeof(mag));
    }
    int top = -1;  // highest set bit index
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      if (mag[i] != 0) {
        int b = 63;
        while ((mag[i] >> b) == 0) --b;
        top = i * 64 + b;
        break;
      }
    }
    if (top < 0) return 0.0;
    int shift = top > 52 ? top - 52 : 0;  // keep the top 53 bits
    uint64_t mant = BitsFrom(mag, shift) & ((uint64_t{1} << 53) - 1);
    if (shift > 0) {
      bool guard = Bit(mag, shift - 1);
      if (guard && (AnyBelow(mag, shift - 1) || (mant & 1) != 0)) {
        mant += 1;
        if (mant == (uint64_t{1} << 53)) {
          mant >>= 1;
          shift += 1;
        }
      }
    }
    // ldexp saturates to ±inf past the double range, which is the right
    // answer for a finite exact total that large.
    double result = std::ldexp(static_cast<double>(mant), shift - 1074);
    return neg ? -result : result;
  }

  void Serialize(uint8_t* dst) const {
    for (size_t i = 0; i < kLimbs; ++i) EncodeFixed64(dst + i * 8, limbs_[i]);
    EncodeFixed64(dst + kLimbs * 8, pos_inf_);
    EncodeFixed64(dst + kLimbs * 8 + 8, neg_inf_);
    dst[kLimbs * 8 + 16] = nan_ ? 1 : 0;
  }

  static ExactDoubleSum Deserialize(const uint8_t* src) {
    ExactDoubleSum s;
    for (size_t i = 0; i < kLimbs; ++i) s.limbs_[i] = DecodeFixed64(src + i * 8);
    s.pos_inf_ = DecodeFixed64(src + kLimbs * 8);
    s.neg_inf_ = DecodeFixed64(src + kLimbs * 8 + 8);
    s.nan_ = src[kLimbs * 8 + 16] != 0;
    return s;
  }

 private:
  void AddAt(uint32_t limb, uint64_t v) {
    while (v != 0 && limb < kLimbs) {
      uint64_t old = limbs_[limb];
      limbs_[limb] = old + v;
      v = limbs_[limb] < old ? 1 : 0;
      limb += 1;
    }
  }

  void SubAt(uint32_t limb, uint64_t v) {
    while (v != 0 && limb < kLimbs) {
      uint64_t old = limbs_[limb];
      limbs_[limb] = old - v;
      v = old < v ? 1 : 0;
      limb += 1;
    }
  }

  static uint64_t BitsFrom(const uint64_t* mag, int shift) {
    uint32_t limb = static_cast<uint32_t>(shift) / 64;
    uint32_t off = static_cast<uint32_t>(shift) % 64;
    uint64_t lo = mag[limb] >> off;
    uint64_t hi =
        off != 0 && limb + 1 < kLimbs ? mag[limb + 1] << (64 - off) : 0;
    return lo | hi;
  }

  static bool Bit(const uint64_t* mag, int pos) {
    return ((mag[pos / 64] >> (pos % 64)) & 1) != 0;
  }

  /// Any set bit strictly below `pos` (the rounding sticky bit).
  static bool AnyBelow(const uint64_t* mag, int pos) {
    int limb = pos / 64, off = pos % 64;
    if (off != 0 && (mag[limb] & ((uint64_t{1} << off) - 1)) != 0) return true;
    for (int i = 0; i < limb; ++i) {
      if (mag[i] != 0) return true;
    }
    return false;
  }

  uint64_t limbs_[kLimbs] = {};  ///< two's complement, LSB = 2^-1074
  uint64_t pos_inf_ = 0;
  uint64_t neg_inf_ = 0;
  bool nan_ = false;
};

}  // namespace ghostdb::exec
