#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ghostdb::crypto {

namespace {

using State = std::array<uint32_t, 16>;

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// RFC 8439 block function: keystream block `counter` of `state`.
void Block(const State& state, uint32_t counter, uint8_t out[64]) {
  State input = state;
  input[12] = counter;
  State x = input;
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = x[i] + input[i];
    out[4 * i + 0] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

#if defined(__AVX2__)

// Eight blocks per step: lane k of vector j holds state word j of block
// counter + k, so every quarter-round step is one vector instruction.
constexpr size_t kLanes = 8;
constexpr size_t kGroupBytes = kLanes * ChaCha20::kBlockSize;

template <int N>
inline __m256i RotlLanes(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

// Rotations by whole bytes are one byte shuffle.
inline __m256i Rotl16Lanes(__m256i x) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, rot16);
}

inline __m256i Rotl8Lanes(__m256i x) {
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, rot8);
}

inline void QuarterRound8(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b);
  d = Rotl16Lanes(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = RotlLanes<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = Rotl8Lanes(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = RotlLanes<7>(_mm256_xor_si256(b, c));
}

// 8x8 transpose of 32-bit words: on entry r[j] lane k is word j of block k;
// on exit r[k] holds words 0..7 of block k in order.
inline void Transpose8(__m256i* r) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  // u0: blocks 0|4 of words 0-3; u1: blocks 1|5; ...; u4..u7: words 4-7.
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

// XORs keystream blocks counter .. counter+7 (the counter wraps at 2^32,
// as in the scalar body) into the 512 bytes at `data`.
void XorBlocks8(const State& state, uint32_t counter, uint8_t* data) {
  __m256i x[16];
  for (int j = 0; j < 16; ++j) {
    x[j] = _mm256_set1_epi32(static_cast<int>(state[j]));
  }
  const __m256i counters = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(counter)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  x[12] = counters;
  for (int round = 0; round < 10; ++round) {
    QuarterRound8(x[0], x[4], x[8], x[12]);
    QuarterRound8(x[1], x[5], x[9], x[13]);
    QuarterRound8(x[2], x[6], x[10], x[14]);
    QuarterRound8(x[3], x[7], x[11], x[15]);
    QuarterRound8(x[0], x[5], x[10], x[15]);
    QuarterRound8(x[1], x[6], x[11], x[12]);
    QuarterRound8(x[2], x[7], x[8], x[13]);
    QuarterRound8(x[3], x[4], x[9], x[14]);
  }
  for (int j = 0; j < 16; ++j) {
    x[j] = _mm256_add_epi32(
        x[j], j == 12 ? counters
                      : _mm256_set1_epi32(static_cast<int>(state[j])));
  }
  Transpose8(x);
  Transpose8(x + 8);
  for (size_t k = 0; k < kLanes; ++k) {
    auto* lo = reinterpret_cast<__m256i*>(data + k * ChaCha20::kBlockSize);
    auto* hi = lo + 1;
    _mm256_storeu_si256(lo, _mm256_xor_si256(_mm256_loadu_si256(lo), x[k]));
    _mm256_storeu_si256(hi,
                        _mm256_xor_si256(_mm256_loadu_si256(hi), x[8 + k]));
  }
}

#endif  // __AVX2__

}  // namespace

ChaCha20::ChaCha20(const uint8_t key[kKeySize],
                   const uint8_t nonce[kNonceSize])
    // "expand 32-byte k"
    : state_{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574} {
  for (int i = 0; i < 8; ++i) state_[4 + i] = Load32(key + 4 * i);
  for (int i = 0; i < 3; ++i) state_[13 + i] = Load32(nonce + 4 * i);
}

void ChaCha20::Crypt(uint8_t* data, size_t len, uint64_t offset) const {
#if defined(__AVX2__)
  // Eight blocks per step while the slice touches more than one keystream
  // block (an 8-block step costs about as much as two scalar blocks); a
  // partial group (unaligned start, short tail) goes through a stack copy.
  while (offset % kBlockSize + len > kBlockSize) {
    auto counter = static_cast<uint32_t>(offset / kBlockSize);
    size_t skip = offset % kBlockSize;
    size_t take = std::min(len, kGroupBytes - skip);
    if (take == kGroupBytes) {
      XorBlocks8(state_, counter, data);
    } else {
      alignas(32) uint8_t group[kGroupBytes] = {};
      std::memcpy(group + skip, data, take);
      XorBlocks8(state_, counter, group);
      std::memcpy(data, group + skip, take);
    }
    data += take;
    len -= take;
    offset += take;
  }
#endif
  scalar::Crypt(*this, data, len, offset);
}

namespace scalar {

void Crypt(const ChaCha20& cipher, uint8_t* data, size_t len,
           uint64_t offset) {
  auto counter = static_cast<uint32_t>(offset / ChaCha20::kBlockSize);
  size_t skip = offset % ChaCha20::kBlockSize;
  uint8_t keystream[ChaCha20::kBlockSize];
  while (len > 0) {
    Block(cipher.state_, counter++, keystream);
    size_t take = std::min(len, ChaCha20::kBlockSize - skip);
    for (size_t i = 0; i < take; ++i) data[i] ^= keystream[skip + i];
    data += take;
    len -= take;
    skip = 0;
  }
}

}  // namespace scalar

}  // namespace ghostdb::crypto
