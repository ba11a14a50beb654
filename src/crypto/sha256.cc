#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__SHA__)
#include <immintrin.h>
#endif

namespace ghostdb::crypto {

namespace {

constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__SHA__)

// Rounds 4g .. 4g+3 on SHA-NI: two sha256rnds2 per four message words.
// `abef`/`cdgh` hold the working state; `wk` is the message group plus K.
inline void Rounds4(__m128i& abef, __m128i& cdgh, __m128i wk) {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t n) {
  // Big-endian message words.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The instructions want the state as ABEF and CDGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds message words 4g .. 4g+3 while rounds 4g.. run; the
    // schedule for group g+1 completes (msg2) and group g+3 starts (msg1)
    // alongside them.
    __m128i w[4];
#pragma GCC unroll 16
    for (size_t g = 0; g < 16; ++g) {
      __m128i& cur = w[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            byte_swap);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      Rounds4(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        __m128i& prev = w[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __SHA__

}  // namespace

void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t n) {
#if defined(__SHA__)
  CompressShaNi(state, blocks, n);
#else
  scalar::Sha256Compress(state, blocks, n);
#endif
}

namespace scalar {

void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t n) {
  for (; n > 0; --n, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace scalar

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  std::memcpy(h_, kInitialState, sizeof(h_));
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) return;
    Sha256Compress(h_, buffer_, 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the input; only the remainder is buffered.
  size_t whole = len / sizeof(buffer_);
  Sha256Compress(h_, data, whole);
  data += whole * sizeof(buffer_);
  len -= whole * sizeof(buffer_);
  if (len > 0) std::memcpy(buffer_, data, len);
  buffered_ = len;
}

void Sha256::Finish(uint8_t digest[kDigestSize]) {
  uint64_t bit_len = total_len_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    Sha256Compress(h_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  Sha256Compress(h_, buffer_, 1);
  for (int i = 0; i < 8; ++i) {
    digest[i * 4 + 0] = static_cast<uint8_t>(h_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(const uint8_t* data,
                                                      size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  std::array<uint8_t, kDigestSize> digest;
  hasher.Finish(digest.data());
  return digest;
}

std::string Sha256::ToHex(const uint8_t digest[kDigestSize]) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(kDigestSize * 2);
  for (size_t i = 0; i < kDigestSize; ++i) {
    out.push_back(hex[digest[i] >> 4]);
    out.push_back(hex[digest[i] & 0xF]);
  }
  return out;
}

HmacSha256::HmacSha256(const uint8_t* key, size_t key_len) {
  std::array<uint8_t, 64> block_key{};
  if (key_len > 64) {
    auto digest = Sha256::Hash(key, key_len);
    std::memcpy(block_key.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block_key.data(), key, key_len);
  }
  std::array<uint8_t, 64> ipad_key;
  for (size_t i = 0; i < 64; ++i) {
    ipad_key[i] = static_cast<uint8_t>(block_key[i] ^ 0x36);
    opad_key_[i] = static_cast<uint8_t>(block_key[i] ^ 0x5c);
  }
  inner_.Update(ipad_key.data(), ipad_key.size());
}

void HmacSha256::Update(const uint8_t* data, size_t len) {
  inner_.Update(data, len);
}

void HmacSha256::Finish(uint8_t tag[kTagSize]) {
  uint8_t inner_digest[Sha256::kDigestSize];
  inner_.Finish(inner_digest);
  Sha256 outer;
  outer.Update(opad_key_.data(), opad_key_.size());
  outer.Update(inner_digest, sizeof(inner_digest));
  outer.Finish(tag);
}

std::array<uint8_t, HmacSha256::kTagSize> HmacSha256::Mac(const uint8_t* key,
                                                          size_t key_len,
                                                          const uint8_t* data,
                                                          size_t len) {
  HmacSha256 mac(key, key_len);
  mac.Update(data, len);
  std::array<uint8_t, kTagSize> tag;
  mac.Finish(tag.data());
  return tag;
}

}  // namespace ghostdb::crypto
