#include "crypto/aes.h"

#include <algorithm>
#include <cstring>

#if defined(__AES__)
#include <immintrin.h>
#endif

namespace ghostdb::crypto {

namespace {

// Forward S-box, computed at startup from the field inverse + affine map so
// the implementation carries no opaque 256-byte constants.
struct SboxTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];

  SboxTables() {
    // Multiplicative inverse in GF(2^8) via exponentiation (x^254 = x^-1).
    auto gmul = [](uint8_t a, uint8_t b) {
      uint8_t p = 0;
      for (int i = 0; i < 8; ++i) {
        if (b & 1) p ^= a;
        bool hi = a & 0x80;
        a <<= 1;
        if (hi) a ^= 0x1B;  // AES irreducible polynomial x^8+x^4+x^3+x+1
        b >>= 1;
      }
      return p;
    };
    auto ginv = [&](uint8_t a) {
      if (a == 0) return static_cast<uint8_t>(0);
      uint8_t result = 1;
      uint8_t base = a;
      int e = 254;
      while (e) {
        if (e & 1) result = gmul(result, base);
        base = gmul(base, base);
        e >>= 1;
      }
      return result;
    };
    for (int i = 0; i < 256; ++i) {
      uint8_t x = ginv(static_cast<uint8_t>(i));
      // Affine transformation.
      uint8_t s = 0;
      for (int bit = 0; bit < 8; ++bit) {
        uint8_t b = static_cast<uint8_t>(
            ((x >> bit) & 1) ^ ((x >> ((bit + 4) & 7)) & 1) ^
            ((x >> ((bit + 5) & 7)) & 1) ^ ((x >> ((bit + 6) & 7)) & 1) ^
            ((x >> ((bit + 7) & 7)) & 1) ^ ((0x63 >> bit) & 1));
        s |= static_cast<uint8_t>(b << bit);
      }
      sbox[i] = s;
    }
    for (int i = 0; i < 256; ++i) inv_sbox[sbox[i]] = static_cast<uint8_t>(i);
  }
};

const SboxTables& Tables() {
  static const SboxTables tables;
  return tables;
}

uint8_t XTime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
}

uint8_t Gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = XTime(a);
    b >>= 1;
  }
  return p;
}

}  // namespace

Aes128::Aes128(const uint8_t key[kKeySize]) {
  const auto& t = Tables();
  std::memcpy(round_keys_.data(), key, kKeySize);
  uint8_t rcon = 0x01;
  for (int i = 4; i < 4 * (kRounds + 1); ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      uint8_t first = temp[0];
      temp[0] = static_cast<uint8_t>(t.sbox[temp[1]] ^ rcon);
      temp[1] = t.sbox[temp[2]];
      temp[2] = t.sbox[temp[3]];
      temp[3] = t.sbox[first];
      rcon = XTime(rcon);
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[i * 4 + b] =
          static_cast<uint8_t>(round_keys_[(i - 4) * 4 + b] ^ temp[b]);
    }
  }
}

void Aes128::EncryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  const auto& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = t.sbox[b];
  };
  auto shift_rows = [&] {
    uint8_t tmp[16];
    // Column-major state layout: s[col*4 + row].
    for (int col = 0; col < 4; ++col)
      for (int row = 0; row < 4; ++row)
        tmp[col * 4 + row] = s[((col + row) % 4) * 4 + row];
    std::memcpy(s, tmp, 16);
  };
  auto mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      uint8_t* c = &s[col * 4];
      uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<uint8_t>(XTime(a0) ^ (XTime(a1) ^ a1) ^ a2 ^ a3);
      c[1] = static_cast<uint8_t>(a0 ^ XTime(a1) ^ (XTime(a2) ^ a2) ^ a3);
      c[2] = static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ (XTime(a3) ^ a3));
      c[3] = static_cast<uint8_t>((XTime(a0) ^ a0) ^ a1 ^ a2 ^ XTime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kRounds);
  std::memcpy(out, s, 16);
}

void Aes128::DecryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  const auto& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = t.inv_sbox[b];
  };
  auto inv_shift_rows = [&] {
    uint8_t tmp[16];
    for (int col = 0; col < 4; ++col)
      for (int row = 0; row < 4; ++row)
        tmp[((col + row) % 4) * 4 + row] = s[col * 4 + row];
    std::memcpy(s, tmp, 16);
  };
  auto inv_mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      uint8_t* c = &s[col * 4];
      uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<uint8_t>(Gmul(a0, 14) ^ Gmul(a1, 11) ^ Gmul(a2, 13) ^
                                  Gmul(a3, 9));
      c[1] = static_cast<uint8_t>(Gmul(a0, 9) ^ Gmul(a1, 14) ^ Gmul(a2, 11) ^
                                  Gmul(a3, 13));
      c[2] = static_cast<uint8_t>(Gmul(a0, 13) ^ Gmul(a1, 9) ^ Gmul(a2, 14) ^
                                  Gmul(a3, 11));
      c[3] = static_cast<uint8_t>(Gmul(a0, 11) ^ Gmul(a1, 13) ^ Gmul(a2, 9) ^
                                  Gmul(a3, 14));
    }
  };

  add_round_key(kRounds);
  for (int round = kRounds - 1; round > 0; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
  std::memcpy(out, s, 16);
}

Aes128Ctr::Aes128Ctr(const uint8_t key[Aes128::kKeySize],
                     const uint8_t nonce[12])
    : cipher_(key) {
  std::memcpy(nonce_.data(), nonce, nonce_.size());
}

void Aes128Ctr::Crypt(uint8_t* data, size_t len, uint64_t offset) const {
#if defined(__AES__)
  __m128i round_keys[Aes128::kRounds + 1];
  for (int r = 0; r <= Aes128::kRounds; ++r) {
    round_keys[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        cipher_.round_keys_.data() + r * Aes128::kBlockSize));
  }
  int nonce_words[3];
  std::memcpy(nonce_words, nonce_.data(), sizeof(nonce_words));
  // Keystream of counter blocks index .. index+N-1 (nonce || 32-bit
  // big-endian index); the N independent blocks go through the rounds
  // interleaved, which hides the aesenc latency.
  auto encrypt = [&]<size_t N>(uint32_t index, __m128i(&b)[N]) {
#pragma GCC unroll 8
    for (size_t k = 0; k < N; ++k) {
      auto counter = __builtin_bswap32(index + static_cast<uint32_t>(k));
      b[k] = _mm_xor_si128(
          _mm_set_epi32(static_cast<int>(counter), nonce_words[2],
                        nonce_words[1], nonce_words[0]),
          round_keys[0]);
    }
#pragma GCC unroll 9
    for (int r = 1; r < Aes128::kRounds; ++r) {
#pragma GCC unroll 8
      for (size_t k = 0; k < N; ++k) {
        b[k] = _mm_aesenc_si128(b[k], round_keys[r]);
      }
    }
#pragma GCC unroll 8
    for (size_t k = 0; k < N; ++k) {
      b[k] = _mm_aesenclast_si128(b[k], round_keys[Aes128::kRounds]);
    }
  };
  constexpr size_t kLanes = 8;
  constexpr size_t kGroupBytes = kLanes * Aes128::kBlockSize;
  while (len > 0) {
    auto index = static_cast<uint32_t>(offset / Aes128::kBlockSize);
    size_t skip = offset % Aes128::kBlockSize;
    size_t take;
    if (skip == 0 && len >= kGroupBytes) {
      __m128i keystream[kLanes];
      encrypt(index, keystream);
      for (size_t k = 0; k < kLanes; ++k) {
        auto* p = reinterpret_cast<__m128i*>(data + k * Aes128::kBlockSize);
        _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream[k]));
      }
      take = kGroupBytes;
    } else {
      __m128i block[1];
      encrypt(index, block);
      uint8_t keystream[Aes128::kBlockSize];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), block[0]);
      take = std::min(len, Aes128::kBlockSize - skip);
      for (size_t i = 0; i < take; ++i) data[i] ^= keystream[skip + i];
    }
    data += take;
    len -= take;
    offset += take;
  }
#else
  scalar::Crypt(*this, data, len, offset);
#endif
}

namespace scalar {

void Crypt(const Aes128Ctr& ctr, uint8_t* data, size_t len, uint64_t offset) {
  uint8_t counter_block[16];
  uint8_t keystream[16];
  uint64_t block_index = offset / 16;
  size_t in_block = offset % 16;
  size_t produced = 0;
  while (produced < len) {
    std::memcpy(counter_block, ctr.nonce_.data(), 12);
    // 32-bit big-endian block counter (NIST SP 800-38A convention).
    counter_block[12] = static_cast<uint8_t>(block_index >> 24);
    counter_block[13] = static_cast<uint8_t>(block_index >> 16);
    counter_block[14] = static_cast<uint8_t>(block_index >> 8);
    counter_block[15] = static_cast<uint8_t>(block_index);
    ctr.cipher_.EncryptBlock(counter_block, keystream);
    for (; in_block < 16 && produced < len; ++in_block, ++produced) {
      data[produced] ^= keystream[in_block];
    }
    in_block = 0;
    ++block_index;
  }
}

}  // namespace scalar

}  // namespace ghostdb::crypto
