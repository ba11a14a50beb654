// AES-128 block cipher (FIPS-197), implemented from scratch.
//
// GhostDB needs it because the multi-gigabyte NAND chip sits *outside* the
// tamper-resistant secure chip (paper Fig 2): everything written to external
// flash must be encrypted, and Hidden data arrives on the key through a
// sealed channel (paper section 2.1).
//
// The block cipher is a straightforward software implementation whose
// SubBytes step indexes a 256-byte S-box, so its timing depends on the data
// through the cache. Aes128Ctr, which carries all bulk traffic, dispatches at
// compile time (see ARCHITECTURE.md, "Crypto kernels"): with __AES__ it runs
// eight counter blocks interleaved through AES-NI, which is table-free and
// constant-time; otherwise scalar::Crypt, the portable reference body built
// on Aes128::EncryptBlock. Both produce the same bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace ghostdb::crypto {

class Aes128Ctr;

namespace scalar {

/// Portable reference body of Aes128Ctr::Crypt: one Aes128::EncryptBlock per
/// 16-byte counter block.
void Crypt(const Aes128Ctr& ctr, uint8_t* data, size_t len, uint64_t offset);

}  // namespace scalar

/// \brief AES-128 block cipher. Encrypts/decrypts single 16-byte blocks.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  /// Expands `key` (16 bytes) into the round-key schedule.
  explicit Aes128(const uint8_t key[kKeySize]);

  /// Encrypts one 16-byte block: `out` may alias `in`.
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Decrypts one 16-byte block: `out` may alias `in`.
  void DecryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

 private:
  friend class Aes128Ctr;

  // Round keys: (kRounds + 1) x 16 bytes, expanded once in the constructor.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> round_keys_{};
};

/// \brief AES-128 in counter (CTR) mode: a stream cipher. Encryption and
/// decryption are the same operation.
///
/// The 16-byte initial counter block is formed from a 12-byte nonce plus a
/// 32-bit big-endian block counter starting at 0.
class Aes128Ctr {
 public:
  Aes128Ctr(const uint8_t key[Aes128::kKeySize], const uint8_t nonce[12]);

  /// XORs `len` bytes of keystream into `data` in place, starting at
  /// keystream offset `offset` (so pages can be (de)ciphered independently).
  /// Byte `offset` lies in counter block `offset / 16`; the 32-bit counter
  /// wraps.
  void Crypt(uint8_t* data, size_t len, uint64_t offset = 0) const;

 private:
  friend void scalar::Crypt(const Aes128Ctr&, uint8_t*, size_t, uint64_t);

  Aes128 cipher_;
  std::array<uint8_t, 12> nonce_{};
};

}  // namespace ghostdb::crypto
