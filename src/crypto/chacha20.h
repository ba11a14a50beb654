// ChaCha20 stream cipher (RFC 8439), from scratch. Used for at-rest
// encryption of external NAND pages: pure ARX, so it is fast in portable
// scalar code and maps directly onto 32-bit vector lanes. AES-CTR remains in
// use for the sealed Hidden-data channel.
//
// Dispatch is compile-time (see ARCHITECTURE.md, "Crypto kernels"): with
// __AVX2__ the keystream is produced 8 blocks at a time in AVX2 lanes,
// otherwise by scalar::Crypt, the portable reference body. Both produce the
// same bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ghostdb::crypto {

class ChaCha20;

namespace scalar {

/// Portable reference body of ChaCha20::Crypt: one RFC 8439 block at a time.
void Crypt(const ChaCha20& cipher, uint8_t* data, size_t len,
           uint64_t offset);

}  // namespace scalar

/// \brief ChaCha20 keystream generator / stream cipher.
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  ChaCha20(const uint8_t key[kKeySize], const uint8_t nonce[kNonceSize]);

  /// XORs `len` bytes of keystream into `data` in place, starting at
  /// keystream byte `offset`, so any slice of a flash page can be
  /// (de)ciphered on its own. Byte `offset` lies in RFC 8439 block
  /// `offset / 64`; the 32-bit block counter wraps.
  void Crypt(uint8_t* data, size_t len, uint64_t offset = 0) const;

 private:
  friend void scalar::Crypt(const ChaCha20&, uint8_t*, size_t, uint64_t);

  // RFC 8439 input state: constants, key, block counter (word 12, filled
  // per block) and nonce.
  std::array<uint32_t, 16> state_;
};

}  // namespace ghostdb::crypto
