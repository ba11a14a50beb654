// SHA-256 (FIPS-180-4) and HMAC-SHA-256 (RFC 2104), from scratch.
// Used to authenticate sealed Hidden-data downloads onto the key and to
// derive the at-rest flash key.
//
// The compression function dispatches at compile time (see ARCHITECTURE.md,
// "Crypto kernels"): with __SHA__ it runs on the SHA-NI instructions,
// otherwise on scalar::Sha256Compress, the portable reference body. Both
// produce the same state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ghostdb::crypto {

/// FIPS 180-4 compression function: folds `n` consecutive 64-byte `blocks`
/// into the chaining `state`. Dispatched (SHA-NI when compiled in).
void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t n);

namespace scalar {

/// Portable reference body of Sha256Compress.
void Sha256Compress(uint32_t state[8], const uint8_t* blocks, size_t n);

}  // namespace scalar

/// \brief Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);

  /// Finalizes and writes the 32-byte digest. The hasher must not be reused
  /// afterwards without Reset().
  void Finish(uint8_t digest[kDigestSize]);

  /// Returns the hasher to its initial state.
  void Reset();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const uint8_t* data,
                                               size_t len);

  /// Hex rendering of a digest, for tests and tooling.
  static std::string ToHex(const uint8_t digest[kDigestSize]);

 private:
  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffered_ = 0;
  uint64_t total_len_ = 0;
};

/// \brief HMAC-SHA-256 message authentication code.
class HmacSha256 {
 public:
  static constexpr size_t kTagSize = 32;

  /// Keys of any length are accepted (hashed if > 64 bytes).
  HmacSha256(const uint8_t* key, size_t key_len);

  void Update(const uint8_t* data, size_t len);
  void Finish(uint8_t tag[kTagSize]);

  /// One-shot convenience.
  static std::array<uint8_t, kTagSize> Mac(const uint8_t* key, size_t key_len,
                                           const uint8_t* data, size_t len);

 private:
  Sha256 inner_;
  std::array<uint8_t, 64> opad_key_{};
};

}  // namespace ghostdb::crypto
