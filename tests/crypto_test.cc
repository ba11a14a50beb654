// Crypto substrate tests: FIPS-197 / SP 800-38A / FIPS-180-4 / RFC 4231 /
// RFC 8439 known-answer vectors, roundtrip and tamper properties, and the
// dispatched (vector) kernels cross-checked against the crypto::scalar
// reference bodies on random data.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/hash.h"
#include "crypto/secure_channel.h"
#include "crypto/sha256.h"

namespace ghostdb::crypto {
namespace {

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

// --- AES-128 (FIPS-197 Appendix C.1 and SP 800-38A F.1.1) ---

TEST(Aes128Test, Fips197AppendixC1) {
  auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  auto plain = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key.data());
  std::vector<uint8_t> cipher(16);
  aes.EncryptBlock(plain.data(), cipher.data());
  EXPECT_EQ(ToHex(cipher), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, Sp80038aEcbVector) {
  auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  auto plain = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key.data());
  std::vector<uint8_t> cipher(16);
  aes.EncryptBlock(plain.data(), cipher.data());
  EXPECT_EQ(ToHex(cipher), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128Test, DecryptInvertsEncrypt) {
  Rng rng(42);
  uint8_t key[16], block[16], restored[16];
  for (int round = 0; round < 50; ++round) {
    for (auto& b : key) b = static_cast<uint8_t>(rng.Next());
    for (auto& b : block) b = static_cast<uint8_t>(rng.Next());
    Aes128 aes(key);
    uint8_t cipher[16];
    aes.EncryptBlock(block, cipher);
    aes.DecryptBlock(cipher, restored);
    EXPECT_EQ(std::memcmp(block, restored, 16), 0);
  }
}

TEST(Aes128Test, EncryptInPlaceAliasing) {
  auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  auto block = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key.data());
  aes.EncryptBlock(block.data(), block.data());
  EXPECT_EQ(ToHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// --- AES-128-CTR (SP 800-38A F.5.1) ---

TEST(Aes128CtrTest, Sp80038aCtrFirstBlock) {
  // SP 800-38A F.5.1 uses a full 16-byte initial counter block
  // f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff; our nonce is its first 12 bytes and
  // the starting counter its last 4 (0xfcfdfeff). We reproduce that by
  // seeking to block offset 0xfcfdfeff via the offset parameter.
  auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  auto nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafb");
  auto plain = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes128Ctr ctr(key.data(), nonce.data());
  uint64_t start = 0xfcfdfeffull * 16;
  ctr.Crypt(plain.data(), plain.size(), start);
  EXPECT_EQ(ToHex(plain), "874d6191b620e3261bef6864990db6ce");
}

TEST(Aes128CtrTest, CryptIsItsOwnInverse) {
  auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  auto nonce = FromHex("000000000000000000000001");
  Aes128Ctr ctr(key.data(), nonce.data());
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  auto original = data;
  ctr.Crypt(data.data(), data.size());
  EXPECT_NE(data, original);
  ctr.Crypt(data.data(), data.size());
  EXPECT_EQ(data, original);
}

TEST(Aes128CtrTest, OffsetCryptMatchesFullStream) {
  auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  auto nonce = FromHex("0102030405060708090a0b0c");
  Aes128Ctr ctr(key.data(), nonce.data());
  std::vector<uint8_t> whole(256, 0);
  ctr.Crypt(whole.data(), whole.size(), 0);
  // Decrypting a middle slice with the matching offset must align.
  std::vector<uint8_t> slice(33, 0);
  ctr.Crypt(slice.data(), slice.size(), 77);
  for (size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i], whole[77 + i]) << "at " << i;
  }
}

// --- SHA-256 (FIPS-180-4) ---

TEST(Sha256Test, EmptyString) {
  auto d = Sha256::Hash(nullptr, 0);
  EXPECT_EQ(Sha256::ToHex(d.data()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const char* msg = "abc";
  auto d = Sha256::Hash(reinterpret_cast<const uint8_t*>(msg), 3);
  EXPECT_EQ(Sha256::ToHex(d.data()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  auto d = Sha256::Hash(reinterpret_cast<const uint8_t*>(msg),
                        std::strlen(msg));
  EXPECT_EQ(Sha256::ToHex(d.data()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk.data(), chunk.size());
  uint8_t digest[Sha256::kDigestSize];
  hasher.Finish(digest);
  EXPECT_EQ(Sha256::ToHex(digest),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(7777);
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  auto oneshot = Sha256::Hash(data.data(), data.size());
  Sha256 hasher;
  size_t off = 0;
  size_t steps[] = {1, 63, 64, 65, 1000, 6584};
  for (size_t s : steps) {
    hasher.Update(data.data() + off, s);
    off += s;
  }
  ASSERT_EQ(off, data.size());
  uint8_t digest[32];
  hasher.Finish(digest);
  EXPECT_EQ(std::memcmp(digest, oneshot.data(), 32), 0);
}

// --- HMAC-SHA-256 (RFC 4231) ---

TEST(HmacSha256Test, Rfc4231Case1) {
  auto key = FromHex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const char* msg = "Hi There";
  auto tag = HmacSha256::Mac(key.data(), key.size(),
                             reinterpret_cast<const uint8_t*>(msg), 8);
  EXPECT_EQ(Sha256::ToHex(tag.data()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  const char* key = "Jefe";
  const char* msg = "what do ya want for nothing?";
  auto tag = HmacSha256::Mac(reinterpret_cast<const uint8_t*>(key), 4,
                             reinterpret_cast<const uint8_t*>(msg),
                             std::strlen(msg));
  EXPECT_EQ(Sha256::ToHex(tag.data()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, LongKeyIsHashed) {
  std::vector<uint8_t> key(131, 0xaa);  // RFC 4231 case 6
  const char* msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  auto tag = HmacSha256::Mac(key.data(), key.size(),
                             reinterpret_cast<const uint8_t*>(msg),
                             std::strlen(msg));
  EXPECT_EQ(Sha256::ToHex(tag.data()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- ChaCha20 (RFC 8439) ---

TEST(ChaCha20Test, Rfc8439Section231KeystreamViaZeroPlaintext) {
  // RFC 8439 2.4.2 test vector: sunscreen plaintext, counter starts at 1,
  // i.e. keystream byte 64.
  auto key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = FromHex("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<uint8_t> data(plaintext.begin(), plaintext.end());
  ChaCha20 cipher(key.data(), nonce.data());
  cipher.Crypt(data.data(), data.size(), /*offset=*/64);
  EXPECT_EQ(ToHex(std::vector<uint8_t>(data.begin(), data.begin() + 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(ToHex(std::vector<uint8_t>(data.end() - 8, data.end())),
            "8eedf2785e42874d");
}

TEST(ChaCha20Test, RoundTrips) {
  auto key = FromHex(
      "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef");
  auto nonce = FromHex("0123456789ab0123456789ab");
  ChaCha20 cipher(key.data(), nonce.data());
  std::vector<uint8_t> data(5000);
  Rng rng(11);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  auto original = data;
  cipher.Crypt(data.data(), data.size(), 7);
  EXPECT_NE(data, original);
  cipher.Crypt(data.data(), data.size(), 7);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20Test, DistinctNoncesGiveDistinctStreams) {
  auto key = FromHex(
      "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef");
  auto n1 = FromHex("000000000000000000000001");
  auto n2 = FromHex("000000000000000000000002");
  std::vector<uint8_t> a(64, 0), b(64, 0);
  ChaCha20(key.data(), n1.data()).Crypt(a.data(), a.size());
  ChaCha20(key.data(), n2.data()).Crypt(b.data(), b.size());
  EXPECT_NE(a, b);
}

// --- Dispatched kernels vs the crypto::scalar reference bodies ---
//
// The known-answer vectors above are at most 114 bytes, so they never reach
// an 8-block vector step; these sweeps do, at every length and alignment.

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

// Lengths 0..1100 plus page multiples up to 8 KiB (and one byte either side).
std::vector<size_t> SweepLengths() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (size_t n = 2048; n <= 8192; n += 2048) {
    lengths.insert(lengths.end(), {n - 1, n, n + 1});
  }
  return lengths;
}

// Runs `kernel` and `reference` over the same random bytes at `offset` and
// expects identical output.
template <typename Kernel, typename Reference>
void ExpectSameStream(Kernel kernel, Reference reference, Rng& rng,
                      size_t len, uint64_t offset) {
  auto got = RandomBytes(rng, len);
  auto want = got;
  kernel(got.data(), got.size(), offset);
  reference(want.data(), want.size(), offset);
  ASSERT_EQ(got, want) << "len " << len << " offset " << offset;
}

TEST(KernelCrossCheckTest, ChaCha20MatchesScalarAtEveryLengthAndOffset) {
  Rng rng(2024);
  auto key = RandomBytes(rng, ChaCha20::kKeySize);
  auto nonce = RandomBytes(rng, ChaCha20::kNonceSize);
  ChaCha20 cipher(key.data(), nonce.data());
  auto kernel = [&](uint8_t* d, size_t n, uint64_t off) {
    cipher.Crypt(d, n, off);
  };
  auto reference = [&](uint8_t* d, size_t n, uint64_t off) {
    scalar::Crypt(cipher, d, n, off);
  };
  for (size_t len : SweepLengths()) {
    ExpectSameStream(kernel, reference, rng, len, 0);
    ExpectSameStream(kernel, reference, rng, len, rng.Next() % 4096);
  }
  // Block counters across the 2^32 wrap, aligned and unaligned.
  const uint64_t near_wrap = (uint64_t{1} << 32) - 3;
  for (uint64_t skip : {0, 1, 63}) {
    ExpectSameStream(kernel, reference, rng, 2048,
                     near_wrap * ChaCha20::kBlockSize + skip);
  }
}

TEST(KernelCrossCheckTest, AesCtrMatchesScalarAtEveryLengthAndOffset) {
  Rng rng(2025);
  auto key = RandomBytes(rng, Aes128::kKeySize);
  auto nonce = RandomBytes(rng, 12);
  Aes128Ctr ctr(key.data(), nonce.data());
  auto kernel = [&](uint8_t* d, size_t n, uint64_t off) {
    ctr.Crypt(d, n, off);
  };
  auto reference = [&](uint8_t* d, size_t n, uint64_t off) {
    scalar::Crypt(ctr, d, n, off);
  };
  for (size_t len : SweepLengths()) {
    ExpectSameStream(kernel, reference, rng, len, 0);
    ExpectSameStream(kernel, reference, rng, len, rng.Next() % 4096);
  }
  const uint64_t near_wrap = (uint64_t{1} << 32) - 3;
  for (uint64_t skip : {0, 1, 15}) {
    ExpectSameStream(kernel, reference, rng, 2048,
                     near_wrap * Aes128::kBlockSize + skip);
  }
}

TEST(KernelCrossCheckTest, Sha256CompressMatchesScalar) {
  Rng rng(2026);
  for (size_t blocks = 0; blocks <= 33; ++blocks) {
    auto data = RandomBytes(rng, blocks * 64);
    uint32_t got[8], want[8];
    for (int i = 0; i < 8; ++i) got[i] = want[i] = static_cast<uint32_t>(rng.Next());
    Sha256Compress(got, data.data(), blocks);
    scalar::Sha256Compress(want, data.data(), blocks);
    ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0) << blocks << " blocks";
  }
}

TEST(KernelCrossCheckTest, Sha256OneShotMatchesBytewiseAtEveryLength) {
  // One-shot Update hashes whole blocks straight from the input; feeding
  // single bytes goes through the buffer every time.
  Rng rng(2027);
  for (size_t len : SweepLengths()) {
    auto data = RandomBytes(rng, len);
    auto oneshot = Sha256::Hash(data.data(), data.size());
    Sha256 bytewise;
    for (uint8_t b : data) bytewise.Update(&b, 1);
    uint8_t digest[Sha256::kDigestSize];
    bytewise.Finish(digest);
    ASSERT_EQ(std::memcmp(digest, oneshot.data(), sizeof(digest)), 0)
        << "len " << len;
  }
}

// --- Sealed channel ---

TEST(SecureChannelTest, SealOpenRoundTrip) {
  uint8_t master[] = "correct horse battery staple";
  auto keys = DeviceKeys::Derive(master, sizeof(master) - 1);
  std::vector<uint8_t> secret = {1, 2, 3, 42, 255, 0, 9};
  auto blob = Seal(keys, secret, /*nonce_seed=*/7);
  auto opened = Open(keys, blob);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, secret);
}

TEST(SecureChannelTest, TamperedCiphertextRejected) {
  uint8_t master[] = "master";
  auto keys = DeviceKeys::Derive(master, 6);
  std::vector<uint8_t> secret(100, 0x5A);
  auto blob = Seal(keys, secret, 1);
  blob.bytes[20] ^= 0x01;
  EXPECT_TRUE(Open(keys, blob).status().IsCorruption());
}

TEST(SecureChannelTest, TruncatedBlobRejected) {
  uint8_t master[] = "master";
  auto keys = DeviceKeys::Derive(master, 6);
  auto blob = Seal(keys, {1, 2, 3}, 1);
  blob.bytes.resize(10);
  EXPECT_TRUE(Open(keys, blob).status().IsCorruption());
}

TEST(SecureChannelTest, WrongKeysRejected) {
  uint8_t m1[] = "alpha", m2[] = "bravo";
  auto k1 = DeviceKeys::Derive(m1, 5);
  auto k2 = DeviceKeys::Derive(m2, 5);
  auto blob = Seal(k1, {9, 9, 9}, 3);
  EXPECT_TRUE(Open(k2, blob).status().IsCorruption());
}

TEST(SecureChannelTest, CiphertextHidesPlaintext) {
  uint8_t master[] = "k";
  auto keys = DeviceKeys::Derive(master, 1);
  std::vector<uint8_t> zeros(64, 0);
  auto blob = Seal(keys, zeros, 5);
  // The ciphertext region must not be all zeros.
  bool all_zero = true;
  for (size_t i = 12; i < 12 + 64; ++i) all_zero &= (blob.bytes[i] == 0);
  EXPECT_FALSE(all_zero);
}

TEST(SecureChannelTest, EmptyPlaintext) {
  uint8_t master[] = "k";
  auto keys = DeviceKeys::Derive(master, 1);
  auto blob = Seal(keys, {}, 5);
  auto opened = Open(keys, blob);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// --- Bloom hashing ---

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip ~half the output bits on average.
  int total_flips = 0;
  for (uint64_t x = 1; x < 100; ++x) {
    uint64_t h1 = Mix64(x);
    uint64_t h2 = Mix64(x ^ 1);
    total_flips += __builtin_popcountll(h1 ^ h2);
  }
  double avg = total_flips / 99.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, SeedsAreIndependent) {
  EXPECT_NE(HashId(12345, 1), HashId(12345, 2));
  uint8_t data[] = {1, 2, 3};
  EXPECT_NE(HashBytes(data, 3, 1), HashBytes(data, 3, 2));
}

}  // namespace
}  // namespace ghostdb::crypto
