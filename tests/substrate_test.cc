// Tests for src/substrate: golden AES, checksums, LZ, matrix kernels.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/substrate/aes.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"
#include "src/substrate/matrix.h"

namespace mercurial {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// --- AES ---------------------------------------------------------------------------------

// FIPS-197 §5 transformations, byte by byte, built only from the public S-box and GF(2^8)
// multiply: the oracle the table-driven rounds and the word-wise key expansion must match.
void SpecSubBytes(AesBlock& s, uint8_t (*sub)(uint8_t)) {
  for (auto& b : s) {
    b = sub(b);
  }
}

// Row r rotates left by r columns (ShiftRows), or right when `inverse` (InvShiftRows).
void SpecShiftRows(AesBlock& s, bool inverse) {
  const AesBlock t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int shifted = r + 4 * ((c + r) % 4);
      if (inverse) {
        s[shifted] = t[r + 4 * c];
      } else {
        s[r + 4 * c] = t[shifted];
      }
    }
  }
}

// Multiplies every column by the circulant matrix whose first row is `row`.
void SpecMixColumns(AesBlock& s, const uint8_t (&row)[4]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t column[4] = {};
    for (int r = 0; r < 4; ++r) {
      for (int j = 0; j < 4; ++j) {
        column[r] ^= AesGfMul(row[(j - r + 4) % 4], s[j + 4 * c]);
      }
    }
    std::memcpy(&s[4 * c], column, 4);
  }
}

void SpecAddRoundKey(AesBlock& s, const AesBlock& k) {
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= k[i];
  }
}

AesBlock SpecEncRound(AesBlock s, const AesBlock& k, bool last) {
  SpecSubBytes(s, AesSubByte);
  SpecShiftRows(s, /*inverse=*/false);
  if (!last) {
    SpecMixColumns(s, {0x02, 0x03, 0x01, 0x01});
  }
  SpecAddRoundKey(s, k);
  return s;
}

AesBlock SpecDecRound(AesBlock s, const AesBlock& k, bool last) {
  SpecAddRoundKey(s, k);
  if (!last) {
    SpecMixColumns(s, {0x0e, 0x0b, 0x0d, 0x09});
  }
  SpecShiftRows(s, /*inverse=*/true);
  SpecSubBytes(s, AesInvSubByte);
  return s;
}

// KeyExpansion (§5.2) on bytes: w[i] = w[i-4] ^ SubWord(RotWord(w[i-1])) ^ Rcon when i % 4 == 0.
AesKeySchedule SpecKeyExpansion(const uint8_t key[kAesKeyBytes], const AesRconArray& rcon) {
  uint8_t w[4 * 4 * (kAesRounds + 1)];
  std::memcpy(w, key, kAesKeyBytes);
  for (int i = 4; i < 4 * (kAesRounds + 1); ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &w[4 * (i - 1)], 4);
    if (i % 4 == 0) {
      const uint8_t first = temp[0];
      temp[0] = static_cast<uint8_t>(AesSubByte(temp[1]) ^ rcon[i / 4 - 1]);
      temp[1] = AesSubByte(temp[2]);
      temp[2] = AesSubByte(temp[3]);
      temp[3] = AesSubByte(first);
    }
    for (int b = 0; b < 4; ++b) {
      w[4 * i + b] = static_cast<uint8_t>(w[4 * (i - 4) + b] ^ temp[b]);
    }
  }
  AesKeySchedule schedule;
  for (int r = 0; r <= kAesRounds; ++r) {
    std::memcpy(schedule.round_keys[r].data(), &w[16 * r], 16);
  }
  return schedule;
}

AesRconArray StandardRcons() {
  AesRconArray rcon{};
  for (int r = 1; r <= kAesRounds; ++r) {
    rcon[r - 1] = StandardAesRcon(r);
  }
  return rcon;
}

TEST(AesTest, Fips197AppendixBVector) {
  // FIPS-197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
  // plaintext 3243f6a8885a308d313198a2e0370734 -> ciphertext 3925841d02dc09fbdc118597196a0b32.
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesBlock plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                              0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const AesBlock expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                             0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_EQ(AesEncryptBlock(schedule, plaintext), expected);
  EXPECT_EQ(AesDecryptBlock(schedule, expected), plaintext);
}

TEST(AesTest, Fips197AppendixCVector) {
  // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233445566778899aabbccddeeff.
  uint8_t key[16];
  AesBlock plaintext;
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<uint8_t>(i);
    plaintext[i] = static_cast<uint8_t>(0x11 * i);
  }
  const AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_EQ(AesEncryptBlock(schedule, plaintext), expected);
  EXPECT_EQ(AesDecryptBlock(schedule, expected), plaintext);
}

TEST(AesTest, KeyExpansionFirstAndLastRoundKeys) {
  // FIPS-197 Appendix A key expansion for 2b7e1516...: w[40..43] = d014f9a8 c9ee2589 e13f0cc8
  // b6630ca6.
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesKeySchedule schedule = ExpandAesKey(key);
  EXPECT_TRUE(std::memcmp(schedule.round_keys[0].data(), key, 16) == 0);
  const AesBlock last = {0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89,
                         0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63, 0x0c, 0xa6};
  EXPECT_EQ(schedule.round_keys[10], last);
}

TEST(AesTest, RoundTripProperty) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    uint8_t key[16];
    rng.FillBytes(key, 16);
    AesBlock block;
    rng.FillBytes(block.data(), block.size());
    const AesKeySchedule schedule = ExpandAesKey(key);
    EXPECT_EQ(AesDecryptBlock(schedule, AesEncryptBlock(schedule, block)), block);
  }
}

TEST(AesTest, DecRoundInvertsEncRound) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    AesBlock state;
    AesBlock round_key;
    rng.FillBytes(state.data(), state.size());
    rng.FillBytes(round_key.data(), round_key.size());
    for (bool last : {false, true}) {
      EXPECT_EQ(AesDecRound(AesEncRound(state, round_key, last), round_key, last), state);
    }
  }
}

TEST(AesTest, RoundsMatchFips197Transformations) {
  Rng rng(5);
  for (int trial = 0; trial < 100000; ++trial) {
    AesBlock state;
    AesBlock round_key;
    rng.FillBytes(state.data(), state.size());
    rng.FillBytes(round_key.data(), round_key.size());
    const bool last = (rng.NextU64() & 1) != 0;
    ASSERT_EQ(AesEncRound(state, round_key, last), SpecEncRound(state, round_key, last))
        << "trial " << trial << " last " << last;
    ASSERT_EQ(AesDecRound(state, round_key, last), SpecDecRound(state, round_key, last))
        << "trial " << trial << " last " << last;
  }
}

TEST(AesTest, Fips197AppendixBRoundOne) {
  // FIPS-197 Appendix B: the start of round 1 with round key 1 gives the start of round 2.
  const AesBlock round1 = {0x19, 0x3d, 0xe3, 0xbe, 0xa0, 0xf4, 0xe2, 0x2b,
                           0x9a, 0xc6, 0x8d, 0x2a, 0xe9, 0xf8, 0x48, 0x08};
  const AesBlock key1 = {0xa0, 0xfa, 0xfe, 0x17, 0x88, 0x54, 0x2c, 0xb1,
                         0x23, 0xa3, 0x39, 0x39, 0x2a, 0x6c, 0x76, 0x05};
  const AesBlock round2 = {0xa4, 0x9c, 0x7f, 0xf2, 0x68, 0x9f, 0x35, 0x2b,
                           0x6b, 0x5b, 0xea, 0x43, 0x02, 0x6a, 0x50, 0x49};
  EXPECT_EQ(AesEncRound(round1, key1, /*last=*/false), round2);
  EXPECT_EQ(AesDecRound(round2, key1, /*last=*/false), round1);
}

TEST(AesTest, KeyExpansionMatchesByteWiseSpec) {
  Rng rng(6);
  for (int trial = 0; trial < 1000; ++trial) {
    uint8_t key[kAesKeyBytes];
    rng.FillBytes(key, sizeof(key));
    AesRconArray rcon{};
    rng.FillBytes(rcon.data(), rcon.size());
    EXPECT_EQ(ExpandAesKey(key, rcon).round_keys, SpecKeyExpansion(key, rcon).round_keys)
        << "trial " << trial;
    EXPECT_EQ(ExpandAesKey(key).round_keys, SpecKeyExpansion(key, StandardRcons()).round_keys)
        << "trial " << trial;
  }
}

TEST(AesTest, SboxIsABijectionAndInverseMatches) {
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 256; ++i) {
    const uint8_t s = AesSubByte(static_cast<uint8_t>(i));
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
    EXPECT_EQ(AesInvSubByte(s), i);
  }
}

TEST(AesTest, KnownSboxEntries) {
  EXPECT_EQ(AesSubByte(0x00), 0x63);
  EXPECT_EQ(AesSubByte(0x53), 0xed);
  EXPECT_EQ(AesSubByte(0xff), 0x16);
}

TEST(AesTest, GfMulProperties) {
  // Identity and known products from FIPS-197 §4.2: {57}*{83} = {c1}, {57}*{13} = {fe}.
  EXPECT_EQ(AesGfMul(0x57, 0x01), 0x57);
  EXPECT_EQ(AesGfMul(0x57, 0x83), 0xc1);
  EXPECT_EQ(AesGfMul(0x57, 0x13), 0xfe);
  // Commutativity.
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    EXPECT_EQ(AesGfMul(a, b), AesGfMul(b, a));
  }
}

TEST(AesTest, StandardRconSequence) {
  const uint8_t expected[10] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36};
  for (int r = 1; r <= 10; ++r) {
    EXPECT_EQ(StandardAesRcon(r), expected[r - 1]) << "round " << r;
  }
}

TEST(AesTest, CorruptedRconChangesScheduleDeterministically) {
  uint8_t key[16] = {};
  const AesKeySchedule golden = ExpandAesKey(key);
  AesRconArray bad_rcon = StandardRcons();
  for (auto& rcon : bad_rcon) {
    rcon ^= 0x10;
  }
  const AesKeySchedule bad1 = ExpandAesKey(key, bad_rcon);
  const AesKeySchedule bad2 = ExpandAesKey(key, bad_rcon);
  EXPECT_NE(bad1.round_keys[10], golden.round_keys[10]);
  EXPECT_EQ(bad1.round_keys[10], bad2.round_keys[10]);
  // Enc/dec with the same wrong schedule is still the identity (self-inverting).
  AesBlock block = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(AesDecryptBlock(bad1, AesEncryptBlock(bad1, block)), block);
  // But the ciphertext differs from spec.
  EXPECT_NE(AesEncryptBlock(bad1, block), AesEncryptBlock(golden, block));
}

TEST(AesTest, CtrRoundTripAndSymmetry) {
  Rng rng(4);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  const AesKeySchedule schedule = ExpandAesKey(key);
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    std::vector<uint8_t> data(n);
    rng.FillBytes(data.data(), n);
    const std::vector<uint8_t> ct = AesCtrTransform(schedule, 99, data);
    EXPECT_EQ(ct.size(), n);
    EXPECT_EQ(AesCtrTransform(schedule, 99, ct), data);
    if (n >= 16) {
      EXPECT_NE(ct, data);  // keystream actually applied
    }
  }
}

TEST(AesTest, CtrNonceSeparation) {
  uint8_t key[16] = {1};
  const AesKeySchedule schedule = ExpandAesKey(key);
  const std::vector<uint8_t> data(64, 0xAA);
  EXPECT_NE(AesCtrTransform(schedule, 1, data), AesCtrTransform(schedule, 2, data));
}

// --- Checksums ----------------------------------------------------------------------------

TEST(ChecksumTest, Crc32KnownVector) {
  const auto data = Bytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(ChecksumTest, Crc32EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(ChecksumTest, Crc32IncrementalMatchesOneShot) {
  const auto data = Bytes("the quick brown fox jumps over the lazy dog");
  uint32_t crc = Crc32Init();
  for (uint8_t b : data) {
    crc = Crc32Update(crc, b);
  }
  EXPECT_EQ(Crc32Final(crc), Crc32(data));
}

// The byte-at-a-time fold: the reference every multi-byte CRC-32 path must equal.
uint32_t Crc32ByteFold(uint32_t crc, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = Crc32Update(crc, data[i]);
  }
  return crc;
}

TEST(ChecksumTest, Crc32ExtendMatchesByteFoldAtEveryLengthAndAlignment) {
  Rng rng(25);
  std::vector<uint8_t> buffer(300 + 7);
  rng.FillBytes(buffer.data(), buffer.size());
  for (uint32_t initial : {Crc32Init(), 0u, 0x12345678u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      for (size_t n = 0; n <= 300; ++n) {
        ASSERT_EQ(Crc32Extend(initial, data, n), Crc32ByteFold(initial, data, n))
            << "initial " << initial << ", offset " << offset << ", length " << n;
      }
    }
  }
}

TEST(ChecksumTest, Crc32ExtendChainsOverEverySplit) {
  Rng rng(26);
  std::vector<uint8_t> data(300);
  rng.FillBytes(data.data(), data.size());
  const uint32_t whole = Crc32Extend(Crc32Init(), data.data(), data.size());
  EXPECT_EQ(Crc32Final(whole), Crc32(data));
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32Extend(Crc32Init(), data.data(), split);
    ASSERT_EQ(Crc32Extend(head, data.data() + split, data.size() - split), whole)
        << "split at " << split;
  }
}

TEST(ChecksumTest, Crc32DetectsSingleBitFlip) {
  Rng rng(5);
  std::vector<uint8_t> data(256);
  rng.FillBytes(data.data(), data.size());
  const uint32_t original = Crc32(data);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> mutated = data;
    const size_t bit = rng.UniformInt(0, data.size() * 8 - 1);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(mutated), original);
  }
}

TEST(ChecksumTest, Crc64KnownVector) {
  const auto data = Bytes("123456789");
  // CRC-64/XZ (reflected ECMA-182, init/xorout all-ones).
  EXPECT_EQ(Crc64(data.data(), data.size()), 0x995DC9BBDF1939FAull);
}

TEST(ChecksumTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const auto a = Bytes("a");
  EXPECT_EQ(Fnv1a64(a.data(), 1), 0xaf63dc4c8601ec8cull);
}

TEST(ChecksumTest, ContentHashDiscriminates) {
  const auto a = Bytes("hello world");
  auto b = Bytes("hello worle");
  EXPECT_NE(ContentHash64(a.data(), a.size()), ContentHash64(b.data(), b.size()));
  EXPECT_EQ(ContentHash64(a.data(), a.size()), ContentHash64(a.data(), a.size()));
  // Length-sensitivity.
  EXPECT_NE(ContentHash64(a.data(), a.size()), ContentHash64(a.data(), a.size() - 1));
}

TEST(ChecksumTest, MultisetDigestIsOrderInvariant) {
  std::vector<uint64_t> items{5, 1, 9, 9, 3};
  std::vector<uint64_t> shuffled{9, 3, 5, 9, 1};
  EXPECT_EQ(MultisetDigest(items.data(), items.size()),
            MultisetDigest(shuffled.data(), shuffled.size()));
  std::vector<uint64_t> different{9, 3, 5, 9, 2};
  EXPECT_NE(MultisetDigest(items.data(), items.size()),
            MultisetDigest(different.data(), different.size()));
}

// --- LZ -----------------------------------------------------------------------------------

class LzRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LzRoundTripTest, RandomData) {
  Rng rng(100 + GetParam());
  std::vector<uint8_t> data(GetParam());
  rng.FillBytes(data.data(), data.size());
  const auto compressed = LzCompress(data);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
}

TEST_P(LzRoundTripTest, RepetitiveData) {
  std::vector<uint8_t> data;
  const std::string pattern = "abcabcabcXYZ";
  while (data.size() < GetParam()) {
    data.insert(data.end(), pattern.begin(), pattern.end());
  }
  data.resize(GetParam());
  const auto compressed = LzCompress(data);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
  if (GetParam() >= 256) {
    EXPECT_LT(compressed.size(), data.size() / 2) << "repetitive data should compress well";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzRoundTripTest,
                         ::testing::Values(0, 1, 3, 4, 5, 16, 64, 127, 128, 129, 255, 1024,
                                           4096, 65536));

TEST(LzTest, RunLengthEncodingViaOverlap) {
  std::vector<uint8_t> data(1000, 0x42);  // a single repeated byte
  const auto compressed = LzCompress(data);
  EXPECT_LT(compressed.size(), 40u);
  const auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzTest, DecompressRejectsTruncatedLiteralRun) {
  std::vector<uint8_t> bad{10, 'a', 'b'};  // promises 11 literals, provides 2
  const auto result = LzDecompress(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(LzTest, DecompressRejectsTruncatedMatchToken) {
  std::vector<uint8_t> bad{0x80};  // match token without offset bytes
  EXPECT_FALSE(LzDecompress(bad).ok());
}

TEST(LzTest, DecompressRejectsBadOffset) {
  // Literal 'a', then a match reaching back 5 bytes into 1 byte of history.
  std::vector<uint8_t> bad{0x00, 'a', 0x80, 0x05, 0x00};
  const auto result = LzDecompress(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(LzTest, DecompressRejectsZeroOffset) {
  std::vector<uint8_t> bad{0x00, 'a', 0x80, 0x00, 0x00};
  EXPECT_FALSE(LzDecompress(bad).ok());
}

TEST(LzTest, EmptyInput) {
  const auto compressed = LzCompress({});
  EXPECT_TRUE(compressed.empty());
  const auto decompressed = LzDecompress({});
  ASSERT_TRUE(decompressed.ok());
  EXPECT_TRUE(decompressed->empty());
}

// --- Matrix -------------------------------------------------------------------------------

TEST(MatrixTest, IdentityMultiply) {
  Rng rng(6);
  Matrix a(5, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      a.at(i, j) = rng.NextDouble();
    }
  }
  const Matrix product = Multiply(a, Matrix::Identity(5));
  EXPECT_DOUBLE_EQ(product.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, KnownProduct) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;
  b.at(0, 1) = 8;
  b.at(1, 0) = 9;
  b.at(1, 1) = 10;
  b.at(2, 0) = 11;
  b.at(2, 1) = 12;
  const Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, LuReconstructsPivotedInput) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 4u, 8u, 16u}) {
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        a.at(i, j) = rng.NextDouble() * 2.0 - 1.0;
      }
      a.at(i, i) += 2.0;  // keep it comfortably nonsingular
    }
    const auto factors = LuFactorize(a);
    ASSERT_TRUE(factors.ok()) << "n=" << n;
    const Matrix reconstructed = LuReconstruct(*factors);
    const Matrix pivoted = PermuteRows(a, factors->pivots);
    EXPECT_LT(reconstructed.MaxAbsDiff(pivoted), 1e-9) << "n=" << n;
  }
}

TEST(MatrixTest, LuLowerIsUnitTriangularUpperIsTriangular) {
  Rng rng(8);
  Matrix a(6, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      a.at(i, j) = rng.NextDouble() + (i == j ? 3.0 : 0.0);
    }
  }
  const auto factors = LuFactorize(a);
  ASSERT_TRUE(factors.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(factors->lower.at(i, i), 1.0);
    for (size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(factors->lower.at(i, j), 0.0);
    }
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(factors->upper.at(i, j), 0.0, 1e-12);
    }
  }
}

TEST(MatrixTest, LuRejectsSingular) {
  Matrix a(3, 3);  // all zeros
  EXPECT_FALSE(LuFactorize(a).ok());
  // Rank-1 matrix.
  Matrix b(2, 2);
  b.at(0, 0) = 1;
  b.at(0, 1) = 2;
  b.at(1, 0) = 2;
  b.at(1, 1) = 4;
  EXPECT_FALSE(LuFactorize(b).ok());
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a(2, 2);
  a.at(0, 0) = 3;
  a.at(1, 1) = 4;
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

}  // namespace
}  // namespace mercurial
