#include "src/substrate/aes.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/logging.h"

namespace mercurial {
namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr AesRconArray kStandardRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                        0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t result = 0;
  for (; b != 0; b >>= 1) {
    if (b & 1) {
      result ^= a;
    }
    a = static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));  // xtime
  }
  return result;
}

// A state column or key word packed little-endian: byte r of the word is row r. Every table
// below is indexed by one state byte and yields that byte's contribution to a whole column.
constexpr uint32_t PackColumn(uint8_t b0, uint8_t b1, uint8_t b2, uint8_t b3) {
  return uint32_t{b0} | uint32_t{b1} << 8 | uint32_t{b2} << 16 | uint32_t{b3} << 24;
}

// Row r of a packed column.
constexpr uint8_t Row(uint32_t w, int r) { return static_cast<uint8_t>(w >> (8 * r)); }

constexpr std::array<uint8_t, 256> kInvSbox = [] {
  std::array<uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    table[kSbox[i]] = static_cast<uint8_t>(i);
  }
  return table;
}();

// kTe[x]: MixColumns of the column (S[x], 0, 0, 0). A byte in row r contributes the same word
// rotated left by 8*r bits, so one table serves all four rows.
constexpr std::array<uint32_t, 256> kTe = [] {
  std::array<uint32_t, 256> table{};
  for (int x = 0; x < 256; ++x) {
    const uint8_t s = kSbox[x];
    table[x] = PackColumn(GfMul(s, 2), s, s, GfMul(s, 3));
  }
  return table;
}();

// kInvMix[x]: InvMixColumns of the column (x, 0, 0, 0), rotated per row like kTe.
constexpr std::array<uint32_t, 256> kInvMix = [] {
  std::array<uint32_t, 256> table{};
  for (int x = 0; x < 256; ++x) {
    const auto b = static_cast<uint8_t>(x);
    table[x] = PackColumn(GfMul(b, 0x0e), GfMul(b, 0x09), GfMul(b, 0x0d), GfMul(b, 0x0b));
  }
  return table;
}();

// Column-major state indexing to match FIPS-197: state[r + 4*c], so a column's four bytes
// read as a little-endian word are its packed word.
static_assert(std::endian::native == std::endian::little,
              "packed AES columns assume a little-endian host");

inline uint32_t LoadColumn(const AesBlock& s, int c) {
  uint32_t w = 0;
  std::memcpy(&w, &s[4 * c], 4);
  return w;
}

inline void StoreColumn(AesBlock& s, int c, uint32_t w) { std::memcpy(&s[4 * c], &w, 4); }

// The block whose column c is column(c), written out rather than looped so the compiler folds
// each column's ShiftRows indices into its lookups.
template <typename ColumnFn>
AesBlock FromColumns(const ColumnFn& column) {
  AesBlock out{};
  StoreColumn(out, 0, column(0));
  StoreColumn(out, 1, column(1));
  StoreColumn(out, 2, column(2));
  StoreColumn(out, 3, column(3));
  return out;
}

inline uint32_t SubWord(uint32_t w) {
  return PackColumn(kSbox[Row(w, 0)], kSbox[Row(w, 1)], kSbox[Row(w, 2)], kSbox[Row(w, 3)]);
}

void AddRoundKey(AesBlock& s, const AesBlock& k) {
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= k[i];
  }
}

}  // namespace

uint8_t AesGfMul(uint8_t a, uint8_t b) { return GfMul(a, b); }

uint8_t AesSubByte(uint8_t value) { return kSbox[value]; }
uint8_t AesInvSubByte(uint8_t value) { return kInvSbox[value]; }

uint8_t StandardAesRcon(int round) {
  MERCURIAL_CHECK_GE(round, 1);
  MERCURIAL_CHECK_LE(round, kAesRounds);
  return kStandardRcon[round - 1];
}

AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes]) {
  return ExpandAesKey(key, kStandardRcon);
}

AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes], const AesRconArray& rcon) {
  // The four packed words of the latest round key.
  uint32_t w[4] = {};
  std::memcpy(w, key, kAesKeyBytes);
  AesKeySchedule schedule;
  std::memcpy(schedule.round_keys[0].data(), w, kAesKeyBytes);
  for (int r = 1; r <= kAesRounds; ++r) {
    // RotWord is a right rotation of the packed word; the round constant enters row 0.
    w[0] ^= SubWord(std::rotr(w[3], 8)) ^ rcon[r - 1];
    for (int c = 1; c < 4; ++c) {
      w[c] ^= w[c - 1];
    }
    std::memcpy(schedule.round_keys[r].data(), w, kAesKeyBytes);
  }
  return schedule;
}

AesBlock AesEncRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  // ShiftRows: row r of output column c is row r of input column c + r.
  return FromColumns([&](int c) {
    const uint8_t b0 = state[4 * c];
    const uint8_t b1 = state[1 + 4 * ((c + 1) & 3)];
    const uint8_t b2 = state[2 + 4 * ((c + 2) & 3)];
    const uint8_t b3 = state[3 + 4 * ((c + 3) & 3)];
    const uint32_t w = last ? PackColumn(kSbox[b0], kSbox[b1], kSbox[b2], kSbox[b3])
                            : kTe[b0] ^ std::rotl(kTe[b1], 8) ^ std::rotl(kTe[b2], 16) ^
                                  std::rotl(kTe[b3], 24);
    return w ^ LoadColumn(round_key, c);
  });
}

AesBlock AesDecRound(const AesBlock& state, const AesBlock& round_key, bool last) {
  uint32_t m[4] = {};
  for (int c = 0; c < 4; ++c) {
    const uint32_t w = LoadColumn(state, c) ^ LoadColumn(round_key, c);
    m[c] = last ? w
                : kInvMix[Row(w, 0)] ^ std::rotl(kInvMix[Row(w, 1)], 8) ^
                      std::rotl(kInvMix[Row(w, 2)], 16) ^ std::rotl(kInvMix[Row(w, 3)], 24);
  }
  // InvShiftRows, then InvSubBytes: row r of output column c is row r of column c - r.
  return FromColumns([&](int c) {
    return PackColumn(kInvSbox[Row(m[c], 0)], kInvSbox[Row(m[(c + 3) & 3], 1)],
                      kInvSbox[Row(m[(c + 2) & 3], 2)], kInvSbox[Row(m[(c + 1) & 3], 3)]);
  });
}

AesBlock AesEncryptBlock(const AesKeySchedule& schedule, const AesBlock& plaintext) {
  AesBlock s = plaintext;
  AddRoundKey(s, schedule.round_keys[0]);
  for (int r = 1; r <= kAesRounds; ++r) {
    s = AesEncRound(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  return s;
}

AesBlock AesDecryptBlock(const AesKeySchedule& schedule, const AesBlock& ciphertext) {
  AesBlock s = ciphertext;
  for (int r = kAesRounds; r >= 1; --r) {
    s = AesDecRound(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  AddRoundKey(s, schedule.round_keys[0]);
  return s;
}

AesBlock AesCtrCounterBlock(uint64_t nonce, uint64_t counter) {
  AesBlock block{};
  for (int i = 0; i < 8; ++i) {
    block[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
    block[8 + i] = static_cast<uint8_t>(counter >> (56 - 8 * i));
  }
  return block;
}

std::vector<uint8_t> AesCtrTransform(const AesKeySchedule& schedule, uint64_t nonce,
                                     const std::vector<uint8_t>& data) {
  std::vector<uint8_t> out(data.size());
  for (size_t offset = 0; offset < data.size(); offset += kAesBlockBytes) {
    const AesBlock keystream =
        AesEncryptBlock(schedule, AesCtrCounterBlock(nonce, offset / kAesBlockBytes));
    const size_t chunk = std::min(kAesBlockBytes, data.size() - offset);
    for (size_t i = 0; i < chunk; ++i) {
      out[offset + i] = data[offset + i] ^ keystream[i];
    }
  }
  return out;
}

}  // namespace mercurial
