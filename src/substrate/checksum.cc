#include "src/substrate/checksum.h"

#include <array>

#include "src/common/rng.h"

namespace mercurial {
namespace {

// kCrc32Slices[k][b]: the CRC-32 register after byte b is folded into a zero register, then k
// zero bytes.
// Slice 0 is the byte-at-a-time table. Slicing-by-8 folds eight input bytes per step: byte j
// of the step still has 7 - j bytes to travel, so it is looked up in slice 7 - j.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Slices = [] {
  std::array<std::array<uint32_t, 256>, 8> slices{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0u);
    }
    slices[0][i] = crc;
  }
  for (size_t k = 1; k < slices.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      slices[k][i] = (slices[k - 1][i] >> 8) ^ slices[0][slices[k - 1][i] & 0xff];
    }
  }
  return slices;
}();

// Four bytes as a little-endian word on any host; compilers fold it into one load.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

struct Crc64Table {
  uint64_t table[256];
  Crc64Table() {
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xc96c5795d7870f42ull : 0ull);
      }
      table[i] = crc;
    }
  }
};

const Crc64Table kCrc64;

}  // namespace

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t crc, uint8_t byte) {
  return (crc >> 8) ^ kCrc32Slices[0][(crc ^ byte) & 0xff];
}

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xffffffffu; }

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  const auto& t = kCrc32Slices;
  for (; n >= 8; bytes += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
          t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++bytes, --n) {
    crc = Crc32Update(crc, *bytes);
  }
  return crc;
}

uint32_t Crc32(const void* data, size_t n) { return Crc32Final(Crc32Extend(Crc32Init(), data, n)); }

uint32_t Crc32(const std::vector<uint8_t>& data) { return Crc32(data.data(), data.size()); }

uint64_t Crc64(const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t crc = 0xffffffffffffffffull;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc64.table[(crc ^ bytes[i]) & 0xff];
  }
  return crc ^ 0xffffffffffffffffull;
}

uint64_t Fnv1a64(const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t Fnv1a64(const std::vector<uint8_t>& data) { return Fnv1a64(data.data(), data.size()); }

uint64_t ContentHash64(const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 0x9ae16a3b2f90404full ^ (n * 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<uint64_t>(bytes[i + b]) << (8 * b);
    }
    hash = Mix64(hash ^ Mix64(word));
    i += 8;
  }
  uint64_t tail = 0;
  int shift = 0;
  for (; i < n; ++i, shift += 8) {
    tail |= static_cast<uint64_t>(bytes[i]) << shift;
  }
  if (shift != 0) {
    hash = Mix64(hash ^ Mix64(tail ^ 0xabcdef0123456789ull));
  }
  return hash;
}

uint64_t MultisetDigest(const uint64_t* items, size_t n) {
  uint64_t digest = 0;
  for (size_t i = 0; i < n; ++i) {
    digest += Mix64(items[i]);
  }
  return digest;
}

}  // namespace mercurial
