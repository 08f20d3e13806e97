#include "src/workload/core_routines.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"

namespace mercurial {

std::vector<uint8_t> CoreMemcpy(SimCore& core, const std::vector<uint8_t>& src) {
  std::vector<uint8_t> dst(src.size());
  if (!src.empty()) {
    core.Copy(dst.data(), src.data(), src.size());
  }
  return dst;
}

uint64_t CoreFnv1a64(SimCore& core, const std::vector<uint8_t>& data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  size_t i = 0;
  // Word-at-a-time: XOR the loaded word then multiply by the FNV prime, matching the golden
  // byte-serial result via per-byte folding inside the word.
  while (i < data.size()) {
    const size_t chunk = std::min<size_t>(8, data.size() - i);
    uint64_t word = 0;
    std::memcpy(&word, &data[i], chunk);
    word = core.Load(word);
    for (size_t b = 0; b < chunk; ++b) {
      const uint64_t byte = (word >> (8 * b)) & 0xff;
      hash = core.Alu(AluOp::kXor, hash, byte);
      hash = core.Mul(hash, 0x100000001b3ull);
    }
    i += chunk;
  }
  return hash;
}

uint32_t CoreCrc32(SimCore& core, const std::vector<uint8_t>& data, size_t block_size) {
  MERCURIAL_CHECK_GT(block_size, 0u);
  uint32_t crc = Crc32Init();
  size_t i = 0;
  while (i < data.size()) {
    const size_t chunk = std::min(block_size, data.size() - i);
    crc = core.Crc32Block(crc, &data[i], chunk);
    i += chunk;
  }
  return Crc32Final(crc);
}

std::vector<uint8_t> CoreAesCtr(SimCore& core, const uint8_t key[kAesKeyBytes], uint64_t nonce,
                                const std::vector<uint8_t>& data) {
  const AesKeySchedule schedule = core.ExpandKey(key);
  std::vector<uint8_t> out(data.size());
  for (size_t offset = 0; offset < data.size(); offset += kAesBlockBytes) {
    const AesBlock keystream =
        CoreAesEncryptBlock(core, schedule, AesCtrCounterBlock(nonce, offset / kAesBlockBytes));
    const size_t chunk = std::min(kAesBlockBytes, data.size() - offset);
    for (size_t i = 0; i < chunk; ++i) {
      out[offset + i] = data[offset + i] ^ keystream[i];
    }
  }
  return out;
}

AesBlock CoreAesEncryptBlock(SimCore& core, const AesKeySchedule& schedule,
                             const AesBlock& plaintext) {
  AesBlock s = plaintext;
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= schedule.round_keys[0][i];
  }
  for (int r = 1; r <= kAesRounds; ++r) {
    s = core.AesEnc(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  return s;
}

AesBlock CoreAesDecryptBlock(SimCore& core, const AesKeySchedule& schedule,
                             const AesBlock& ciphertext) {
  AesBlock s = ciphertext;
  for (int r = kAesRounds; r >= 1; --r) {
    s = core.AesDec(s, schedule.round_keys[r], /*last=*/r == kAesRounds);
  }
  for (size_t i = 0; i < kAesBlockBytes; ++i) {
    s[i] ^= schedule.round_keys[0][i];
  }
  return s;
}

StatusOr<std::vector<uint8_t>> CoreLzDecompress(SimCore& core,
                                                const std::vector<uint8_t>& compressed) {
  std::vector<uint8_t> out;
  out.reserve(compressed.size() * 2);
  size_t i = 0;
  const size_t n = compressed.size();
  while (i < n) {
    const uint8_t token = compressed[i++];
    if (token < 0x80) {
      const size_t run = static_cast<size_t>(token) + 1;
      if (i + run > n) {
        return DataLossError("literal run overflows stream");
      }
      const size_t start = out.size();
      out.resize(start + run);
      core.Copy(&out[start], &compressed[i], run);
      i += run;
    } else {
      if (i + 2 > n) {
        return DataLossError("truncated match token");
      }
      const size_t length = static_cast<size_t>(token & 0x7f) + kLzMinMatch;
      const size_t offset =
          static_cast<size_t>(compressed[i]) | (static_cast<size_t>(compressed[i + 1]) << 8);
      i += 2;
      if (offset == 0 || offset > out.size()) {
        return DataLossError("match offset out of range");
      }
      // Overlap-safe: copy in `offset`-byte slices so each slice's source is fully written.
      size_t remaining = length;
      size_t src = out.size() - offset;
      while (remaining > 0) {
        const size_t slice = std::min(remaining, offset);
        const size_t dst = out.size();
        out.resize(dst + slice);
        core.Copy(&out[dst], &out[src], slice);
        src += slice;
        remaining -= slice;
      }
    }
  }
  return out;
}

std::vector<uint64_t> CoreMergeSort(SimCore& core, const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> a = keys;
  std::vector<uint64_t> b(keys.size());
  const size_t n = keys.size();
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      size_t i = lo;
      size_t j = mid;
      size_t k = lo;
      while (i < mid && j < hi) {
        if (a[i] <= a[j]) {
          b[k++] = core.Store(core.Load(a[i++]));
        } else {
          b[k++] = core.Store(core.Load(a[j++]));
        }
      }
      while (i < mid) {
        b[k++] = core.Store(core.Load(a[i++]));
      }
      while (j < hi) {
        b[k++] = core.Store(core.Load(a[j++]));
      }
    }
    std::swap(a, b);
  }
  return a;
}

Matrix CoreMatmul(SimCore& core, const Matrix& a, const Matrix& b) {
  MERCURIAL_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        const double product = core.Fp(FpOp::kMul, a.at(i, k), b.at(k, j));
        acc = core.Fp(FpOp::kAdd, acc, product);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

uint64_t CoreVectorXorFold(SimCore& core, const std::vector<uint8_t>& data) {
  Vec128 acc;
  size_t i = 0;
  while (i < data.size()) {
    const size_t chunk = std::min<size_t>(16, data.size() - i);
    Vec128 v;
    uint8_t buffer[16] = {0};
    std::memcpy(buffer, &data[i], chunk);
    std::memcpy(&v.lo, buffer, 8);
    std::memcpy(&v.hi, buffer + 8, 8);
    acc = core.Vector(VecOp::kXor, acc, v);
    i += chunk;
  }
  return acc.lo ^ acc.hi;
}

}  // namespace mercurial
