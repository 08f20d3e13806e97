// Checksums and hashes (golden implementations).
//
// CRC-32 (IEEE 802.3 polynomial, reflected) is the end-to-end integrity check used by the
// storage write-path analog; CRC-64 (ECMA) guards larger payloads; FNV-1a and a splitmix-based
// 64-bit hash serve as fast content digests in workloads and result checkers.

#ifndef MERCURIAL_SRC_SUBSTRATE_CHECKSUM_H_
#define MERCURIAL_SRC_SUBSTRATE_CHECKSUM_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace mercurial {

// Reflected CRC-32, polynomial 0xEDB88320, init/final XOR 0xFFFFFFFF (zlib-compatible).
uint32_t Crc32(const void* data, size_t n);
uint32_t Crc32(const std::vector<uint8_t>& data);

// Incremental form: crc = Crc32Extend(crc, data, n) starting from Crc32Init() and finished
// with Crc32Final(); chaining over any split of the input equals one call over all of it.
// Crc32Extend is the one CRC-32 kernel (slicing-by-8, eight bytes a step) behind Crc32 and
// the simulated CRC unit. Crc32Update folds in one byte; it is the byte-at-a-time reference
// the kernel is tested against.
uint32_t Crc32Init();
uint32_t Crc32Extend(uint32_t crc, const void* data, size_t n);
uint32_t Crc32Update(uint32_t crc, uint8_t byte);
uint32_t Crc32Final(uint32_t crc);

// Reflected CRC-64 (ECMA-182 polynomial 0xC96C5795D7870F42).
uint64_t Crc64(const void* data, size_t n);

// FNV-1a 64-bit.
uint64_t Fnv1a64(const void* data, size_t n);
uint64_t Fnv1a64(const std::vector<uint8_t>& data);

// Strong-ish 64-bit content hash built from splitmix mixing; not cryptographic, but collisions
// are negligible at simulator scale. Used by result checkers that compare multisets.
uint64_t ContentHash64(const void* data, size_t n);

// Order-independent digest of a multiset of 64-bit items (sum of mixed items). Two sequences
// with equal multisets produce equal digests; used to verify that a sort output is a
// permutation of its input.
uint64_t MultisetDigest(const uint64_t* items, size_t n);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SUBSTRATE_CHECKSUM_H_
