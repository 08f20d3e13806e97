// Reference AES-128 (FIPS-197) used as the golden implementation and as the definition of the
// simulator's AES execution-unit micro-ops.
//
// The block cipher is decomposed so that the simulated core can route individual rounds
// through its (possibly defective) AES unit:
//
//   encrypt:  s = plaintext XOR k[0];  for r in 1..10: s = AesEncRound(s, k[r], last=r==10)
//   decrypt:  s = ciphertext;          for r in 10..1: s = AesDecRound(s, k[r], last=r==10);
//             plaintext = s XOR k[0]
//
// AesDecRound is the exact inverse of AesEncRound with the same round key, so the decrypt loop
// simply walks the schedule backwards. Both rounds are table lookups on 32-bit state columns.
// The key schedule's round constants are injected as an array (rcon[r - 1] for round r): the
// paper's "self-inverting AES miscomputation" (§2) is reproduced by a core whose key-expansion
// hardware produces wrong round constants — SimCore::ExpandKey computes the ten on the core, in
// round order, then expands. Encrypt+decrypt with the same wrong schedule is still the
// identity, but the ciphertext does not interoperate with healthy cores.

#ifndef MERCURIAL_SRC_SUBSTRATE_AES_H_
#define MERCURIAL_SRC_SUBSTRATE_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mercurial {

inline constexpr size_t kAesBlockBytes = 16;
inline constexpr size_t kAesKeyBytes = 16;
inline constexpr int kAesRounds = 10;

using AesBlock = std::array<uint8_t, kAesBlockBytes>;

// 11 round keys (k[0] is the whitening key).
struct AesKeySchedule {
  std::array<AesBlock, kAesRounds + 1> round_keys;
};

// Round constants for key expansion: element r - 1 is round r's constant (rounds 1..10).
using AesRconArray = std::array<uint8_t, kAesRounds>;

// The standard constant of `round` (1-based).
uint8_t StandardAesRcon(int round);

// Expands a 128-bit key. `rcon` defaults to the standard constants.
AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes]);
AesKeySchedule ExpandAesKey(const uint8_t key[kAesKeyBytes], const AesRconArray& rcon);

// One forward round: SubBytes, ShiftRows, MixColumns (skipped when `last`), AddRoundKey.
AesBlock AesEncRound(const AesBlock& state, const AesBlock& round_key, bool last);

// Exact inverse of AesEncRound with the same arguments.
AesBlock AesDecRound(const AesBlock& state, const AesBlock& round_key, bool last);

// Whole-block convenience wrappers over the round primitives.
AesBlock AesEncryptBlock(const AesKeySchedule& schedule, const AesBlock& plaintext);
AesBlock AesDecryptBlock(const AesKeySchedule& schedule, const AesBlock& ciphertext);

// CTR counter block for block number `counter`: big-endian nonce || big-endian counter.
AesBlock AesCtrCounterBlock(uint64_t nonce, uint64_t counter);

// CTR-mode keystream encryption of an arbitrary-length buffer (encrypt == decrypt), with
// keystream block i = AesEncryptBlock(schedule, AesCtrCounterBlock(nonce, i)).
std::vector<uint8_t> AesCtrTransform(const AesKeySchedule& schedule, uint64_t nonce,
                                     const std::vector<uint8_t>& data);

// S-box access for tests and for the simulator's byte-level micro-ops.
uint8_t AesSubByte(uint8_t value);
uint8_t AesInvSubByte(uint8_t value);

// GF(2^8) multiply (AES polynomial), exposed for property tests of MixColumns.
uint8_t AesGfMul(uint8_t a, uint8_t b);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SUBSTRATE_AES_H_
