// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulator draws from an Rng seeded from a single study
// seed, so whole-fleet experiments are reproducible bit-for-bit. Rng is xoshiro256** with
// splitmix64 seeding; Split() derives an independent child stream from a label, which lets a
// fleet of thousands of cores each own a private stream without coordination.

#ifndef MERCURIAL_SRC_COMMON_RNG_H_
#define MERCURIAL_SRC_COMMON_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sim_time.h"

namespace mercurial {

class Rng {
 public:
  // Seeds the four xoshiro words by iterating splitmix64 over `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Derives an independent generator from this one's identity and `label`. Two Split() calls
  // with different labels yield streams that do not overlap in practice; the parent stream is
  // not advanced, so the set of children is a pure function of (seed, label).
  Rng Split(uint64_t label) const;

  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformInt(uint64_t lo, uint64_t hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponential with rate `lambda` (> 0); mean 1/lambda.
  double Exponential(double lambda);

  // Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Poisson-distributed count with the given mean; uses inversion for small means and a
  // normal approximation above 64 (fine for rate bookkeeping).
  uint64_t Poisson(double mean);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, i - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  // Fills `out` with random bytes.
  void FillBytes(void* out, size_t n);

  // Exact stream-cursor save/restore for the durability journal (src/durability): the five
  // words are the four xoshiro state words plus the split identity. RestoreState rebuilds a
  // generator that continues bit-identically — same future draws, same Split() children —
  // which is what makes a crashed-and-recovered controller indistinguishable from one that
  // never crashed.
  static constexpr size_t kStateWords = 5;
  void SaveState(uint64_t out[kStateWords]) const;
  void RestoreState(const uint64_t in[kStateWords]);

 private:
  uint64_t state_[4];
  // Immutable identity assigned at construction; Split() derives children from this, so the
  // family tree of streams does not depend on how far any stream has advanced.
  uint64_t identity_;
};

// The per-draw paths are inline: simulated workloads and the defect gate draw once per op, and
// a stress-battery iteration that skips its op costs little more than its draws.

inline uint64_t Rng::NextU64() {
  const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline uint64_t Rng::UniformInt(uint64_t lo, uint64_t hi) {
  MERCURIAL_CHECK_LE(lo, hi);
  const uint64_t span = hi - lo + 1;
  if (span == 0) {  // Full 64-bit range.
    return NextU64();
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return lo + draw % span;
}

inline bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

inline void Rng::FillBytes(void* out, size_t n) {
  auto* bytes = static_cast<unsigned char*>(out);
  while (n >= 8) {
    const uint64_t word = NextU64();
    std::memcpy(bytes, &word, 8);
    bytes += 8;
    n -= 8;
  }
  if (n > 0) {
    const uint64_t word = NextU64();
    std::memcpy(bytes, &word, n);
  }
}

// Retry backoff: attempt k >= 1 waits base * 2^(k-1), the shift capped at 20, then jittered
// by one draw from `rng` into [1 - jitter, 1 + jitter] times that when jitter > 0, so
// synchronized retries de-correlate. Never less than one second.
SimTime JitteredBackoff(SimTime base, int attempts, double jitter, Rng& rng);

// splitmix64 step, exposed because defect models use it as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t& state);

// One-shot stateless mix of a 64-bit value (the splitmix64 finalizer).
uint64_t Mix64(uint64_t value);

// Counter-based stream derivation: a pure stateless function of (seed, stream, counter) with
// no sequential dependence between counters. This is what makes sharded parallel simulation
// deterministic: shard `stream` at tick `counter` seeds a private Rng from
// DeriveStreamSeed(seed, stream, counter) and the resulting draws do not depend on how many
// worker threads execute the shards or in what order they complete.
uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream, uint64_t counter);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_RNG_H_
