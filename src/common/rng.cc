#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace mercurial {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream, uint64_t counter) {
  // Three rounds of the splitmix64 finalizer over distinctly-salted words. Each input is
  // mixed before combining so that nearby (stream, counter) pairs land in unrelated seeds.
  uint64_t h = Mix64(seed ^ 0x243f6a8885a308d3ull);  // pi
  h = Mix64(h ^ Mix64(stream ^ 0x13198a2e03707344ull));
  h = Mix64(h ^ Mix64(counter ^ 0xa4093822299f31d0ull));
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
  identity_ = Mix64(seed ^ 0x6a09e667f3bcc908ull);
}

Rng Rng::Split(uint64_t label) const {
  // Children are derived from the parent's construction-time identity mixed with the label;
  // the parent stream position is irrelevant, keeping the tree of streams reproducible.
  return Rng(Mix64(identity_ ^ Mix64(label)));
}

double Rng::Exponential(double lambda) {
  MERCURIAL_CHECK_GT(lambda, 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

uint64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    const double draw = Normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw + 0.5);
  }
  // Knuth inversion.
  const double threshold = std::exp(-mean);
  uint64_t count = 0;
  double product = NextDouble();
  while (product > threshold) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

void Rng::SaveState(uint64_t out[kStateWords]) const {
  for (int i = 0; i < 4; ++i) {
    out[i] = state_[i];
  }
  out[4] = identity_;
}

void Rng::RestoreState(const uint64_t in[kStateWords]) {
  for (int i = 0; i < 4; ++i) {
    state_[i] = in[i];
  }
  identity_ = in[4];
}

SimTime JitteredBackoff(SimTime base, int attempts, double jitter, Rng& rng) {
  const int shift = std::min(attempts - 1, 20);
  double delay = static_cast<double>(base.seconds()) * static_cast<double>(uint64_t{1} << shift);
  if (jitter > 0.0) {
    delay *= 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  }
  return SimTime::Seconds(std::max<int64_t>(1, static_cast<int64_t>(delay)));
}

}  // namespace mercurial
