#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace rapida {

Random::Random(uint64_t seed) {
  // SplitMix64 to expand the seed into two non-zero state words.
  auto splitmix = [](uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  uint64_t x = seed;
  state0_ = splitmix(x);
  state1_ = splitmix(x);
  if (state0_ == 0 && state1_ == 0) state1_ = 1;
}

uint64_t Random::Next() {
  uint64_t s1 = state0_;
  const uint64_t s0 = state1_;
  state0_ = s0;
  s1 ^= s1 << 23;
  state1_ = s1 ^ s0 ^ (s1 >> 18) ^ (s0 >> 5);
  return state1_ + s0;
}

uint64_t Random::Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

int64_t Random::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo + 1)));
}

double Random::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Random::Bernoulli(double p) { return NextDouble() < p; }

Random Random::Fork() {
  // A draw from the parent keyed with an odd constant: child state is
  // re-expanded through the SplitMix64 constructor, so parent and child
  // sequences share no state words.
  return Random(Next() * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL);
}

Random Random::Split(uint64_t stream_id) const {
  // Mix both state words with the stream id (const: the parent stream is
  // not advanced). Distinct ids land in distinct SplitMix64 trajectories.
  uint64_t h = state0_;
  h ^= (state1_ + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  h ^= (stream_id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return Random(h);
}

ZipfTable::ZipfTable(uint64_t n, double s) {
  if (n <= 1) return;
  // Summed in rank order: the sum at rank r is the same double a linear
  // scan over the ranks reaches there, so a draw picks the rank that scan
  // would pick.
  cum_.reserve(n);
  double cum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    cum += 1.0 / std::pow(i, s);
    cum_.push_back(cum);
  }
}

uint64_t ZipfTable::Sample(Random* rng) const {
  if (cum_.empty()) return 0;
  const double u = rng->NextDouble() * cum_.back();
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
  return std::min<uint64_t>(it - cum_.begin(), cum_.size() - 1);
}

}  // namespace rapida
