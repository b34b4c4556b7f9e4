#ifndef RAPIDA_UTIL_RANDOM_H_
#define RAPIDA_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace rapida {

/// Deterministic 64-bit RNG (xorshift128+). All workload generators use this
/// so that datasets are reproducible across runs and platforms; std::mt19937
/// is avoided because its distribution adapters are not cross-stdlib stable.
class Random {
 public:
  explicit Random(uint64_t seed);

  /// Uniform value in [0, 2^64).
  uint64_t Next();

  /// Uniform value in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform value in [lo, hi]. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Returns an independent child stream, advancing this stream by exactly
  /// one draw. Use when several consumers (dataset generator, query
  /// generator, scheduler) must each see a deterministic sequence that does
  /// not shift when another consumer changes how many values it draws.
  Random Fork();

  /// Returns the independent stream for `stream_id` WITHOUT advancing this
  /// stream: Split(i) is a pure function of (current state, i), so any
  /// number of named streams can be derived from one point in the parent
  /// sequence.
  Random Split(uint64_t stream_id) const;

 private:
  uint64_t state0_;
  uint64_t state1_;
};

/// Zipf-distributed ranks in [0, n): rank r is drawn with probability
/// proportional to 1/(r+1)^s. Used to produce the skewed entity popularity
/// typical of RDF datasets (few hot product types / journals). The
/// cumulative weights are summed once, at construction, so a draw is one
/// NextDouble and a binary search; a generator builds one table per
/// distribution and draws from it.
class ZipfTable {
 public:
  ZipfTable(uint64_t n, double s);

  /// Inverse-CDF draw: the first rank whose cumulative weight reaches
  /// NextDouble() scaled by the total weight. For n <= 1 it returns 0 and
  /// consumes no draw.
  uint64_t Sample(Random* rng) const;

 private:
  std::vector<double> cum_;  // cum_[r] = sum of 1/(i+1)^s for i <= r
};

}  // namespace rapida

#endif  // RAPIDA_UTIL_RANDOM_H_
