#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace rapida {
namespace {

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(ZipfTableTest, SkewsTowardsLowRanks) {
  Random r(3);
  const ZipfTable zipf(10, 1.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(&r)];
  // Rank 0 must be the most frequent; last rank far less frequent.
  for (int i = 1; i < 10; ++i) EXPECT_GE(counts[0], counts[i]);
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(RandomTest, ForkAdvancesParentByOneDraw) {
  Random a(42), b(42);
  Random child = a.Fork();
  b.Next();  // Fork consumes exactly one draw from the parent.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  // The child is a distinct stream from the parent's continuation.
  Random a2(42);
  Random child2 = a2.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child2.Next() == a2.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, SplitIsPureAndPerStream) {
  Random r(7);
  Random s1 = r.Split(1);
  Random s1_again = r.Split(1);
  Random s2 = r.Split(2);
  // Split does not advance the parent...
  Random fresh(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.Next(), fresh.Next());
  // ...is repeatable for the same stream id...
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s1.Next(), s1_again.Next());
  // ...and distinct stream ids give independent sequences.
  Random s1b = Random(7).Split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1b.Next() == s2.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, SplitStreamsDoNotShiftWhenSiblingDrawsMore) {
  // The motivating property for the fuzzer: changing how much the data
  // generator draws must not change the query generator's stream.
  Random a(99);
  Random data_a = a.Split(1);
  Random query_a = a.Split(2);
  data_a.Next();

  Random b(99);
  Random data_b = b.Split(1);
  for (int i = 0; i < 1000; ++i) data_b.Next();  // draws much more
  Random query_b = b.Split(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(query_a.Next(), query_b.Next());
}

TEST(ZipfTableTest, Boundaries) {
  Random r(5);
  EXPECT_EQ(ZipfTable(1, 1.0).Sample(&r), 0u);
  const ZipfTable five(5, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_LT(five.Sample(&r), 5u);
}

TEST(ZipfTableTest, SingleRankConsumesNoDraw) {
  Random a(11), b(11);
  EXPECT_EQ(ZipfTable(1, 0.9).Sample(&a), 0u);
  EXPECT_EQ(ZipfTable(0, 0.9).Sample(&a), 0u);
  EXPECT_EQ(a.Next(), b.Next());
}

/// The per-draw inverse-CDF scan the generators used before ZipfTable:
/// recompute the normalization, then walk the ranks.
uint64_t LinearScanZipf(Random* rng, uint64_t n, double s) {
  if (n <= 1) return 0;
  double norm = 0.0;
  for (uint64_t i = 1; i <= n; ++i) norm += 1.0 / std::pow(i, s);
  double u = rng->NextDouble() * norm;
  double cum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    cum += 1.0 / std::pow(i, s);
    if (u <= cum) return i - 1;
  }
  return n - 1;
}

TEST(ZipfTableTest, DrawsMatchTheLinearScan) {
  const std::pair<uint64_t, double> kShapes[] = {
      {1, 1.0}, {5, 0.5}, {10, 1.1}, {40, 0.7}, {200, 0.8}, {400, 0.6}};
  for (const auto& [n, s] : kShapes) {
    const ZipfTable zipf(n, s);
    Random table_rng(n * 31 + 7), scan_rng(n * 31 + 7);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(zipf.Sample(&table_rng), LinearScanZipf(&scan_rng, n, s))
          << "n=" << n << " s=" << s << " draw " << i;
    }
    // Both consumed the same draws, so the streams are still in step.
    EXPECT_EQ(table_rng.Next(), scan_rng.Next());
  }
}

}  // namespace
}  // namespace rapida
