#ifndef RAPIDA_ENGINES_HIVE_NAIVE_H_
#define RAPIDA_ENGINES_HIVE_NAIVE_H_

#include <string>

#include "engines/engine.h"

namespace rapida::engine {

/// The paper's "Hive (Naive)" baseline: each grouping subquery is compiled
/// independently to a relational plan over the vertically-partitioned
/// tables —
///   one multi-way same-subject join cycle per star pattern (>= 2 triple
///   patterns), one join cycle per inter-star edge, one GROUP BY cycle per
///   grouping — then a final map-only cycle joins the per-grouping results
/// (AQ1's plan in Fig. 2). Hive optimizations are modeled: map-joins when
/// all but one input is small, predicate pushdown into the star cycles,
/// early projection, and map-side partial aggregation.
class HiveNaiveEngine : public Engine {
 public:
  using Engine::Engine;

  std::string name() const override { return "Hive (Naive)"; }
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_HIVE_NAIVE_H_
