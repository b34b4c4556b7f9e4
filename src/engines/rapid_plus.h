#ifndef RAPIDA_ENGINES_RAPID_PLUS_H_
#define RAPIDA_ENGINES_RAPID_PLUS_H_

#include <string>

#include "engines/engine.h"

namespace rapida::engine {

/// The paper's "RAPID+ (Naive)" baseline: NTGA evaluation of each graph
/// pattern *sequentially* — per grouping subquery, (k−1) α-join cycles for
/// its k stars (one-star patterns fold matching into the aggregation map)
/// followed by one TG Agg-Join cycle; then a map-only cycle joins the
/// aggregated triplegroups. No composite pattern, no shared execution
/// across groupings.
class RapidPlusEngine : public Engine {
 public:
  using Engine::Engine;

  std::string name() const override { return "RAPID+ (Naive)"; }
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_RAPID_PLUS_H_
