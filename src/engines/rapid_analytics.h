#ifndef RAPIDA_ENGINES_RAPID_ANALYTICS_H_
#define RAPIDA_ENGINES_RAPID_ANALYTICS_H_

#include <string>

#include "engines/engine.h"

namespace rapida::engine {

/// The paper's contribution: overlapping graph patterns are rewritten into
/// one composite graph pattern evaluated once with TG_OptGrpFilter +
/// TG_AlphaJoin ((k−1) cycles for k composite stars, α-filtering in the
/// last cycle), followed by ONE parallel TG Agg-Join cycle computing every
/// independent grouping-aggregation (Fig. 6b), and a final map-only join.
///
/// MG1-shaped queries run in 3 cycles vs 5 (RAPID+), 7–8 (Hive MQO) and 9
/// (naive Hive). Non-overlapping or 3+-grouping queries fall back to the
/// RAPID+ plan.
class RapidAnalyticsEngine : public Engine {
 public:
  using Engine::Engine;

  std::string name() const override { return "RAPIDAnalytics"; }
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_RAPID_ANALYTICS_H_
