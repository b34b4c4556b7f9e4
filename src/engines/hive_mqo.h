#ifndef RAPIDA_ENGINES_HIVE_MQO_H_
#define RAPIDA_ENGINES_HIVE_MQO_H_

#include <set>
#include <string>
#include <vector>

#include "engines/engine.h"
#include "ntga/overlap.h"

namespace rapida::engine {

/// Converts a CompositePattern into a StarGraph the relational compiler
/// understands (composite stars are ordinary star patterns whose secondary
/// triples will be outer-joined). Secondary triples with a CONSTANT object
/// are rewritten to fresh marker variables; the equality is returned in
/// `sec_const_filters` (one slot per pattern) as an extraction filter for
/// each owning pattern. Shared with the MQO planner (src/plan/), which must
/// see the exact graph the engine compiles.
ntga::StarGraph CompositeToStarGraph(
    const ntga::CompositePattern& comp,
    std::vector<std::vector<sparql::ExprPtr>>* sec_const_filters);

/// Object variables of `pattern_index`'s secondary triples, read off the
/// rewritten composite graph so constant-object markers are included.
std::set<std::string> SecondaryVars(const ntga::CompositePattern& comp,
                                    const ntga::StarGraph& graph,
                                    size_t pattern_index);

/// The paper's "Hive (MQO)" baseline — the multi-query-optimization
/// rewriting of Le et al. (ICDE'12) applied before a relational plan:
///
///  1. the two overlapping graph patterns are rewritten into one composite
///     query whose non-shared (secondary) properties are LEFT OUTER
///     joined (the relational rendering of OPTIONAL), evaluated with the
///     same star/join cycles as naive Hive, and **materialized** as an
///     intermediate table (Hive has no materialized views, §2.2);
///  2. per original pattern, one DISTINCT-extraction cycle selects the
///     rows whose pattern-specific columns are non-NULL and projects the
///     pattern's variables;
///  3. one GROUP BY cycle per pattern, then the final map-only join.
///
/// Because of the materialization boundary, early projection and partial
/// aggregation cannot cross step 1→2 — the weakness the paper observes.
/// Queries whose patterns do not overlap (or that have a single grouping)
/// fall back to the naive plan.
class HiveMqoEngine : public Engine {
 public:
  using Engine::Engine;

  std::string name() const override { return "Hive (MQO)"; }
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_HIVE_MQO_H_
