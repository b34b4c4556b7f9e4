#ifndef RAPIDA_PLAN_PASSES_H_
#define RAPIDA_PLAN_PASSES_H_

#include <functional>
#include <string>
#include <vector>

#include "engines/engine.h"
#include "plan/plan.h"

namespace rapida::analytics {
struct AnalyticalQuery;
}  // namespace rapida::analytics

namespace rapida::plan {

/// One rewrite/annotation rule over a PhysicalPlan. `run` is always
/// invoked — with `enabled=false` it records the conservative shape (e.g.
/// map-join-selection forces every join to repartition), so the
/// EngineOptions booleans become pass toggles rather than scattered ifs.
struct Pass {
  std::string name;
  bool enabled = true;
  std::function<void(PhysicalPlan*, bool enabled)> run;
};

/// Runs a fixed sequence of passes over a plan, recording each pass name
/// in PhysicalPlan::passes ("(off)"-suffixed when its toggle is disabled).
class PassManager {
 public:
  void Add(Pass pass) { passes_.push_back(std::move(pass)); }
  void Run(PhysicalPlan* plan) const;

  /// The standard pipeline, in order:
  ///   map-join-selection   (EngineOptions::enable_map_joins)
  ///       statically resolves star joins whose inputs all have known
  ///       stored sizes to kMapJoin/repartition using the exact runtime
  ///       rule (largest input stays streamed; every other input must be
  ///       at or under map_join_threshold_bytes; broadcast never outer);
  ///       joins over runtime intermediates are marked join=auto
  ///   greedy-join-order    (EngineOptions::greedy_join_order)
  ///       marks join-chain nodes order=greedy and drops their statically
  ///       simulated edge choice (picked at runtime from stored sizes)
  ///   partial-aggregation  (EngineOptions::partial_aggregation)
  ///       annotates aggregation nodes with the map-side strategy
  ///   factorize            (EngineOptions::factorized_intermediates)
  ///       marks `factorize=d-rep` the joins that feed a sink consuming
  ///       d-representation groups (DISTINCT extraction, GROUP BY
  ///       without SUM/AVG)
  ///   parallel-agg-join    (EngineOptions::parallel_agg_join)
  ///       structural: collapses the independent sibling Agg-Joins of a
  ///       shared-scan plan into one kParallelRegion cycle (Fig. 6b)
  ///   union-distribution   (always on)
  ///       stamps the Union nodes of join-distributed OPTIONAL/UNION
  ///       groupings with their arms
  ///   dead-column-prune    (always on, advisory)
  ///       backward liveness over binds=/uses= column sets; annotates
  ///       columns materialized but never consumed downstream
  ///   common-subplan-dedup (always on, advisory)
  ///       structural hashing; annotates nodes whose subtree duplicates an
  ///       earlier one (the composite rewrites realize the sharing)
  ///   ivm-classify         (always on, advisory)
  ///       annotates the plan's final node with the query's incremental-
  ///       maintenance class (storage::ClassifyMaintainability): whether a
  ///       materialized result of this plan can be patched from an
  ///       insert-only delta or must be recomputed. Display-only `info` —
  ///       fingerprints and cycle counts are untouched. `query` is null
  ///       for multi-query composite-batch plans (members are classified
  ///       individually when their artifacts are stored).
  static PassManager Default(const engine::EngineOptions& options,
                             const analytics::AnalyticalQuery* query = nullptr);

 private:
  std::vector<Pass> passes_;
};

}  // namespace rapida::plan

#endif  // RAPIDA_PLAN_PASSES_H_
