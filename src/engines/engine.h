#ifndef RAPIDA_ENGINES_ENGINE_H_
#define RAPIDA_ENGINES_ENGINE_H_

#include <cstdint>
#include <string>

#include "analytics/analytical_query.h"
#include "analytics/binding.h"
#include "engines/dataset.h"
#include "mapreduce/cluster.h"
#include "util/statusor.h"

namespace rapida::engine {

/// Execution report for one engine run: the MapReduce workflow (cycle
/// count, bytes, simulated time) plus the host wall time of the in-process
/// execution.
struct ExecStats {
  std::string engine;
  mr::WorkflowStats workflow;
  double wall_seconds = 0;
};

/// Per-engine tuning knobs (the ablation benches flip these). The plan
/// passes read the toggles and record each decision on the plan's nodes
/// (`join`, `order`, `map_side_agg`, a parallel region); the execs read
/// those nodes and none of the toggles. Only `join=auto` nodes, whose
/// inputs have no plan-time size, still apply `map_join_threshold_bytes`
/// at run time.
struct EngineOptions {
  /// Tables at or below this stored size can be broadcast for map-joins
  /// (Hive's hive.mapjoin.smalltable.filesize analogue).
  uint64_t map_join_threshold_bytes = 256 * 1024;
  /// Enable map-joins at all (Hive engines).
  bool enable_map_joins = true;
  /// Map-side partial aggregation (Hive engines) / hash-based pre-
  /// aggregation in TG_AggJoin (NTGA engines, Alg. 3).
  bool partial_aggregation = true;
  /// RAPIDAnalytics only: evaluate independent Agg-Joins in one parallel
  /// cycle (Fig. 6b) vs sequentially (Fig. 6a).
  bool parallel_agg_join = true;
  /// Factorized (d-representation) intermediates: star-join and inter-star
  /// join outputs stay compressed as group records (engines/factorized.h)
  /// whenever every downstream consumer up to an order-insensitive sink
  /// (GroupBy without SUM/AVG, DISTINCT projection) can consume them;
  /// Decompress happens only at those boundaries. Final results are
  /// byte-identical to the flat path; shuffled/materialized bytes shrink
  /// on multi-valued (MG-class) patterns. Surfaced per node as
  /// `factorize=` in EXPLAIN and as factorization_factor in metrics.
  bool factorized_intermediates = true;
  /// Greedy size-based join ordering: start the inter-star join chain at
  /// the smallest star and always join the smallest available neighbor
  /// next, instead of the query's textual order. Cycle counts are
  /// unchanged; intermediate sizes shrink on chain-shaped patterns.
  bool greedy_join_order = false;
  /// Copies of the cluster's shape (ClusterConfig::num_shards and
  /// ::sharding). The cluster books placement itself, and no planner,
  /// pass or exec reads these two; they stay only because perfbench sets
  /// and reads them, until the benchmark next changes.
  int num_shards = 0;
  mr::ShardingScheme sharding_scheme = mr::ShardingScheme::kHashSubject;
  /// Prefix prepended to every intermediate DFS file name the engine
  /// creates ("" for exclusive-cluster runs). Concurrent queries sharing
  /// one Dfs must each get a unique namespace (e.g. "q17:") so their
  /// intermediates never collide — the serving layer sets this per query.
  std::string tmp_namespace;
};

/// Common interface of the four compared systems. Execute runs the full
/// workflow on the dataset's DFS through `cluster`, returns the final
/// result table, and reports per-job statistics in `stats`.
///
/// Engines delete their intermediate DFS files before returning (also on
/// error, best effort), so consecutive runs see a clean DFS.
class Engine {
 public:
  explicit Engine(const EngineOptions& options = EngineOptions())
      : options_(options) {}
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// plan::RunPlanAsEngine over plan::PlanForEngine(name(), ...): the
  /// engine's plan (its fallback shape included) is the program it runs.
  /// Virtual so test wrappers can inject faults.
  virtual StatusOr<analytics::BindingTable> Execute(
      const analytics::AnalyticalQuery& query, Dataset* dataset,
      mr::Cluster* cluster, ExecStats* stats);

 protected:
  EngineOptions options_;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_ENGINE_H_
