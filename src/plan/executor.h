#ifndef RAPIDA_PLAN_EXECUTOR_H_
#define RAPIDA_PLAN_EXECUTOR_H_

#include <optional>
#include <vector>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "engines/ntga_exec.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "plan/plan.h"
#include "util/statusor.h"

namespace rapida::plan {

/// Execution-time context handed to every PlanNode::exec closure.
///
/// `rel` is always live (every engine's final join runs there, and the
/// NTGA engines' OPTIONAL/UNION groupings use it without VP tables),
/// `ntga` iff the plan declared needs_tg; both are constructed with the
/// plan's tmp tag under options.tmp_namespace so intermediate-file naming
/// matches the pre-IR engines exactly. `results`
/// has PhysicalPlan::num_results slots, pre-filled with
/// Status::Internal("unset"); terminal nodes fill their slot (per-query
/// failures also go into the slot — only shared-phase failures abort the
/// walk by returning non-OK).
struct ExecContext {
  engine::Dataset* dataset = nullptr;
  mr::Cluster* cluster = nullptr;
  engine::RelationalOps* rel = nullptr;
  engine::NtgaExec* ntga = nullptr;
  std::vector<StatusOr<analytics::BindingTable>>* results = nullptr;
  /// Per-run node outputs, indexed by PlanNode::id: the table (or, for a
  /// VP scan folded into its join, the scan input) each exec produced.
  std::vector<engine::JoinInput> outputs;
  /// The NTGA Agg-Joins' aggregated tables, driver-side, indexed like
  /// `outputs` (which holds the DFS file backing each).
  std::vector<std::optional<analytics::BindingTable>> agg_tables;
  /// Cycles an exec budgeted but did not run because it recorded a
  /// per-query failure in its result slot instead of aborting the walk
  /// (shared-scan batches). The cycle gate discounts them.
  int unrun_cycles = 0;
};

/// Walks `plan.nodes` front to back (the stored order is a topological
/// order) running every non-null exec closure. Ensures the storage layout
/// the plan declared (idempotent; the build writes DFS files and runs no
/// job), builds the ops facades, and cleans up intermediates whether or
/// not the walk succeeds.
///
/// The cycle gate, per node: the jobs each exec runs must equal its node's
/// est_cycles less the cycles it reports unrun (ExecContext::unrun_cycles),
/// and a node with est_cycles > 0 must own an exec. Either violation fails
/// the walk with Status::Internal naming the node's id, kind and label.
Status ExecutePlanMulti(const PhysicalPlan& plan, engine::Dataset* dataset,
                        mr::Cluster* cluster,
                        const engine::EngineOptions& options,
                        std::vector<StatusOr<analytics::BindingTable>>* results);

/// Single-result convenience over ExecutePlanMulti (num_results == 1).
StatusOr<analytics::BindingTable> ExecutePlan(
    const PhysicalPlan& plan, engine::Dataset* dataset, mr::Cluster* cluster,
    const engine::EngineOptions& options);

/// The full engine protocol around one plan: reset job history, execute,
/// and on success fill `stats` from the cluster history under the plan's
/// engine name. This is what Engine::Execute is.
StatusOr<analytics::BindingTable> RunPlanAsEngine(
    const PhysicalPlan& plan, engine::Dataset* dataset, mr::Cluster* cluster,
    const engine::EngineOptions& options, engine::ExecStats* stats);

}  // namespace rapida::plan

#endif  // RAPIDA_PLAN_EXECUTOR_H_
