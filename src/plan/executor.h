#ifndef RAPIDA_PLAN_EXECUTOR_H_
#define RAPIDA_PLAN_EXECUTOR_H_

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
/// `rel` is always live (OPTIONAL/UNION groupings of the NTGA engines use
/// it without VP tables), `ntga` iff the plan declared needs_tg; both are
/// constructed with the plan's tmp tag under options.tmp_namespace so
/// intermediate-file naming matches the pre-IR engines exactly. `results`
/// has PhysicalPlan::num_results slots, pre-filled with
/// Status::Internal("unset"); terminal nodes fill their slot (per-query
/// failures also go into the slot — only shared-phase failures abort the
/// walk by returning non-OK).
struct ExecContext {
  engine::Dataset* dataset = nullptr;
  mr::Cluster* cluster = nullptr;
  engine::EngineOptions options;
  engine::RelationalOps* rel = nullptr;
  engine::NtgaExec* ntga = nullptr;
  std::vector<StatusOr<analytics::BindingTable>>* results = nullptr;
  /// Per-run node outputs, indexed by PlanNode::id: the table (or, for a
  /// VP scan folded into its join, the scan input) each exec produced.
  std::vector<engine::JoinInput> outputs;
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
/// The cycle gate: after each exec, the jobs run since the walk began must
/// equal the summed est_cycles of the nodes walked so far, or the walk
/// fails with Status::Internal naming the node. Exact per node wherever a
/// node owns its exec; cost-only nodes (the α-join chain) are charged to
/// the exec that follows them.
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
