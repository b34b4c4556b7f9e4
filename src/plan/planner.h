#ifndef RAPIDA_PLAN_PLANNER_H_
#define RAPIDA_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "engines/shared_scan.h"
#include "plan/plan.h"
#include "util/statusor.h"

namespace rapida::plan {

/// Per-engine planners: translate an AnalyticalQuery into the explicit
/// operator DAG the engine runs (its cycle structure, labels and fallback
/// rules), then run PassManager::Default(options) over it. The plan is
/// the program: each node's exec runs exactly that node's job(s), so
/// EXPLAIN's node list is the list of jobs that run.
///
/// With `dataset == nullptr` the plan is *structural*: built for EXPLAIN,
/// `rapida_cli --plan` and fingerprints, with every VP partition assumed
/// present and no exec closures bound. With a dataset, the plan is
/// executable — the Hive planners ensure the VP layout first (so plan-time
/// partition checks and stored sizes equal run-time ones), closures
/// borrow `query` and `dataset`, and the plan must be executed within
/// their lifetime. Plans are single-shot: engines re-plan on every
/// Execute.
StatusOr<PhysicalPlan> PlanHiveNaive(const analytics::AnalyticalQuery& query,
                                     engine::Dataset* dataset,
                                     const engine::EngineOptions& options);

/// Falls back to the Hive (Naive) shape — renamed, with fallback_reason
/// and the naive tmp tag — when the MQO rewriting does not apply (also for
/// any query without exactly two groupings); a composite-construction
/// failure is an error.
StatusOr<PhysicalPlan> PlanHiveMqo(const analytics::AnalyticalQuery& query,
                                   engine::Dataset* dataset,
                                   const engine::EngineOptions& options);

StatusOr<PhysicalPlan> PlanRapidPlus(const analytics::AnalyticalQuery& query,
                                     engine::Dataset* dataset,
                                     const engine::EngineOptions& options);

/// Falls back to the RAPID+ shape — renamed, with fallback_reason — when
/// the composite rewriting does not apply.
StatusOr<PhysicalPlan> PlanRapidAnalytics(
    const analytics::AnalyticalQuery& query, engine::Dataset* dataset,
    const engine::EngineOptions& options);

/// The shared-scan batch plan over the flattened groupings of `queries`
/// (RAPIDAnalytics semantics; `shared` must be sharable). num_results ==
/// queries.size(); each query's terminal node fills its result slot.
StatusOr<PhysicalPlan> PlanCompositeBatch(
    const engine::SharedScanPlan& shared,
    const std::vector<const analytics::AnalyticalQuery*>& queries,
    engine::Dataset* dataset, const engine::EngineOptions& options);

/// Dispatch by engine display name ("Hive (Naive)", "Hive (MQO)",
/// "RAPID+ (Naive)", "RAPIDAnalytics" — anything else errors).
StatusOr<PhysicalPlan> PlanForEngine(const std::string& engine_name,
                                     const analytics::AnalyticalQuery& query,
                                     engine::Dataset* dataset,
                                     const engine::EngineOptions& options);

/// Deep copy of `query` with ONE deterministic global variable renaming
/// (v0, v1, ... in structural traversal order, output aliases included).
/// Two queries that differ only in variable names / surface text
/// canonicalize to identical queries.
analytics::AnalyticalQuery CanonicalizeQueryVars(
    const analytics::AnalyticalQuery& query);

/// The canonical optimized plan itself: the dataset-free, default-options
/// RAPIDAnalytics plan of the canonicalized query. Shared by the service's
/// PlanCache as the structural key/value; an error means the query is
/// outside the NTGA planner's subset (the fingerprint below still covers
/// it via a serialization hash).
StatusOr<PhysicalPlan> CanonicalOptimizedPlan(
    const analytics::AnalyticalQuery& query);

/// Fingerprint hash of the canonical optimized plan: the dataset-free,
/// default-options RAPIDAnalytics plan of the canonicalized query (every
/// constant, filter, aggregate and modifier is covered — structurally
/// equal queries collide, semantically different ones do not). Falls back
/// to a canonical-query serialization hash if planning fails.
std::string CanonicalPlanFingerprint(const analytics::AnalyticalQuery& query);

}  // namespace rapida::plan

#endif  // RAPIDA_PLAN_PLANNER_H_
