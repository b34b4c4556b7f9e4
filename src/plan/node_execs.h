#ifndef RAPIDA_PLAN_NODE_EXECS_H_
#define RAPIDA_PLAN_NODE_EXECS_H_

/// Internal to the planners: the execs of the relational plan nodes both
/// planner families emit (left joins, UNION ALL, GROUP BY, the Decompress
/// forwarders), the emitters of the nodes both families share (an
/// OPTIONAL/UNION grouping's tail, GROUP BY and the query terminal), and
/// the helpers every relational exec shares.
/// An exec reads its inputs' entries of ExecContext::outputs, runs exactly
/// its node's job, and writes its own entry.

#include <functional>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/relational_ops.h"
#include "ntga/operators.h"
#include "ntga/star_pattern.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "sparql/ast.h"

namespace rapida::plan::detail {

/// The table node `id` produced.
engine::TableRef TableOf(const ExecContext& ctx, int id);

/// Records `table` as `node`'s output.
void SetOutput(ExecContext* ctx, const PlanNode& node,
               const engine::TableRef& table);

/// The join variable of an `edge=?var` attr ("" when absent/disconnected).
std::string EdgeVar(const PlanNode& node);

/// True when the factorize pass marked the node's output `d-rep`.
bool FactorizedOutput(const PlanNode& node);

/// The join strategy the map-join-selection pass recorded in the node's
/// `join` attr (`auto` when absent).
engine::JoinStrategy JoinStrategyOf(const PlanNode& node);

/// `filters` compiled over the columns a two-input join emits (left's,
/// then right's unseen ones); null when there are none.
engine::RowPredicate JoinPostPredicate(
    const std::vector<const sparql::Expr*>& filters,
    const engine::JoinInput& left, const engine::JoinInput& right,
    const rdf::Dictionary* dict);

/// Emits the nodes of one grouping's pattern `pattern` with its
/// `filters`, labelled `label`, and returns the id of the node producing
/// its rows. Each planner family passes its own.
using PatternEmitter = std::function<int(
    const ntga::StarGraph& pattern,
    const std::vector<sparql::ExprPtr>& filters, const std::string& label)>;

/// Emits the pattern side of one grouping, OPTIONAL/UNION included: per
/// branch its required pattern (`emit_pattern`), then per OPTIONAL tail
/// the tail's one-star pattern and one left star-join cycle (the branch's
/// post-filters ride the last one as its residual predicate), then a
/// UNION ALL node when the grouping has join-distributed arms. With
/// `bind`, the left joins and the union get their execs. A conjunctive
/// grouping emits only its pattern. Returns the node id feeding the
/// grouping's GROUP BY.
int EmitGroupingTail(PhysicalPlan* plan,
                     const analytics::GroupingSubquery& grouping,
                     const std::string& label, bool bind,
                     const PatternEmitter& emit_pattern);

/// Emits one kGroupAggregate node over `input_id` (none when < 0) with
/// its aggregate attrs and, when `bind`, its exec: one GROUP BY over the
/// input table, keyed by `keys` with `aggs`, pre-aggregating in the map
/// when the node's `map_side_agg` is `partial`; `having` (not owned, may
/// be null) is compiled over the grouped layout. The output is named
/// `output_columns` (keys, then aggregates; a rewrite's original names
/// for its translated keys). Returns its id.
int EmitGroupAggregate(PhysicalPlan* plan, const std::string& label,
                       const std::string& describe,
                       const std::vector<std::string>& keys,
                       const std::vector<ntga::AggSpec>& aggs,
                       const sparql::Expr* having,
                       const std::vector<std::string>& output_columns,
                       int input_id, bool bind);

/// Emits the query terminal of either planner family over the grouping
/// results `inputs`: a map-only final join (kFinalJoin, described by
/// `join_describe`, its job named `job_name`) for a multi-grouping query,
/// or a cost-0 driver-side projection (kMaterialize, `project_describe`)
/// for a single grouping. It carries the SELECT list and solution
/// modifiers (fingerprint completeness). When `bind`, its exec fills
/// result `slot`: the projected table, then the solution modifiers; a
/// per-query failure stays in the slot, with the cycles it left unrun, so
/// the other queries of a shared-scan batch still finish. Returns its id.
int EmitFinal(PhysicalPlan* plan, const analytics::AnalyticalQuery& query,
              const std::vector<int>& inputs, const std::string& join_describe,
              const std::string& project_describe, size_t slot,
              std::string job_name, bool bind);

/// Binds the cost-0 kDecompress nodes the factorize pass inserted: each
/// forwards its input (the enumeration folds into the consumer's reader).
void BindDecompress(PhysicalPlan* plan);

}  // namespace rapida::plan::detail

#endif  // RAPIDA_PLAN_NODE_EXECS_H_
