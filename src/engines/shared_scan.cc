#include "engines/shared_scan.h"

#include <utility>

#include "plan/executor.h"
#include "plan/planner.h"
#include "util/logging.h"

namespace rapida::engine {

namespace {

/// Flattened view of every grouping across the batch, with its owning
/// query.
struct FlatGrouping {
  const analytics::GroupingSubquery* grouping;
  size_t query_index;
};

std::vector<FlatGrouping> Flatten(
    const std::vector<const analytics::AnalyticalQuery*>& queries) {
  std::vector<FlatGrouping> flat;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const analytics::GroupingSubquery& g : queries[q]->groupings) {
      flat.push_back(FlatGrouping{&g, q});
    }
  }
  return flat;
}

}  // namespace

StatusOr<SharedScanPlan> PlanSharedScan(
    const std::vector<const analytics::AnalyticalQuery*>& queries) {
  std::vector<FlatGrouping> flat = Flatten(queries);
  RAPIDA_CHECK(!flat.empty()) << "shared scan over zero groupings";

  SharedScanPlan plan;
  // The composite rewrite merges conjunctive star patterns; OPTIONAL and
  // UNION groupings fall back to the naive per-grouping pipeline (which
  // lowers them through the relational left-join/union tail).
  for (const FlatGrouping& fg : flat) {
    if (!fg.grouping->IsConjunctive()) {
      plan.why =
          "grouping uses OPTIONAL/UNION: composite star rewriting covers "
          "conjunctive star patterns only";
      return plan;
    }
  }
  if (flat.size() == 1) {
    plan.sharable = true;
    plan.comp = ntga::SinglePatternComposite(flat[0].grouping->pattern);
    return plan;
  }
  if (flat.size() == 2) {
    ntga::OverlapResult overlap = ntga::FindOverlap(
        flat[0].grouping->pattern, flat[1].grouping->pattern);
    if (!overlap.overlaps) {
      plan.why = overlap.explanation;
      return plan;
    }
    RAPIDA_ASSIGN_OR_RETURN(
        plan.comp, ntga::BuildComposite(flat[0].grouping->pattern,
                                        flat[1].grouping->pattern, overlap));
    plan.sharable = true;
    return plan;
  }
  // Three or more groupings (ROLLUP-style families, and any multi-query
  // batch): generalize the composite to the whole pattern family so all
  // aggregations still run in one parallel Agg-Join cycle.
  std::vector<const ntga::StarGraph*> family;
  family.reserve(flat.size());
  for (const FlatGrouping& fg : flat) family.push_back(&fg.grouping->pattern);
  ntga::FamilyOverlapResult overlap = ntga::FindOverlapFamily(family);
  if (!overlap.overlaps) {
    plan.why = overlap.explanation;
    return plan;
  }
  RAPIDA_ASSIGN_OR_RETURN(plan.comp,
                          ntga::BuildCompositeFamily(family, overlap));
  plan.sharable = true;
  return plan;
}

StatusOr<CompositeApplicability> CheckCompositeRewrite(
    const analytics::AnalyticalQuery& query, bool allow_family) {
  CompositeApplicability out;
  if (!allow_family && query.groupings.size() != 2) {
    out.why = "MQO rewriting applies to exactly two grouping patterns";
    return out;
  }
  std::vector<const analytics::AnalyticalQuery*> batch{&query};
  RAPIDA_ASSIGN_OR_RETURN(SharedScanPlan plan, PlanSharedScan(batch));
  out.applies = plan.sharable;
  out.why = plan.why;
  out.comp = std::move(plan.comp);
  return out;
}

Status ExecuteCompositeBatch(
    const SharedScanPlan& shared,
    const std::vector<const analytics::AnalyticalQuery*>& queries,
    Dataset* dataset, mr::Cluster* cluster, const EngineOptions& options,
    std::vector<StatusOr<analytics::BindingTable>>* results) {
  RAPIDA_CHECK(shared.sharable) << "ExecuteCompositeBatch on unsharable plan";
  // The whole pipeline — composite resolution, α conditions, the shared
  // filter-pushdown rule, the parallel Agg-Join and the per-query final
  // joins — is emitted as an operator DAG by plan::PlanCompositeBatch; the
  // generic executor walks it.
  RAPIDA_ASSIGN_OR_RETURN(
      plan::PhysicalPlan physical,
      plan::PlanCompositeBatch(shared, queries, dataset, options));
  results->clear();
  for (size_t q = 0; q < queries.size(); ++q) {
    results->push_back(Status::Internal("unset"));
  }
  return plan::ExecutePlanMulti(physical, dataset, cluster, options,
                                results);
}

}  // namespace rapida::engine
