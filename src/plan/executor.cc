#include "plan/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

namespace rapida::plan {

Status ExecutePlanMulti(
    const PhysicalPlan& plan, engine::Dataset* dataset, mr::Cluster* cluster,
    const engine::EngineOptions& options,
    std::vector<StatusOr<analytics::BindingTable>>* results) {
  if (plan.needs_vp) RAPIDA_RETURN_IF_ERROR(dataset->EnsureVpTables());
  if (plan.needs_tg) RAPIDA_RETURN_IF_ERROR(dataset->EnsureTripleGroups());

  ExecContext ctx;
  ctx.dataset = dataset;
  ctx.cluster = cluster;
  ctx.results = results;
  int max_id = -1;
  for (const PlanNode& node : plan.nodes) max_id = std::max(max_id, node.id);
  ctx.outputs.resize(static_cast<size_t>(max_id + 1));
  ctx.agg_tables.resize(ctx.outputs.size());

  // The relational facade is always live (not just under needs_vp): every
  // engine's final join runs there, and the NTGA engines' OPTIONAL/UNION
  // groupings left-join, union and group their expanded intermediates
  // relationally without touching VP tables.
  std::unique_ptr<engine::RelationalOps> rel;
  std::unique_ptr<engine::NtgaExec> ntga;
  rel = std::make_unique<engine::RelationalOps>(
      cluster, dataset, options.map_join_threshold_bytes,
      options.tmp_namespace + plan.tmp_tag);
  ctx.rel = rel.get();
  if (plan.needs_tg) {
    ntga = std::make_unique<engine::NtgaExec>(
        cluster, dataset, options.tmp_namespace + plan.tmp_tag);
    ctx.ntga = ntga.get();
  }

  auto cleanup = [&] {
    if (rel != nullptr) rel->Cleanup();
    if (ntga != nullptr) ntga->Cleanup();
  };

  // Partial-evaluation contract: under the locality scheme, a node the
  // pass classified `peval=local` must run entirely shard-local — its
  // estimated cross-shard shuffle is exactly 0, and we hold the jobs its
  // exec ran to it.
  const bool enforce_peval =
      options.num_shards > 1 &&
      options.sharding_scheme == mr::ShardingScheme::kLocality;

  auto gate_error = [&](const PlanNode& node, const std::string& what) {
    cleanup();
    return Status::Internal("cycle gate: node #" + std::to_string(node.id) +
                            " (" + OpKindName(node.kind) + " '" + node.label +
                            "') " + what);
  };
  for (const PlanNode& node : plan.nodes) {
    if (!node.exec) {
      if (node.est_cycles == 0) continue;
      return gate_error(node, "estimates " + std::to_string(node.est_cycles) +
                                  " cycle(s) but has no exec");
    }
    const size_t jobs_before = cluster->history().size();
    Status s = node.exec(&ctx, node);
    if (!s.ok()) {
      cleanup();
      return s;
    }
    const int expected =
        node.est_cycles - std::exchange(ctx.unrun_cycles, 0);
    const size_t ran = cluster->history().size() - jobs_before;
    if (ran != static_cast<size_t>(expected)) {
      return gate_error(node, "ran " + std::to_string(ran) +
                                  " jobs, plan estimates " +
                                  std::to_string(expected));
    }
    {
      // Post-exec EXPLAIN annotation: flat rows / d-representation groups
      // over the jobs this node's exec ran. Info is display-only and
      // excluded from Fingerprint, and plans are built per execution, so
      // mutating it through the const ref is safe (same contract as the
      // passes' dataset-dependent info).
      uint64_t fgroups = 0;
      uint64_t frows = 0;
      const auto& history = cluster->history();
      for (size_t j = jobs_before; j < history.size(); ++j) {
        fgroups += history[j].factorized_groups;
        frows += history[j].factorized_flat_rows;
      }
      if (fgroups > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f",
                      static_cast<double>(frows) /
                          static_cast<double>(fgroups));
        const_cast<PlanNode&>(node).Info("factorization_factor", buf);
      }
    }
    if (enforce_peval) {
      const std::string* peval = FindEntry(node.info, "peval");
      if (peval != nullptr && *peval == "local") {
        const auto& history = cluster->history();
        for (size_t j = jobs_before; j < history.size(); ++j) {
          if (history[j].shuffle_cross_bytes != 0) {
            cleanup();
            return Status::Internal(
                "partial-evaluation contract violated: node #" +
                std::to_string(node.id) + " (" + OpKindName(node.kind) +
                ") is peval=local but job '" + history[j].name +
                "' shuffled " +
                std::to_string(history[j].shuffle_cross_bytes) +
                " bytes across shards");
          }
        }
      }
    }
  }
  cleanup();
  return Status::OK();
}

StatusOr<analytics::BindingTable> ExecutePlan(
    const PhysicalPlan& plan, engine::Dataset* dataset, mr::Cluster* cluster,
    const engine::EngineOptions& options) {
  std::vector<StatusOr<analytics::BindingTable>> results;
  results.emplace_back(Status::Internal("unset"));
  RAPIDA_RETURN_IF_ERROR(
      ExecutePlanMulti(plan, dataset, cluster, options, &results));
  return std::move(results[0]);
}

StatusOr<analytics::BindingTable> RunPlanAsEngine(
    const PhysicalPlan& plan, engine::Dataset* dataset, mr::Cluster* cluster,
    const engine::EngineOptions& options, engine::ExecStats* stats) {
  auto start = std::chrono::steady_clock::now();
  cluster->ResetHistory();
  StatusOr<analytics::BindingTable> result =
      ExecutePlan(plan, dataset, cluster, options);
  if (result.ok() && stats != nullptr) {
    stats->engine = plan.engine;
    stats->workflow.jobs = cluster->history();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return result;
}

}  // namespace rapida::plan
