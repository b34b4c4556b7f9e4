#include "plan/node_execs.h"

#include <algorithm>
#include <utility>

namespace rapida::plan::detail {

namespace {

/// A materialized table as a join input (no scan predicate, inner).
engine::JoinInput TableInput(const engine::TableRef& table) {
  engine::JoinInput in;
  in.file = table.file;
  in.columns = table.columns;
  in.factor = table.factor;
  in.flat_bytes = table.flat_bytes;
  return in;
}

}  // namespace

engine::TableRef TableOf(const ExecContext& ctx, int id) {
  const engine::JoinInput& out = ctx.outputs[static_cast<size_t>(id)];
  return engine::TableRef{out.file, out.columns, out.factor, out.flat_bytes};
}

void SetOutput(ExecContext* ctx, const PlanNode& node,
               const engine::TableRef& table) {
  ctx->outputs[static_cast<size_t>(node.id)] = TableInput(table);
}

std::string EdgeVar(const PlanNode& node) {
  const std::string* edge = FindEntry(node.attrs, "edge");
  return edge != nullptr && edge->rfind('?', 0) == 0 ? edge->substr(1) : "";
}

bool FactorizedOutput(const PlanNode& node) {
  const std::string* factorize = FindEntry(node.attrs, "factorize");
  return factorize != nullptr && *factorize == "d-rep";
}

engine::JoinStrategy JoinStrategyOf(const PlanNode& node) {
  const std::string* join = FindEntry(node.attrs, "join");
  if (join == nullptr || *join == "auto") return engine::JoinStrategy::kAuto;
  return *join == "map" ? engine::JoinStrategy::kMap
                        : engine::JoinStrategy::kRepartition;
}

engine::RowPredicate JoinPostPredicate(
    const std::vector<const sparql::Expr*>& filters,
    const engine::JoinInput& left, const engine::JoinInput& right,
    const rdf::Dictionary* dict) {
  if (filters.empty()) return nullptr;
  std::vector<std::string> columns = left.columns;
  for (const std::string& c : right.columns) {
    if (std::find(columns.begin(), columns.end(), c) == columns.end()) {
      columns.push_back(c);
    }
  }
  return engine::CompilePredicate(filters, columns, dict);
}

NodeExec LeftJoinExec(size_t index,
                      std::vector<const sparql::Expr*> post_filters) {
  return [index, post_filters = std::move(post_filters)](
             ExecContext* ctx, const PlanNode& node) -> Status {
    engine::JoinInput left = TableInput(TableOf(*ctx, node.inputs[0]));
    engine::JoinInput right = TableInput(TableOf(*ctx, node.inputs[1]));
    left.join_column = right.join_column = EdgeVar(node);
    right.outer = true;
    engine::RowPredicate post = JoinPostPredicate(
        post_filters, left, right, &ctx->dataset->graph().dict());
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef joined,
        ctx->rel->Join(node.label + ":leftjoin" + std::to_string(index),
                       {left, right}, JoinStrategyOf(node), post,
                       FactorizedOutput(node)));
    SetOutput(ctx, node, joined);
    return Status::OK();
  };
}

NodeExec UnionExec() {
  return [](ExecContext* ctx, const PlanNode& node) -> Status {
    std::vector<engine::TableRef> arms;
    for (int in : node.inputs) arms.push_back(TableOf(*ctx, in));
    RAPIDA_ASSIGN_OR_RETURN(engine::TableRef unioned,
                            ctx->rel->UnionAll(node.label + ":union", arms));
    SetOutput(ctx, node, unioned);
    return Status::OK();
  };
}

NodeExec GroupAggregateExec(std::vector<std::string> keys,
                            std::vector<ntga::AggSpec> aggs,
                            const sparql::Expr* having,
                            std::vector<std::string> output_columns) {
  return [keys = std::move(keys), aggs = std::move(aggs), having,
          output_columns = std::move(output_columns)](
             ExecContext* ctx, const PlanNode& node) -> Status {
    std::vector<engine::RelationalOps::AggColumn> columns;
    std::vector<std::string> grouped = keys;
    for (const ntga::AggSpec& a : aggs) {
      columns.push_back(engine::RelationalOps::AggColumn{
          a.func, a.var, a.count_star, a.output_name, a.separator});
      grouped.push_back(a.output_name);
    }
    engine::RowPredicate having_pred;
    if (having != nullptr) {
      having_pred = engine::CompilePredicate({having}, grouped,
                                             &ctx->dataset->graph().dict());
    }
    const std::string* agg = FindEntry(node.attrs, "map_side_agg");
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef grouped_table,
        ctx->rel->GroupBy(node.label + ":groupby",
                          TableOf(*ctx, node.inputs[0]), keys, columns,
                          agg != nullptr && *agg == "partial", having_pred));
    grouped_table.columns = output_columns;
    SetOutput(ctx, node, grouped_table);
    return Status::OK();
  };
}

void BindDecompress(PhysicalPlan* plan) {
  for (PlanNode& node : plan->nodes) {
    if (node.kind != OpKind::kDecompress) continue;
    node.exec = [](ExecContext* ctx, const PlanNode& n) -> Status {
      ctx->outputs[static_cast<size_t>(n.id)] =
          ctx->outputs[static_cast<size_t>(n.inputs[0])];
      return Status::OK();
    };
  }
}

}  // namespace rapida::plan::detail
