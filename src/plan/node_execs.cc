#include "plan/node_execs.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "plan/planner_util.h"

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

namespace {

/// One pattern branch of a grouping, viewed uniformly: a conjunctive (or
/// OPTIONAL-extended) grouping is a single branch over its own fields; a
/// UNION grouping exposes its already-distributed arms. EmitGroupingTail
/// iterates branches so both shapes share one lowering.
struct BranchView {
  const ntga::StarGraph* pattern = nullptr;
  const std::vector<sparql::ExprPtr>* filters = nullptr;
  const std::vector<analytics::OptionalTail>* optionals = nullptr;
  const std::vector<sparql::ExprPtr>* post_filters = nullptr;
};

std::vector<BranchView> BranchesOf(const analytics::GroupingSubquery& g) {
  std::vector<BranchView> out;
  if (g.union_branches.empty()) {
    out.push_back(
        BranchView{&g.pattern, &g.filters, &g.optionals, &g.post_filters});
  } else {
    for (const analytics::PatternBranch& b : g.union_branches) {
      out.push_back(
          BranchView{&b.pattern, &b.filters, &b.optionals, &b.post_filters});
    }
  }
  return out;
}

/// The OPTIONAL tail as the one-star graph both engines compile it from.
ntga::StarGraph OptionalGraph(const analytics::OptionalTail& opt) {
  ntga::StarGraph graph;
  graph.stars.push_back(opt.star);
  return graph;
}

/// kLeftReduceJoin / kLeftMapJoin: the `index`-th OPTIONAL left join of a
/// branch, inputs {required side, optional side} on the `edge` variable,
/// with the node's `join` strategy; `post_filters` (the branch's, on its
/// last left join) filter joined rows.
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

/// kUnion: one map-only UNION ALL over the branch tables.
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

/// Exec of the GROUP BY node EmitGroupAggregate emits.
NodeExec GroupAggregateExec(std::vector<std::string> keys,
                            std::vector<ntga::AggSpec> aggs,
                            const sparql::Expr* having,
                            std::vector<std::string> output_columns) {
  return [keys = std::move(keys), aggs = std::move(aggs), having,
          output_columns = std::move(output_columns)](
             ExecContext* ctx, const PlanNode& node) -> Status {
    engine::RowPredicate having_pred;
    if (having != nullptr) {
      having_pred = engine::CompilePredicate(
          {having}, GroupedColumns(keys, aggs), &ctx->dataset->graph().dict());
    }
    const std::string* agg = FindEntry(node.attrs, "map_side_agg");
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef grouped_table,
        ctx->rel->GroupBy(node.label + ":groupby",
                          TableOf(*ctx, node.inputs[0]), keys, aggs,
                          agg != nullptr && *agg == "partial", having_pred));
    grouped_table.columns = output_columns;
    SetOutput(ctx, node, grouped_table);
    return Status::OK();
  };
}

/// Exec of the query terminal EmitFinal emits: its inputs are Agg-Join
/// tables (ExecContext::agg_tables) or relational tables read back.
NodeExec FinalExec(const analytics::AnalyticalQuery* query, size_t slot,
                   std::string job_name) {
  return [query, slot, job_name = std::move(job_name)](
             ExecContext* ctx, const PlanNode& node) -> Status {
    std::vector<analytics::BindingTable> tables;
    std::vector<std::string> files;
    for (int in : node.inputs) {
      std::optional<analytics::BindingTable>& agg =
          ctx->agg_tables[static_cast<size_t>(in)];
      if (agg.has_value()) {
        tables.push_back(std::move(*agg));
      } else {
        RAPIDA_ASSIGN_OR_RETURN(analytics::BindingTable table,
                                ctx->rel->ReadTable(TableOf(*ctx, in)));
        tables.push_back(std::move(table));
      }
      files.push_back(ctx->outputs[static_cast<size_t>(in)].file);
    }
    const size_t jobs_before = ctx->cluster->history().size();
    StatusOr<analytics::BindingTable> result = Status::Internal("unset");
    if (node.kind == OpKind::kMaterialize) {
      result = engine::JoinAndProject(std::move(tables), query->top_items,
                                      &ctx->dataset->dict());
    } else {
      result = ctx->rel->FinalJoinProject(job_name, std::move(tables), files,
                                          query->top_items);
    }
    if (result.ok()) {
      analytics::ApplySolutionModifiers(*query, ctx->dataset->dict(),
                                        &*result);
    } else {
      ctx->unrun_cycles +=
          node.est_cycles -
          static_cast<int>(ctx->cluster->history().size() - jobs_before);
    }
    (*ctx->results)[slot] = std::move(result);
    return Status::OK();
  };
}

}  // namespace

int EmitGroupAggregate(PhysicalPlan* plan, const std::string& label,
                       const std::string& describe,
                       const std::vector<std::string>& keys,
                       const std::vector<ntga::AggSpec>& aggs,
                       const sparql::Expr* having,
                       const std::vector<std::string>& output_columns,
                       int input_id, bool bind) {
  PlanNode& n = plan->AddNode(OpKind::kGroupAggregate, label, describe, 1);
  if (input_id >= 0) n.inputs = {input_id};
  AddAggAttrs(&n, keys, aggs, having, output_columns);
  if (bind) n.exec = GroupAggregateExec(keys, aggs, having, output_columns);
  return n.id;
}

int EmitFinal(PhysicalPlan* plan, const analytics::AnalyticalQuery& query,
              const std::vector<int>& inputs, const std::string& join_describe,
              const std::string& project_describe, size_t slot,
              std::string job_name, bool bind) {
  PlanNode* fin = nullptr;
  if (query.groupings.size() > 1) {
    fin = &plan->AddNode(OpKind::kFinalJoin, "final", join_describe, 1);
    fin->map_only = true;
  } else {
    fin = &plan->AddNode(OpKind::kMaterialize, "final", project_describe, 0);
  }
  fin->inputs = inputs;
  AddModifierAttrs(fin, query);
  fin->Attr("uses", Csv(ModifierUses(query)));
  if (bind) fin->exec = FinalExec(&query, slot, std::move(job_name));
  return fin->id;
}

int EmitGroupingTail(PhysicalPlan* plan,
                     const analytics::GroupingSubquery& grouping,
                     const std::string& label, bool bind,
                     const PatternEmitter& emit_pattern) {
  std::vector<BranchView> branches = BranchesOf(grouping);
  std::vector<int> tails;
  for (size_t b = 0; b < branches.size(); ++b) {
    const BranchView& bv = branches[b];
    std::string blabel =
        branches.size() > 1 ? label + ":b" + std::to_string(b) : label;
    int tail = emit_pattern(*bv.pattern, *bv.filters, blabel);
    for (size_t j = 0; j < bv.optionals->size(); ++j) {
      const analytics::OptionalTail& opt = (*bv.optionals)[j];
      int opt_tail = emit_pattern(OptionalGraph(opt), opt.filters,
                                  blabel + ":opt" + std::to_string(j));
      PlanNode& jn = plan->AddNode(
          OpKind::kLeftReduceJoin, blabel,
          blabel + ": left star-join (OPTIONAL; unmatched rows keep NULLs)",
          1);
      jn.inputs = {tail, opt_tail};
      jn.Attr("edge", "?" + opt.join_var);
      std::vector<const sparql::Expr*> post;
      if (j + 1 == bv.optionals->size()) {
        for (const auto& f : *bv.post_filters) {
          jn.Attr("residual_filter", f->ToString());
          post.push_back(f.get());
        }
      }
      if (bind) jn.exec = LeftJoinExec(j, post);
      tail = jn.id;
    }
    tails.push_back(tail);
  }
  if (tails.size() == 1) return tails[0];
  PlanNode& un = plan->AddNode(
      OpKind::kUnion, label,
      label + ": UNION ALL (" + std::to_string(tails.size()) +
          " join-distributed branches)",
      1);
  un.map_only = true;
  un.inputs = tails;
  if (bind) un.exec = UnionExec();
  return un.id;
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
