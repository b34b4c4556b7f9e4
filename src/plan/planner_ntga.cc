#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engines/ntga_exec.h"
#include "engines/rapid_plus.h"
#include "engines/relational_ops.h"
#include "engines/shared_scan.h"
#include "engines/var_translate.h"
#include "ntga/overlap.h"
#include "plan/executor.h"
#include "plan/node_execs.h"
#include "plan/passes.h"
#include "plan/planner.h"
#include "plan/planner_util.h"
#include "util/logging.h"

namespace rapida::plan {

namespace {

using analytics::AnalyticalQuery;
using analytics::GroupingSubquery;

struct NtgaEmit {
  int load_id = -1;
  int tail_id = -1;
};

/// Emits the NTGA pattern-matching chain for a composite: one cost-0
/// triplegroup load plus (k-1) α-join cycles (a one-star pattern folds
/// matching into the Agg-Join map — zero chain cycles, as in
/// NtgaExec::ComputePatternMatches).
NtgaEmit EmitNtgaPattern(PhysicalPlan* plan, const ntga::CompositePattern& comp,
                         const std::string& label, bool ra_style) {
  size_t k = comp.stars.size();
  PlanNode& load = plan->AddNode(
      OpKind::kTripleGroupLoad, label,
      label + ": triplegroup scan (" + std::to_string(k) +
          (ra_style ? " composite star" : " star") + (k == 1 ? "" : "s") + ")",
      0);
  for (size_t s = 0; s < k; ++s) {
    const ntga::CompositeStar& cs = comp.stars[s];
    std::string sig = cs.subject_var + "|";
    for (size_t t = 0; t < cs.triples.size(); ++t) {
      if (t > 0) sig += "&";
      if (cs.secondary.count(cs.triples[t].prop) > 0) sig += "opt:";
      sig += detail::TripleSig(cs.triples[t]);
    }
    load.Attr("star" + std::to_string(s), sig);
  }
  std::vector<std::string> binds;
  for (const ntga::CompositeStar& cs : comp.stars) {
    binds.push_back(cs.subject_var);
    for (const ntga::StarTriple& t : cs.triples) {
      std::string v = t.ObjectVar();
      if (!v.empty() &&
          std::find(binds.begin(), binds.end(), v) == binds.end()) {
        binds.push_back(v);
      }
    }
  }
  load.Attr("binds", detail::Csv(binds));

  // `load` is a reference into plan->nodes: the AddNode calls below may
  // reallocate, so keep only its id from here on.
  const int load_id = load.id;
  int tail = load_id;
  std::vector<size_t> picks = detail::SimulateNtgaChain(k, comp.joins);
  for (size_t c = 0; c + 1 < k; ++c) {
    bool last = c + 2 == k;
    PlanNode& jn = plan->AddNode(
        OpKind::kNSplitAlphaJoin, label,
        ra_style ? label + ": TG_OptGrpFilter + TG_AlphaJoin" +
                       (last ? " (α filtering)" : "")
                 : label + ": TG star-filter + join",
        1);
    jn.inputs = {tail};
    if (c < picks.size()) {
      jn.Attr("edge", "?" + comp.joins[picks[c]].var);
    } else {
      jn.Attr("edge", "disconnected");
    }
    tail = jn.id;
  }
  NtgaEmit out;
  out.load_id = load_id;
  out.tail_id = tail;
  return out;
}

void AddAggAttrs(PlanNode* agg, const std::vector<std::string>& group_vars,
                 const std::vector<ntga::AggSpec>& aggs,
                 const sparql::Expr* having,
                 const std::vector<std::string>& output_columns) {
  agg->Attr("group_by", detail::Csv(group_vars));
  for (size_t i = 0; i < aggs.size(); ++i) {
    agg->Attr("agg" + std::to_string(i), detail::AggSig(aggs[i]));
  }
  if (having != nullptr) agg->Attr("having", having->ToString());
  std::vector<std::string> uses = group_vars;
  for (const ntga::AggSpec& a : aggs) {
    if (!a.count_star) uses.push_back(a.var);
  }
  agg->Attr("uses", detail::Csv(uses));
  agg->Attr("binds", detail::Csv(output_columns));
}

/// Exec of kExpandBindings: the α-join chain of `comp` (the cost-only
/// kNSplitAlphaJoin nodes before it), then the expansion cycle.
NodeExec ExpandBindingsExec(ntga::CompositePattern comp,
                            std::vector<std::string> pattern_vars,
                            const std::vector<sparql::ExprPtr>* filters) {
  return [comp = std::move(comp), pattern_vars = std::move(pattern_vars),
          filters](ExecContext* ctx, const PlanNode& node) -> Status {
    const rdf::Dictionary& dict = ctx->dataset->graph().dict();
    ntga::ResolvedPattern resolved = ntga::ResolvePattern(comp, dict);
    std::vector<sparql::ExprPtr> owned;
    engine::PushedFilters pushed;
    engine::RowPredicate mapping_pred;
    engine::SplitNtgaFilters(*filters, comp.var_map[0], pattern_vars, &dict,
                             &owned, &pushed, &mapping_pred);
    RAPIDA_ASSIGN_OR_RETURN(
        engine::PatternMatches matches,
        ctx->ntga->ComputePatternMatches(resolved, {}, pushed, node.label));
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef table,
        ctx->ntga->ExpandToTable(resolved, matches, pushed, pattern_vars,
                                 mapping_pred, node.label));
    detail::SetOutput(ctx, node, table);
    return Status::OK();
  };
}

/// Emits the pattern side of one extended (OPTIONAL/UNION) grouping on the
/// NTGA engine: per branch the α-join chain plus one map-only cycle
/// expanding the matched triplegroups to relational rows, per OPTIONAL
/// tail a folded star scan + expansion + left join cycle, then a UNION ALL
/// node across branches. With `bind`, every node but the cost-only α-join
/// cycles gets its exec. Returns the node id feeding the relational GROUP
/// BY.
int EmitNtgaGroupingTail(PhysicalPlan* plan, const GroupingSubquery& grouping,
                         const std::string& label, bool bind) {
  std::vector<detail::BranchView> branches = detail::BranchesOf(grouping);
  std::vector<int> tails;
  for (size_t b = 0; b < branches.size(); ++b) {
    const detail::BranchView& bv = branches[b];
    std::string blabel =
        branches.size() > 1 ? label + ":b" + std::to_string(b) : label;
    ntga::CompositePattern comp = ntga::SinglePatternComposite(*bv.pattern);
    size_t k = comp.stars.size();
    NtgaEmit chain = EmitNtgaPattern(plan, comp, blabel, /*ra_style=*/false);
    std::vector<std::string> pattern_vars;
    for (const auto& [orig, composite_var] : comp.var_map[0]) {
      pattern_vars.push_back(composite_var);
    }
    std::vector<std::string> residual_sigs;
    for (const auto& f : *bv.filters) {
      std::vector<std::string> vars = detail::ExprVars(*f);
      if (vars.size() == 1) {
        plan->FindById(chain.load_id)
            ->Attr("pushed_filter", vars[0] + "|" + f->ToString());
      } else {
        residual_sigs.push_back(f->ToString());
      }
    }
    PlanNode& ex = plan->AddNode(
        OpKind::kExpandBindings, blabel,
        blabel + ": TG bindings -> relational rows" +
            (k == 1 ? " (star matching folded into map)" : ""),
        1);
    ex.map_only = true;
    ex.inputs = {chain.tail_id};
    if (k == 1) ex.Attr("fold", "map");
    ex.Attr("binds", detail::Csv(pattern_vars));
    for (const std::string& sig : residual_sigs) {
      ex.Attr("residual_filter", sig);
    }
    if (bind) {
      ex.exec = ExpandBindingsExec(std::move(comp), pattern_vars, bv.filters);
    }
    int tail = ex.id;

    for (size_t j = 0; j < bv.optionals->size(); ++j) {
      const analytics::OptionalTail& opt = (*bv.optionals)[j];
      std::string olabel = blabel + ":opt" + std::to_string(j);
      ntga::CompositePattern ocomp =
          ntga::SinglePatternComposite(detail::OptionalGraph(opt));
      NtgaEmit ochain = EmitNtgaPattern(plan, ocomp, olabel,
                                       /*ra_style=*/false);
      std::vector<std::string> opattern_vars;
      for (const auto& [orig, composite_var] : ocomp.var_map[0]) {
        opattern_vars.push_back(composite_var);
      }
      std::vector<std::string> oresidual;
      for (const auto& f : opt.filters) {
        std::vector<std::string> vars = detail::ExprVars(*f);
        if (vars.size() == 1) {
          plan->FindById(ochain.load_id)
              ->Attr("pushed_filter", vars[0] + "|" + f->ToString());
        } else {
          oresidual.push_back(f->ToString());
        }
      }
      PlanNode& oex = plan->AddNode(
          OpKind::kExpandBindings, olabel,
          olabel +
              ": TG bindings -> relational rows (star matching folded into "
              "map)",
          1);
      oex.map_only = true;
      oex.inputs = {ochain.tail_id};
      oex.Attr("fold", "map");
      oex.Attr("binds", detail::Csv(opattern_vars));
      for (const std::string& sig : oresidual) {
        oex.Attr("residual_filter", sig);
      }
      if (bind) {
        oex.exec = ExpandBindingsExec(std::move(ocomp), opattern_vars,
                                      &opt.filters);
      }
      // AddNode may reallocate the node vector; oex is dangling after it.
      const int oex_id = oex.id;
      PlanNode& jn = plan->AddNode(
          OpKind::kLeftReduceJoin, blabel,
          blabel + ": left star-join (OPTIONAL; unmatched rows keep NULLs)",
          1);
      jn.inputs = {tail, oex_id};
      jn.Attr("edge", "?" + opt.join_var);
      std::vector<const sparql::Expr*> post;
      if (j + 1 == bv.optionals->size()) {
        for (const auto& f : *bv.post_filters) {
          jn.Attr("residual_filter", f->ToString());
          post.push_back(f.get());
        }
      }
      if (bind) jn.exec = detail::LeftJoinExec(j, post);
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
  if (bind) un.exec = detail::UnionExec();
  return un.id;
}

int EmitNtgaFinal(PhysicalPlan* plan, const AnalyticalQuery& query,
                  const std::string& suffix, const std::vector<int>& inputs,
                  const std::string& tag) {
  PlanNode* fin = nullptr;
  if (query.groupings.size() > 1) {
    fin = &plan->AddNode(OpKind::kFinalJoin, "final",
                         "final: map-only join of aggregated triplegroups" +
                             suffix,
                         1);
    fin->map_only = true;
  } else {
    fin = &plan->AddNode(
        OpKind::kMaterialize, "final",
        "final: driver-side projection of the aggregated triplegroup" +
            suffix,
        0);
  }
  fin->inputs = inputs;
  detail::AddModifierAttrs(fin, query);
  fin->Attr("uses", detail::Csv(detail::ModifierUses(query)));
  fin->bind_tag = tag;
  return fin->id;
}

/// The NTGA query terminal over its groupings' aggregated tables: the
/// driver-side projection of a single grouping (kMaterialize) or one
/// map-only final join (kFinalJoin), then the solution modifiers.
StatusOr<analytics::BindingTable> FinishNtga(
    ExecContext* ctx, const PlanNode& node, const AnalyticalQuery& query,
    std::vector<analytics::BindingTable> tables,
    const std::vector<std::string>& files, const std::string& label) {
  StatusOr<analytics::BindingTable> result = Status::Internal("unset");
  if (node.kind == OpKind::kMaterialize) {
    result = engine::ToBindingTable(engine::JoinAndProject(
        std::move(tables), query.top_items, &ctx->dataset->dict()));
  } else {
    result = ctx->ntga->FinalJoinProject(std::move(tables), query.top_items,
                                         files, label);
  }
  if (result.ok()) {
    analytics::ApplySolutionModifiers(query, ctx->dataset->dict(), &*result);
  }
  return result;
}

void BindRapidPlus(PhysicalPlan* plan, const AnalyticalQuery& query) {
  // The Agg-Joins' result tables, by node id, for the final join.
  auto agg_tables =
      std::make_shared<std::map<int, analytics::BindingTable>>();
  const AnalyticalQuery* q = &query;
  for (size_t g = 0; g < query.groupings.size(); ++g) {
    const GroupingSubquery& grouping = query.groupings[g];
    if (!grouping.IsConjunctive()) continue;  // relational tail: bound
    PlanNode* n = plan->FindByTag("g" + std::to_string(g));
    n->exec = [q, g, agg_tables](ExecContext* ctx,
                                 const PlanNode& node) -> Status {
      const GroupingSubquery& grouping = q->groupings[g];
      const rdf::Dictionary& dict = ctx->dataset->graph().dict();
      ntga::CompositePattern comp =
          ntga::SinglePatternComposite(grouping.pattern);
      ntga::ResolvedPattern resolved = ntga::ResolvePattern(comp, dict);

      std::vector<std::string> pattern_vars;
      for (const auto& [orig, composite_var] : comp.var_map[0]) {
        pattern_vars.push_back(composite_var);
      }
      std::vector<sparql::ExprPtr> owned;
      engine::PushedFilters pushed;
      engine::RowPredicate mapping_pred;
      engine::SplitNtgaFilters(grouping.filters, comp.var_map[0], pattern_vars,
                               &dict, &owned, &pushed, &mapping_pred);

      RAPIDA_ASSIGN_OR_RETURN(
          engine::PatternMatches matches,
          ctx->ntga->ComputePatternMatches(resolved, {}, pushed, node.label));

      engine::NtgaGrouping work;
      work.spec.group_vars = grouping.group_by;  // identity namespace
      work.spec.aggs = grouping.aggs;
      work.pattern_vars = pattern_vars;
      work.output_columns = grouping.group_by;
      for (const ntga::AggSpec& a : grouping.aggs) {
        work.output_columns.push_back(a.output_name);
      }
      work.mapping_predicate = mapping_pred;
      work.having = grouping.having.get();

      std::vector<std::string> files;
      RAPIDA_ASSIGN_OR_RETURN(
          std::vector<analytics::BindingTable> tables,
          ctx->ntga->RunAggJoins(resolved, matches, pushed, {work},
                                 /*parallel=*/false, node.label, &files));
      (*agg_tables)[node.id] = std::move(tables[0]);
      detail::SetOutput(ctx, node,
                        engine::TableRef{files[0], work.output_columns,
                                         nullptr, 0});
      return Status::OK();
    };
  }
  plan->FindByTag("final")->exec = [q, agg_tables](
                                       ExecContext* ctx,
                                       const PlanNode& node) -> Status {
    // Relational GROUP BYs (OPTIONAL/UNION groupings) are read back here.
    std::vector<analytics::BindingTable> tables;
    std::vector<std::string> files;
    for (int in : node.inputs) {
      auto it = agg_tables->find(in);
      if (it != agg_tables->end()) {
        tables.push_back(std::move(it->second));
      } else {
        RAPIDA_ASSIGN_OR_RETURN(
            analytics::BindingTable table,
            ctx->rel->ReadTable(detail::TableOf(*ctx, in)));
        tables.push_back(std::move(table));
      }
      files.push_back(ctx->outputs[in].file);
    }
    RAPIDA_ASSIGN_OR_RETURN(
        analytics::BindingTable result,
        FinishNtga(ctx, node, *q, std::move(tables), files, "final"));
    (*ctx->results)[0] = std::move(result);
    return Status::OK();
  };
}

struct RaState {
  ntga::CompositePattern comp;  // copied: must outlive the SharedScanPlan
  std::vector<const AnalyticalQuery*> queries;
  std::vector<const GroupingSubquery*> flat;
  std::vector<size_t> offsets;
  // Exec-time intermediates, produced along the chain.
  ntga::ResolvedPattern resolved;
  std::vector<ntga::AlphaCondition> alphas;
  engine::PushedFilters pushed;
  std::vector<sparql::ExprPtr> owned_filters;
  std::vector<engine::NtgaGrouping> work;
  engine::PatternMatches matches;
  std::vector<analytics::BindingTable> tables;
  std::vector<std::string> agg_files;
};

void BindCompositeBatch(PhysicalPlan* plan, std::shared_ptr<RaState> st) {
  plan->FindByTag("gp")->exec = [st](ExecContext* ctx,
                                     const PlanNode&) -> Status {
    const rdf::Dictionary& dict = ctx->dataset->graph().dict();
    st->resolved = ntga::ResolvePattern(st->comp, dict);

    st->alphas.clear();
    for (size_t p = 0; p < st->resolved.pattern_secondary.size(); ++p) {
      ntga::AlphaCondition cond;
      for (const auto& [star, keys] : st->resolved.pattern_secondary[p]) {
        for (const ntga::DataPropKey& k : keys) {
          cond.push_back(ntga::AlphaConstraint{star, k, true});
        }
      }
      st->alphas.push_back(std::move(cond));
    }

    struct TranslatedFilter {
      std::string var;
      std::string sig;
      const sparql::Expr* raw = nullptr;
    };
    std::vector<std::vector<TranslatedFilter>> grouping_filters(
        st->flat.size());
    std::vector<std::set<std::string>> grouping_sigs(st->flat.size());
    for (size_t g = 0; g < st->flat.size(); ++g) {
      for (const auto& f : st->flat[g]->filters) {
        sparql::ExprPtr translated =
            engine::MapExprVars(*f, st->comp.var_map[g]);
        std::vector<std::string> vars;
        translated->CollectVars(&vars);
        TranslatedFilter tf;
        tf.raw = translated.get();
        if (vars.size() == 1) {
          tf.var = vars[0];
          tf.sig = tf.var + "|" + translated->ToString();
          grouping_sigs[g].insert(tf.sig);
        }
        st->owned_filters.push_back(std::move(translated));
        grouping_filters[g].push_back(std::move(tf));
      }
    }

    st->work.resize(st->flat.size());
    std::set<std::string> pushed_signatures;
    for (size_t g = 0; g < st->flat.size(); ++g) {
      const GroupingSubquery& grouping = *st->flat[g];
      const auto& var_map = st->comp.var_map[g];

      std::vector<std::string> pattern_vars;
      for (const auto& [orig, composite_var] : var_map) {
        if (std::find(pattern_vars.begin(), pattern_vars.end(),
                      composite_var) == pattern_vars.end()) {
          pattern_vars.push_back(composite_var);
        }
      }

      std::vector<const sparql::Expr*> residual;
      for (const TranslatedFilter& tf : grouping_filters[g]) {
        bool shared_by_all = !tf.var.empty();
        for (size_t o = 0; shared_by_all && o < grouping_sigs.size(); ++o) {
          if (grouping_sigs[o].count(tf.sig) == 0) shared_by_all = false;
        }
        if (shared_by_all) {
          if (pushed_signatures.insert(tf.sig).second) {
            st->pushed[tf.var].push_back(tf.raw);
          }
        } else {
          residual.push_back(tf.raw);
        }
      }
      engine::RowPredicate mapping_pred =
          residual.empty()
              ? nullptr
              : engine::CompilePredicate(residual, pattern_vars, &dict);

      engine::NtgaGrouping& w = st->work[g];
      w.spec.group_vars = engine::MapVars(grouping.group_by, var_map);
      for (const ntga::AggSpec& a : grouping.aggs) {
        ntga::AggSpec translated = a;
        translated.var = engine::MapVar(a.var, var_map);
        w.spec.aggs.push_back(std::move(translated));
      }
      w.spec.alpha =
          st->alphas.size() > g ? st->alphas[g] : ntga::AlphaCondition{};
      w.pattern_vars = pattern_vars;
      w.output_columns = grouping.group_by;  // original names
      for (const ntga::AggSpec& a : grouping.aggs) {
        w.output_columns.push_back(a.output_name);
      }
      w.mapping_predicate = mapping_pred;
      w.having = grouping.having.get();
    }

    auto matches = ctx->ntga->ComputePatternMatches(st->resolved, st->alphas,
                                                    st->pushed, "gp");
    if (!matches.ok()) return matches.status();
    st->matches = std::move(*matches);
    return Status::OK();
  };

  plan->FindByTag("agg")->exec = [st](ExecContext* ctx,
                                      const PlanNode&) -> Status {
    auto tables = ctx->ntga->RunAggJoins(st->resolved, st->matches, st->pushed,
                                         st->work,
                                         ctx->options.parallel_agg_join, "agg",
                                         &st->agg_files);
    if (!tables.ok()) return tables.status();
    st->tables = std::move(*tables);
    return Status::OK();
  };

  for (size_t q = 0; q < st->queries.size(); ++q) {
    PlanNode* n = plan->FindByTag("final" + std::to_string(q));
    n->exec = [st, q](ExecContext* ctx, const PlanNode& node) -> Status {
      const AnalyticalQuery& query = *st->queries[q];
      size_t offset = st->offsets[q];
      size_t n_groupings = query.groupings.size();
      std::vector<analytics::BindingTable> q_tables;
      q_tables.reserve(n_groupings);
      for (size_t i = 0; i < n_groupings; ++i) {
        q_tables.push_back(std::move(st->tables[offset + i]));
      }
      std::vector<std::string> q_files(
          st->agg_files.begin() + static_cast<long>(offset),
          st->agg_files.begin() +
              static_cast<long>(
                  std::min(offset + n_groupings, st->agg_files.size())));
      const size_t jobs_before = ctx->cluster->history().size();
      StatusOr<analytics::BindingTable> result = FinishNtga(
          ctx, node, query, std::move(q_tables), q_files,
          st->queries.size() == 1 ? "final" : "final" + std::to_string(q));
      if (!result.ok()) {
        ctx->unrun_cycles +=
            node.est_cycles -
            static_cast<int>(ctx->cluster->history().size() - jobs_before);
      }
      // A per-query failure stays in its slot; the batch walk continues.
      (*ctx->results)[q] = std::move(result);
      return Status::OK();
    };
  }
}

}  // namespace

StatusOr<PhysicalPlan> PlanRapidPlus(const AnalyticalQuery& query,
                                     engine::Dataset* dataset,
                                     const engine::EngineOptions& options) {
  PhysicalPlan plan;
  plan.engine = "RAPID+ (Naive)";
  plan.tmp_tag = "tmp:rplus";
  plan.needs_tg = true;
  const bool bind = dataset != nullptr;

  std::vector<int> agg_ids;
  for (size_t g = 0; g < query.groupings.size(); ++g) {
    const GroupingSubquery& grouping = query.groupings[g];
    std::string label = "g" + std::to_string(g);
    if (!grouping.IsConjunctive()) {
      // OPTIONAL/UNION grouping: NTGA pattern matching per branch, then a
      // relational left-join/union tail and a relational GROUP BY (the TG
      // Agg-Join only understands conjunctive star patterns).
      int tail_id = EmitNtgaGroupingTail(&plan, grouping, label, bind);
      PlanNode& agg = plan.AddNode(
          OpKind::kGroupAggregate, label,
          label + ": GROUP BY" + (grouping.group_by.empty() ? " ALL" : "") +
              " (relational)",
          1);
      agg.inputs = {tail_id};
      std::vector<std::string> output_columns = grouping.group_by;
      for (const ntga::AggSpec& a : grouping.aggs) {
        output_columns.push_back(a.output_name);
      }
      AddAggAttrs(&agg, grouping.group_by, grouping.aggs,
                  grouping.having.get(), output_columns);
      if (bind) {
        agg.exec = detail::GroupAggregateExec(grouping.group_by, grouping.aggs,
                                              grouping.having.get(),
                                              output_columns);
      }
      agg_ids.push_back(agg.id);
      continue;
    }
    ntga::CompositePattern comp =
        ntga::SinglePatternComposite(grouping.pattern);
    size_t k = comp.stars.size();
    NtgaEmit chain = EmitNtgaPattern(&plan, comp, label, /*ra_style=*/false);

    // Filter split (identity variable namespace): single-variable filters
    // are pushed into the triplegroup scan, the rest stay a mapping-level
    // predicate on the Agg-Join.
    std::vector<std::string> residual_sigs;
    for (const auto& f : grouping.filters) {
      std::vector<std::string> vars = detail::ExprVars(*f);
      if (vars.size() == 1) {
        plan.FindById(chain.load_id)
            ->Attr("pushed_filter", vars[0] + "|" + f->ToString());
      } else {
        residual_sigs.push_back(f->ToString());
      }
    }

    PlanNode& agg = plan.AddNode(
        OpKind::kAggJoin, label,
        label + ": TG Agg-Join" +
            (k == 1 ? " (star matching folded into map)" : ""),
        1);
    agg.inputs = {chain.tail_id};
    if (k == 1) agg.Attr("fold", "map");
    std::vector<std::string> output_columns = grouping.group_by;
    for (const ntga::AggSpec& a : grouping.aggs) {
      output_columns.push_back(a.output_name);
    }
    AddAggAttrs(&agg, grouping.group_by, grouping.aggs, grouping.having.get(),
                output_columns);
    for (const std::string& sig : residual_sigs) {
      agg.Attr("residual_filter", sig);
    }
    agg.bind_tag = label;
    agg_ids.push_back(agg.id);
  }
  EmitNtgaFinal(&plan, query, "", agg_ids, "final");

  PassManager::Default(options, &query).Run(&plan);
  if (bind) {
    BindRapidPlus(&plan, query);
    detail::BindDecompress(&plan);
  }
  return plan;
}

StatusOr<PhysicalPlan> PlanCompositeBatch(
    const engine::SharedScanPlan& shared,
    const std::vector<const AnalyticalQuery*>& queries,
    engine::Dataset* dataset, const engine::EngineOptions& options) {
  RAPIDA_CHECK(shared.sharable) << "PlanCompositeBatch on unsharable plan";
  const ntga::CompositePattern& comp = shared.comp;
  size_t k = comp.stars.size();

  std::vector<const GroupingSubquery*> flat;
  std::vector<size_t> offsets(queries.size(), 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    offsets[q] = flat.size();
    for (const GroupingSubquery& g : queries[q]->groupings) {
      flat.push_back(&g);
    }
  }

  PhysicalPlan plan;
  plan.engine = "RAPIDAnalytics";
  plan.tmp_tag = "tmp:ra";
  plan.needs_tg = true;
  plan.num_results = static_cast<int>(queries.size());
  if (queries.size() > 1) {
    plan.notes.push_back(
        "shared scan batch: " + std::to_string(queries.size()) + " queries (" +
        std::to_string(flat.size()) + " groupings) share the composite "
        "pattern cycles");
  }

  NtgaEmit chain = EmitNtgaPattern(&plan, comp, "gp", /*ra_style=*/true);
  plan.FindById(chain.tail_id)->bind_tag = "gp";

  // Shared-scan filter pushdown rule, statically replayed for the plan
  // attrs: a single-variable filter is pushed into the composite scan only
  // when the identical translated filter appears in EVERY flattened
  // grouping; everything else stays that grouping's mapping predicate.
  std::vector<std::set<std::string>> grouping_sigs(flat.size());
  std::vector<std::vector<std::pair<std::string, std::string>>> translated(
      flat.size());  // (sig-or-empty, text) per filter
  for (size_t g = 0; g < flat.size(); ++g) {
    for (const auto& f : flat[g]->filters) {
      sparql::ExprPtr t = engine::MapExprVars(*f, comp.var_map[g]);
      std::vector<std::string> vars = detail::ExprVars(*t);
      std::string sig;
      if (vars.size() == 1) {
        sig = vars[0] + "|" + t->ToString();
        grouping_sigs[g].insert(sig);
      }
      translated[g].emplace_back(sig, t->ToString());
    }
  }
  std::set<std::string> pushed_signatures;
  std::vector<std::vector<std::string>> residual_sigs(flat.size());
  for (size_t g = 0; g < flat.size(); ++g) {
    for (const auto& [sig, text] : translated[g]) {
      bool shared_by_all = !sig.empty();
      for (size_t o = 0; shared_by_all && o < grouping_sigs.size(); ++o) {
        if (grouping_sigs[o].count(sig) == 0) shared_by_all = false;
      }
      if (shared_by_all) {
        if (pushed_signatures.insert(sig).second) {
          plan.FindById(chain.load_id)->Attr("pushed_filter", sig);
        }
      } else {
        residual_sigs[g].push_back(text);
      }
    }
  }

  std::vector<int> agg_ids;
  for (size_t g = 0; g < flat.size(); ++g) {
    const GroupingSubquery& grouping = *flat[g];
    PlanNode& agg = plan.AddNode(
        OpKind::kAggJoin, "agg",
        "agg: TG Agg-Join (grouping-aggregation " + std::to_string(g) + ")" +
            (k == 1 ? " with star matching folded into map" : ""),
        1);
    agg.inputs = {chain.tail_id};
    if (k == 1) agg.Attr("fold", "map");
    std::vector<ntga::AggSpec> translated_aggs;
    for (const ntga::AggSpec& a : grouping.aggs) {
      ntga::AggSpec ta = a;
      ta.var = engine::MapVar(a.var, comp.var_map[g]);
      translated_aggs.push_back(std::move(ta));
    }
    std::vector<std::string> output_columns = grouping.group_by;
    for (const ntga::AggSpec& a : grouping.aggs) {
      output_columns.push_back(a.output_name);
    }
    AddAggAttrs(&agg, engine::MapVars(grouping.group_by, comp.var_map[g]),
                translated_aggs, grouping.having.get(), output_columns);
    // The α condition restricting this grouping to its own pattern.
    std::string alpha;
    for (const auto& [star, props] : comp.pattern_secondary[g]) {
      for (const ntga::PropKey& p : props) {
        if (!alpha.empty()) alpha += "&";
        alpha += "s" + std::to_string(star) + ":" + p.ToString();
      }
    }
    if (!alpha.empty()) agg.Attr("alpha", alpha);
    for (const std::string& sig : residual_sigs[g]) {
      agg.Attr("residual_filter", sig);
    }
    if (g + 1 == flat.size()) agg.bind_tag = "agg";
    agg_ids.push_back(agg.id);
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    const AnalyticalQuery& query = *queries[q];
    size_t n = query.groupings.size();
    std::vector<int> in_ids(
        agg_ids.begin() + static_cast<long>(offsets[q]),
        agg_ids.begin() + static_cast<long>(offsets[q] + n));
    EmitNtgaFinal(
        &plan, query,
        queries.size() > 1 ? " (query " + std::to_string(q) + ")" : "",
        in_ids, "final" + std::to_string(q));
  }

  PassManager::Default(options, queries.size() == 1 ? queries[0] : nullptr)
      .Run(&plan);
  if (dataset != nullptr) {
    auto st = std::make_shared<RaState>();
    st->comp = comp;
    st->queries = queries;
    st->flat = std::move(flat);
    st->offsets = std::move(offsets);
    BindCompositeBatch(&plan, st);
  }
  return plan;
}

StatusOr<PhysicalPlan> PlanRapidAnalytics(
    const AnalyticalQuery& query, engine::Dataset* dataset,
    const engine::EngineOptions& options) {
  RAPIDA_ASSIGN_OR_RETURN(engine::CompositeApplicability check,
                          engine::CheckCompositeRewrite(query, true));
  if (!check.applies) {
    RAPIDA_ASSIGN_OR_RETURN(PhysicalPlan plan,
                            PlanRapidPlus(query, dataset, options));
    plan.engine = "RAPIDAnalytics";
    plan.fallback_reason = check.why;
    return plan;
  }
  engine::SharedScanPlan shared;
  shared.sharable = true;
  shared.comp = std::move(check.comp);
  std::vector<const AnalyticalQuery*> batch{&query};
  return PlanCompositeBatch(shared, batch, dataset, options);
}

}  // namespace rapida::plan
