#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engines/ntga_exec.h"
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

/// An Agg-Join folded into a parallel region, as its exec published it
/// for the region's: its grouping and its `map_side_agg` choice.
struct FoldedAggJoin {
  engine::NtgaGrouping grouping;
  bool map_side_agg = false;
};

/// One NTGA pattern-matching chain, a triplegroup load and its α-joins,
/// shared by the execs of its nodes and of its consumers. The planner
/// fills the composite, the filter split and the textual order; the load
/// resolves the pattern, and each α-join cycle advances the matches.
struct NtgaChain {
  ntga::CompositePattern comp;
  /// The translated filters; `pushed` and the consumers' residuals point
  /// into them.
  std::vector<sparql::ExprPtr> filters;
  engine::PushedFilters pushed;
  /// The chain order: the textual one the `edge` attrs record, replaced
  /// at run time under order=greedy.
  std::vector<detail::ChainStep> steps;
  ntga::ResolvedPattern resolved;
  std::vector<ntga::AlphaCondition> alphas;  // per pattern of `comp`
  std::vector<std::vector<std::string>> star_files;  // per star
  engine::PatternMatches matches;
  std::map<int, FoldedAggJoin> folded;  // by Agg-Join node id
};

struct NtgaEmit {
  int load_id = -1;
  int tail_id = -1;
  std::shared_ptr<NtgaChain> chain;
};

/// Exec of a triplegroup load (no job): resolves its chain's composite
/// against the dictionary, derives each pattern's α condition, and picks
/// each star's covering triplegroup files.
NodeExec TripleGroupLoadExec(std::shared_ptr<NtgaChain> chain) {
  return [chain](ExecContext* ctx, const PlanNode&) -> Status {
    NtgaChain& c = *chain;
    c.resolved = ntga::ResolvePattern(c.comp, ctx->dataset->dict());
    c.alphas.clear();
    for (const auto& secondary : c.resolved.pattern_secondary) {
      ntga::AlphaCondition cond;
      for (const auto& [star, keys] : secondary) {
        for (const ntga::DataPropKey& k : keys) {
          cond.push_back(ntga::AlphaConstraint{star, k, true});
        }
      }
      c.alphas.push_back(std::move(cond));
    }
    c.star_files.clear();
    for (const ntga::ResolvedStar& star : c.resolved.stars) {
      std::set<rdf::TermId> props;
      for (const ntga::DataPropKey& k : star.primary) props.insert(k.property);
      c.star_files.push_back(ctx->dataset->TgFilesCovering(props));
    }
    c.matches = engine::PatternMatches{};
    if (c.star_files.size() == 1) c.matches.star_files = c.star_files[0];
    return Status::OK();
  };
}

/// Exec of the chain's `cycle`-th α-join: one TG_AlphaJoin job on its
/// step of the chain order. Under order=greedy the first cycle orders the
/// whole chain from the stars' covering triplegroup bytes. The last cycle
/// applies the patterns' α conditions.
NodeExec AlphaJoinExec(std::shared_ptr<NtgaChain> chain, size_t cycle) {
  return [chain, cycle](ExecContext* ctx, const PlanNode& node) -> Status {
    NtgaChain& c = *chain;
    const std::string* order = FindEntry(node.attrs, "order");
    if (cycle == 0 && order != nullptr && *order == "greedy") {
      std::vector<uint64_t> sizes;
      for (const std::vector<std::string>& files : c.star_files) {
        uint64_t bytes = 0;
        for (const std::string& f : files) {
          auto file = ctx->dataset->dfs().Open(f);
          if (file.ok()) bytes += (*file)->stored_bytes;
        }
        sizes.push_back(bytes);
      }
      c.steps = detail::OrderNtgaChain(c.star_files.size(), c.comp.joins,
                                       std::move(sizes));
    }
    if (cycle >= c.steps.size()) {
      return Status::InvalidArgument(
          "graph pattern is not connected by join variables");
    }
    const std::vector<ntga::AlphaCondition> none;
    const bool last = cycle + 2 == c.star_files.size();
    RAPIDA_ASSIGN_OR_RETURN(
        c.matches.nested_file,
        ctx->ntga->AlphaJoinCycle(c.resolved, c.pushed, c.star_files,
                                  c.steps[cycle].edge, c.steps[cycle].star,
                                  c.matches.nested_file,
                                  last ? c.alphas : none, node.label, cycle));
    return Status::OK();
  };
}

/// Emits the NTGA pattern-matching chain for a composite: one cost-0
/// triplegroup load plus (k-1) α-join cycles in the textual order (a
/// one-star pattern folds matching into its consumer's map: zero chain
/// cycles). With `bind`, each node gets its exec.
NtgaEmit EmitNtgaPattern(PhysicalPlan* plan, ntga::CompositePattern comp,
                         const std::string& label, bool ra_style, bool bind) {
  auto chain = std::make_shared<NtgaChain>();
  chain->comp = std::move(comp);
  const ntga::CompositePattern& cp = chain->comp;
  size_t k = cp.stars.size();
  PlanNode& load = plan->AddNode(
      OpKind::kTripleGroupLoad, label,
      label + ": triplegroup scan (" + std::to_string(k) +
          (ra_style ? " composite star" : " star") + (k == 1 ? "" : "s") + ")",
      0);
  for (size_t s = 0; s < k; ++s) {
    const ntga::CompositeStar& cs = cp.stars[s];
    std::string sig = cs.subject_var + "|";
    for (size_t t = 0; t < cs.triples.size(); ++t) {
      if (t > 0) sig += "&";
      if (cs.secondary.count(cs.triples[t].prop) > 0) sig += "opt:";
      sig += detail::TripleSig(cs.triples[t]);
    }
    load.Attr("star" + std::to_string(s), sig);
  }
  std::vector<std::string> binds;
  for (const ntga::CompositeStar& cs : cp.stars) {
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
  if (bind) load.exec = TripleGroupLoadExec(chain);

  // `load` is a reference into plan->nodes: the AddNode calls below may
  // reallocate, so keep only its id from here on.
  NtgaEmit out;
  out.load_id = load.id;
  out.tail_id = load.id;
  out.chain = chain;
  chain->steps = detail::OrderNtgaChain(k, cp.joins, {});
  for (size_t c = 0; c + 1 < k; ++c) {
    bool last = c + 2 == k;
    PlanNode& jn = plan->AddNode(
        OpKind::kNSplitAlphaJoin, label,
        ra_style ? label + ": TG_OptGrpFilter + TG_AlphaJoin" +
                       (last ? " (α filtering)" : "")
                 : label + ": TG star-filter + join",
        1);
    jn.inputs = {out.tail_id};
    if (c < chain->steps.size()) {
      jn.Attr("edge", "?" + cp.joins[chain->steps[c].edge].var);
    } else {
      jn.Attr("edge", "disconnected");
    }
    if (bind) jn.exec = AlphaJoinExec(chain, c);
    out.tail_id = jn.id;
  }
  return out;
}

/// The NTGA filter split, computed once at plan time: `filters[g]` is
/// translated through the composite's var_map[g]. A filter over one
/// variable is pushed into star matching and recorded on the `load` node
/// — in a shared scan, only when every grouping has the identical
/// translated filter, and then once. Returns each grouping's residual
/// filters, evaluated per solution mapping.
std::vector<std::vector<const sparql::Expr*>> SplitFilters(
    NtgaChain* chain,
    const std::vector<const std::vector<sparql::ExprPtr>*>& filters,
    bool shared_scan, PlanNode* load) {
  struct Translated {
    std::string var;  // empty unless the filter has one variable
    std::string sig;  // "var|filter"
    const sparql::Expr* expr = nullptr;
  };
  std::vector<std::vector<Translated>> translated(filters.size());
  std::vector<std::set<std::string>> sigs(filters.size());
  for (size_t g = 0; g < filters.size(); ++g) {
    for (const auto& f : *filters[g]) {
      sparql::ExprPtr t = engine::MapExprVars(*f, chain->comp.var_map[g]);
      std::vector<std::string> vars = detail::ExprVars(*t);
      Translated tf;
      tf.expr = t.get();
      if (vars.size() == 1) {
        tf.var = vars[0];
        tf.sig = tf.var + "|" + t->ToString();
        sigs[g].insert(tf.sig);
      }
      translated[g].push_back(std::move(tf));
      chain->filters.push_back(std::move(t));
    }
  }
  std::set<std::string> pushed_sigs;
  std::vector<std::vector<const sparql::Expr*>> residual(filters.size());
  for (size_t g = 0; g < filters.size(); ++g) {
    for (const Translated& tf : translated[g]) {
      bool push = !tf.var.empty();
      for (size_t o = 0; shared_scan && push && o < sigs.size(); ++o) {
        push = sigs[o].count(tf.sig) > 0;
      }
      if (!push) {
        residual[g].push_back(tf.expr);
      } else if (!shared_scan || pushed_sigs.insert(tf.sig).second) {
        chain->pushed[tf.var].push_back(tf.expr);
        load->Attr("pushed_filter", tf.sig);
      }
    }
  }
  return residual;
}

/// The composite variables of pattern `p` of `comp`, in var_map order.
std::vector<std::string> PatternVars(const ntga::CompositePattern& comp,
                                     size_t p) {
  std::vector<std::string> vars;
  for (const auto& [orig, composite_var] : comp.var_map[p]) {
    if (std::find(vars.begin(), vars.end(), composite_var) == vars.end()) {
      vars.push_back(composite_var);
    }
  }
  return vars;
}

/// Exec of kExpandBindings: the one expansion cycle over its chain's
/// matches; `residual` is compiled over `pattern_vars`.
NodeExec ExpandBindingsExec(std::shared_ptr<NtgaChain> chain,
                            std::vector<std::string> pattern_vars,
                            std::vector<const sparql::Expr*> residual) {
  return [chain, pattern_vars = std::move(pattern_vars),
          residual = std::move(residual)](ExecContext* ctx,
                                          const PlanNode& node) -> Status {
    engine::RowPredicate mapping_pred =
        residual.empty() ? nullptr
                         : engine::CompilePredicate(residual, pattern_vars,
                                                    &ctx->dataset->dict());
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef table,
        ctx->ntga->ExpandToTable(chain->resolved, chain->matches,
                                 chain->pushed, pattern_vars, mapping_pred,
                                 node.label));
    detail::SetOutput(ctx, node, table);
    return Status::OK();
  };
}

/// Emits one pattern's NTGA chain and the map-only cycle expanding its
/// matches to relational rows; returns the expansion's id.
int EmitExpandedPattern(PhysicalPlan* plan, const ntga::StarGraph& pattern,
                        const std::vector<sparql::ExprPtr>& filters,
                        const std::string& label, bool bind) {
  NtgaEmit chain = EmitNtgaPattern(plan, ntga::SinglePatternComposite(pattern),
                                   label, /*ra_style=*/false, bind);
  std::vector<const sparql::Expr*> residual =
      SplitFilters(chain.chain.get(), {&filters}, /*shared_scan=*/false,
                   plan->FindById(chain.load_id))[0];
  const bool fold = chain.chain->comp.stars.size() == 1;
  std::vector<std::string> pattern_vars = PatternVars(chain.chain->comp, 0);
  PlanNode& ex = plan->AddNode(
      OpKind::kExpandBindings, label,
      label + ": TG bindings -> relational rows" +
          (fold ? " (star matching folded into map)" : ""),
      1);
  ex.map_only = true;
  ex.inputs = {chain.tail_id};
  if (fold) ex.Attr("fold", "map");
  ex.Attr("binds", detail::Csv(pattern_vars));
  for (const sparql::Expr* f : residual) {
    ex.Attr("residual_filter", f->ToString());
  }
  if (bind) {
    ex.exec = ExpandBindingsExec(chain.chain, std::move(pattern_vars),
                                 std::move(residual));
  }
  return ex.id;
}

/// Records an Agg-Join's aggregated table, and the DFS file backing it, as
/// node `id`'s output.
void SetAggOutput(ExecContext* ctx, int id,
                  const engine::NtgaGrouping& grouping,
                  analytics::BindingTable table, const std::string& file) {
  engine::JoinInput& out = ctx->outputs[static_cast<size_t>(id)];
  out.file = file;
  out.columns = grouping.output_columns;
  ctx->agg_tables[static_cast<size_t>(id)] = std::move(table);
}

/// Exec of one TG Agg-Join: completes its grouping with its pattern's α
/// condition and the compiled residual predicate, then runs its one job
/// — or, folded into a parallel region (est_cycles 0), publishes the
/// grouping in its chain for the region's exec.
NodeExec AggJoinExec(std::shared_ptr<NtgaChain> chain,
                     engine::NtgaGrouping work,
                     std::vector<const sparql::Expr*> residual,
                     std::string job_suffix) {
  return [chain, work = std::move(work), residual = std::move(residual),
          job_suffix = std::move(job_suffix)](
             ExecContext* ctx, const PlanNode& node) -> Status {
    engine::NtgaGrouping grouping = work;
    const size_t pattern = static_cast<size_t>(grouping.id);
    if (pattern < chain->alphas.size()) {
      grouping.spec.alpha = chain->alphas[pattern];
    }
    if (!residual.empty()) {
      grouping.mapping_predicate = engine::CompilePredicate(
          residual, grouping.pattern_vars, &ctx->dataset->dict());
    }
    const std::string* agg = FindEntry(node.attrs, "map_side_agg");
    const bool map_side_agg = agg != nullptr && *agg == "partial";
    if (node.est_cycles == 0) {
      chain->folded[node.id] = FoldedAggJoin{std::move(grouping), map_side_agg};
      return Status::OK();
    }
    std::string file;
    RAPIDA_ASSIGN_OR_RETURN(
        std::vector<analytics::BindingTable> tables,
        ctx->ntga->RunAggJoins(
            chain->resolved, chain->matches, chain->pushed, {&grouping},
            map_side_agg, node.label + ":aggjoin" + job_suffix,
            node.label + ":agg" + std::to_string(grouping.id), &file));
    SetAggOutput(ctx, node.id, grouping, std::move(tables[0]), file);
    return Status::OK();
  };
}

/// Exec of a parallel region over its chain's Agg-Joins (Fig. 6b): one
/// job over the groupings its members published, filling each member's
/// output.
NodeExec ParallelAggJoinExec(std::shared_ptr<NtgaChain> chain) {
  return [chain](ExecContext* ctx, const PlanNode& node) -> Status {
    std::vector<const engine::NtgaGrouping*> groupings;
    bool map_side_agg = false;
    for (int in : node.inputs) {
      auto it = chain->folded.find(in);
      if (it == chain->folded.end()) {
        return Status::Internal("parallel region member #" +
                                std::to_string(in) + " published nothing");
      }
      groupings.push_back(&it->second.grouping);
      map_side_agg = it->second.map_side_agg;
    }
    std::string file;
    RAPIDA_ASSIGN_OR_RETURN(
        std::vector<analytics::BindingTable> tables,
        ctx->ntga->RunAggJoins(chain->resolved, chain->matches, chain->pushed,
                               groupings, map_side_agg,
                               node.label + ":aggjoin(parallel)",
                               node.label + ":agg0", &file));
    for (size_t i = 0; i < groupings.size(); ++i) {
      SetAggOutput(ctx, node.inputs[i], *groupings[i], std::move(tables[i]),
                   file);
    }
    return Status::OK();
  };
}

/// Emits the TG Agg-Join of `grouping`, pattern `gid` of `chain`'s
/// composite (also its `gid#` key prefix), on the chain's matches. Its job
/// is named `label:aggjoin` + `job_suffix`.
int EmitAggJoin(PhysicalPlan* plan, const NtgaEmit& chain,
                const GroupingSubquery& grouping, int gid,
                std::vector<const sparql::Expr*> residual,
                const std::string& label, const std::string& describe,
                std::string job_suffix, bool bind) {
  const ntga::CompositePattern& comp = chain.chain->comp;
  const std::map<std::string, std::string>& var_map = comp.var_map[gid];
  engine::NtgaGrouping work;
  work.id = gid;
  work.spec.group_vars = engine::MapVars(grouping.group_by, var_map);
  for (const ntga::AggSpec& a : grouping.aggs) {
    ntga::AggSpec translated = a;
    translated.var = engine::MapVar(a.var, var_map);
    work.spec.aggs.push_back(std::move(translated));
  }
  work.pattern_vars = PatternVars(comp, static_cast<size_t>(gid));
  work.output_columns =  // original names
      detail::GroupedColumns(grouping.group_by, grouping.aggs);
  work.having = grouping.having.get();

  PlanNode& agg = plan->AddNode(OpKind::kAggJoin, label, describe, 1);
  agg.inputs = {chain.tail_id};
  if (comp.stars.size() == 1) agg.Attr("fold", "map");
  detail::AddAggAttrs(&agg, work.spec.group_vars, work.spec.aggs,
                      work.having, work.output_columns);
  // The α condition restricting this grouping to its own pattern.
  std::string alpha;
  for (const auto& [star, props] : comp.pattern_secondary[gid]) {
    for (const ntga::PropKey& p : props) {
      if (!alpha.empty()) alpha += "&";
      alpha += "s" + std::to_string(star) + ":" + p.ToString();
    }
  }
  if (!alpha.empty()) agg.Attr("alpha", alpha);
  for (const sparql::Expr* f : residual) {
    agg.Attr("residual_filter", f->ToString());
  }
  if (bind) {
    agg.exec = AggJoinExec(chain.chain, std::move(work), std::move(residual),
                           std::move(job_suffix));
  }
  return agg.id;
}

/// The NTGA family's query terminal over `inputs`, filling result `slot`;
/// `suffix` tells a shared-scan batch's queries apart, and its final join
/// is named `label:finaljoin`.
int EmitNtgaFinal(PhysicalPlan* plan, const AnalyticalQuery& query,
                  const std::string& suffix, const std::vector<int>& inputs,
                  size_t slot, const std::string& label, bool bind) {
  return detail::EmitFinal(
      plan, query, inputs,
      "final: map-only join of aggregated triplegroups" + suffix,
      "final: driver-side projection of the aggregated triplegroup" + suffix,
      slot, label + ":finaljoin (map-only)", bind);
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
      int tail_id = detail::EmitGroupingTail(
          &plan, grouping, label, bind,
          [&plan, bind](const ntga::StarGraph& pattern,
                        const std::vector<sparql::ExprPtr>& filters,
                        const std::string& blabel) {
            return EmitExpandedPattern(&plan, pattern, filters, blabel, bind);
          });
      agg_ids.push_back(detail::EmitGroupAggregate(
          &plan, label,
          label + ": GROUP BY" + (grouping.group_by.empty() ? " ALL" : "") +
              " (relational)",
          grouping.group_by, grouping.aggs, grouping.having.get(),
          detail::GroupedColumns(grouping.group_by, grouping.aggs), tail_id,
          bind));
      continue;
    }
    NtgaEmit chain =
        EmitNtgaPattern(&plan, ntga::SinglePatternComposite(grouping.pattern),
                        label, /*ra_style=*/false, bind);
    std::vector<const sparql::Expr*> residual =
        SplitFilters(chain.chain.get(), {&grouping.filters},
                     /*shared_scan=*/false, plan.FindById(chain.load_id))[0];
    const bool fold = chain.chain->comp.stars.size() == 1;
    agg_ids.push_back(EmitAggJoin(
        &plan, chain, grouping, 0, std::move(residual), label,
        label + ": TG Agg-Join" +
            (fold ? " (star matching folded into map)" : ""),
        "", bind));
  }
  EmitNtgaFinal(&plan, query, "", agg_ids, 0, "final", bind);

  PassManager::Default(options, &query).Run(&plan);
  if (bind) detail::BindDecompress(&plan);
  return plan;
}

StatusOr<PhysicalPlan> PlanCompositeBatch(
    const engine::SharedScanPlan& shared,
    const std::vector<const AnalyticalQuery*>& queries,
    engine::Dataset* dataset, const engine::EngineOptions& options) {
  RAPIDA_CHECK(shared.sharable) << "PlanCompositeBatch on unsharable plan";
  const bool bind = dataset != nullptr;

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

  NtgaEmit chain =
      EmitNtgaPattern(&plan, shared.comp, "gp", /*ra_style=*/true, bind);
  std::vector<const std::vector<sparql::ExprPtr>*> filters;
  for (const GroupingSubquery* g : flat) filters.push_back(&g->filters);
  std::vector<std::vector<const sparql::Expr*>> residual =
      SplitFilters(chain.chain.get(), filters, /*shared_scan=*/true,
                   plan.FindById(chain.load_id));

  const bool fold = shared.comp.stars.size() == 1;
  std::vector<int> agg_ids;
  for (size_t g = 0; g < flat.size(); ++g) {
    agg_ids.push_back(EmitAggJoin(
        &plan, chain, *flat[g], static_cast<int>(g), std::move(residual[g]),
        "agg",
        "agg: TG Agg-Join (grouping-aggregation " + std::to_string(g) + ")" +
            (fold ? " with star matching folded into map" : ""),
        flat.size() > 1 ? std::to_string(g) : "", bind));
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    const AnalyticalQuery& query = *queries[q];
    size_t n = query.groupings.size();
    std::vector<int> in_ids(
        agg_ids.begin() + static_cast<long>(offsets[q]),
        agg_ids.begin() + static_cast<long>(offsets[q] + n));
    const bool batch = queries.size() > 1;
    EmitNtgaFinal(&plan, query,
                  batch ? " (query " + std::to_string(q) + ")" : "", in_ids,
                  q, batch ? "final" + std::to_string(q) : "final", bind);
  }

  PassManager::Default(options, queries.size() == 1 ? queries[0] : nullptr)
      .Run(&plan);
  if (bind) {
    for (PlanNode& node : plan.nodes) {
      if (node.kind == OpKind::kParallelRegion) {
        node.exec = ParallelAggJoinExec(chain.chain);
      }
    }
    detail::BindDecompress(&plan);
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
