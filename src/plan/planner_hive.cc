#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engines/hive_mqo.h"
#include "engines/relational_ops.h"
#include "engines/var_translate.h"
#include "mapreduce/record.h"
#include "plan/executor.h"
#include "plan/node_execs.h"
#include "plan/passes.h"
#include "plan/planner.h"
#include "plan/planner_util.h"

namespace rapida::plan {

namespace {

using analytics::AnalyticalQuery;
using analytics::GroupingSubquery;

/// Run-time state of one inter-star join chain under order=greedy, shared
/// by the chain's nodes: the first orders the chain by the stars' stored
/// sizes (flat-equivalent for factorized stars), each joins its step.
struct GreedyChain {
  std::vector<ntga::JoinEdge> joins;
  std::vector<int> star_ids;  // node producing each star's join input
  std::vector<detail::ChainStep> steps;
  int acc = -1;  // node holding the accumulated table
};

/// The greedy chain's `cycle`-th join: its two inputs and join variable.
Status NextGreedyEdge(ExecContext* ctx, size_t cycle, GreedyChain* chain,
                      engine::JoinInput* left, engine::JoinInput* right,
                      std::string* var) {
  if (cycle == 0) {
    std::vector<uint64_t> sizes;
    for (int id : chain->star_ids) {
      const engine::JoinInput& star = ctx->outputs[id];
      sizes.push_back(star.flat_bytes != 0
                          ? star.flat_bytes
                          : ctx->dataset->VpFileBytes(star.file));
    }
    chain->steps.clear();
    chain->acc = chain->star_ids[detail::OrderHiveChain(
        chain->star_ids.size(), chain->joins, std::move(sizes),
        &chain->steps)];
  }
  if (cycle >= chain->steps.size()) {
    return Status::InvalidArgument(
        "graph pattern is not connected by join variables");
  }
  const detail::ChainStep& step = chain->steps[cycle];
  *left = ctx->outputs[chain->acc];
  *right = ctx->outputs[chain->star_ids[step.star]];
  *var = chain->joins[step.edge].var;
  return Status::OK();
}

/// Exec of the `cycle`-th inter-star join. Under order=textual the edge is
/// the node's own (inputs {accumulated, new star}, `edge` attr); under
/// order=greedy it is picked at run time from star sizes. `residual`
/// (the last cycle's) filters the joined rows.
NodeExec ChainJoinExec(size_t cycle, std::vector<const sparql::Expr*> residual,
                       std::shared_ptr<GreedyChain> chain) {
  return [cycle, residual = std::move(residual), chain](
             ExecContext* ctx, const PlanNode& node) -> Status {
    engine::JoinInput left;
    engine::JoinInput right;
    std::string var;
    const std::string* order = FindEntry(node.attrs, "order");
    const bool greedy = order != nullptr && *order == "greedy";
    if (greedy) {
      RAPIDA_RETURN_IF_ERROR(
          NextGreedyEdge(ctx, cycle, chain.get(), &left, &right, &var));
    } else {
      var = detail::EdgeVar(node);
      if (var.empty()) {
        return Status::InvalidArgument(
            "graph pattern is not connected by join variables");
      }
      left = ctx->outputs[node.inputs[0]];
      right = ctx->outputs[node.inputs[1]];
    }
    left.join_column = right.join_column = var;
    engine::RowPredicate post = detail::JoinPostPredicate(
        residual, left, right, &ctx->dataset->graph().dict());
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef joined,
        ctx->rel->Join(node.label + ":join" + std::to_string(cycle),
                       {left, right}, detail::JoinStrategyOf(node), post,
                       detail::FactorizedOutput(node)));
    // The accumulated side is the anchor's input with the joined table
    // swapped in, so an anchor scan's map-side predicate is re-applied in
    // later cycles: a no-op on their rows, but it makes a factorized
    // accumulator stream flat, and the cycles' byte counters depend on it.
    engine::JoinInput acc = std::move(left);
    acc.file = joined.file;
    acc.columns = joined.columns;
    acc.is_vp = false;
    acc.factor = joined.factor;
    acc.flat_bytes = joined.flat_bytes;
    ctx->outputs[node.id] = std::move(acc);
    if (greedy) chain->acc = node.id;
    return Status::OK();
  };
}

/// Exec of one VP scan: its VP input with the pushed filters (or the
/// constant-object equality) as map-side predicate. A scan costing one
/// cycle (a single-triple pattern) also runs the `:scan` projection so
/// downstream stages have a table.
NodeExec VpScanExec(engine::JoinInput in, ntga::StarTriple triple,
                    std::vector<const sparql::Expr*> pushed) {
  return [in = std::move(in), triple = std::move(triple),
          pushed = std::move(pushed)](ExecContext* ctx,
                                      const PlanNode& node) -> Status {
    engine::JoinInput scan = in;
    const rdf::Dictionary& dict = ctx->dataset->graph().dict();
    if (!triple.prop.is_type() && triple.object.is_var) {
      scan.predicate = engine::CompilePredicate(pushed, scan.columns, &dict);
    } else if (!triple.prop.is_type()) {
      rdf::TermId c = dict.Lookup(triple.object.term);
      scan.predicate = [c](const std::vector<rdf::TermId>& row) {
        return row.size() > 1 && row[1] == c && c != rdf::kInvalidTermId;
      };
    }
    if (node.est_cycles == 0) {
      ctx->outputs[node.id] = std::move(scan);
      return Status::OK();
    }
    // One input: nothing to broadcast, so the projection repartitions.
    RAPIDA_ASSIGN_OR_RETURN(
        engine::TableRef table,
        ctx->rel->Join(node.label + ":scan", {scan},
                       engine::JoinStrategy::kRepartition));
    detail::SetOutput(ctx, node, table);
    return Status::OK();
  };
}

/// Emits the node DAG of one star graph's relational evaluation: per-
/// triple VP scans (cost 0 — folded into the consuming join), one star-
/// join cycle per star with 2+ effective inputs, and stars-1 inter-star
/// join cycles. Single-variable filters are pushed into the scan binding
/// their variable, the rest ride the last inter-star join. Scan inputs
/// are sorted inner-first (the runtime join streams input 0). With a
/// dataset, absent partitions are resolved here — an absent optional scan
/// is skipped, an absent required partition short-circuits the pattern to
/// an empty table (zero pattern cycles) — and every node gets its exec.
/// Returns the id of the node producing the pattern table.
int EmitHivePattern(PhysicalPlan* plan, engine::Dataset* dataset,
                    const ntga::StarGraph& pattern,
                    const std::vector<const sparql::Expr*>& filters,
                    const std::set<ntga::PropKey>* outer_secondary,
                    const std::string& label) {
  const bool aware = dataset != nullptr;

  std::vector<bool> filter_used(filters.size(), false);
  auto single_var_filters = [&](const std::string& var) {
    std::vector<const sparql::Expr*> out;
    for (size_t i = 0; i < filters.size(); ++i) {
      if (filter_used[i]) continue;
      std::vector<std::string> vars = detail::ExprVars(*filters[i]);
      if (vars.size() == 1 && vars[0] == var) {
        out.push_back(filters[i]);
        filter_used[i] = true;
      }
    }
    return out;
  };

  std::vector<int> star_ids;  // node producing each star's join input
  int synth = 0;
  for (size_t s = 0; s < pattern.stars.size(); ++s) {
    const ntga::StarPattern& star = pattern.stars[s];
    struct ScanRec {
      int id = 0;
      uint64_t bytes = 0;
      bool outer = false;
    };
    std::vector<ScanRec> scans;
    for (const ntga::StarTriple& t : star.triples) {
      bool outer =
          outer_secondary != nullptr && outer_secondary->count(t.prop) > 0;
      std::vector<std::string> binds{star.subject_var};
      if (!t.prop.is_type()) {
        std::string object_col = t.ObjectVar();
        if (object_col.empty()) object_col = "_c" + std::to_string(synth++);
        binds.push_back(object_col);
      }
      // Single-variable filters are consumed per triple *before* partition
      // presence is checked, so the residual set does not depend on it.
      std::vector<const sparql::Expr*> pushed;
      if (!t.prop.is_type() && t.object.is_var) {
        pushed = single_var_filters(t.object.var);
      }
      std::string file;
      if (aware) {
        const rdf::Dictionary& dict = dataset->graph().dict();
        file = t.prop.is_type()
                   ? dataset->VpTypeFile(dict.LookupIri(t.prop.type_object))
                   : dataset->VpFile(dict.LookupIri(t.prop.property));
        if (file.empty() && outer) continue;  // absent optional: NULLs
      }
      if (aware && file.empty()) {
        PlanNode& empty = plan->AddNode(
            OpKind::kMaterialize, label,
            label + ": empty pattern table (required VP partition absent; "
                    "no cycles run)",
            0);
        empty.Attr("triple", detail::TripleSig(t));
        empty.Info("reason", "vp-partition-missing");
        std::vector<std::string> cols;
        for (const ntga::StarPattern& sp : pattern.stars) {
          cols.push_back(sp.subject_var);
          for (const ntga::StarTriple& st : sp.triples) {
            std::string ov = st.ObjectVar();
            if (!ov.empty() &&
                std::find(cols.begin(), cols.end(), ov) == cols.end()) {
              cols.push_back(ov);
            }
          }
        }
        empty.exec = [cols](ExecContext* ctx, const PlanNode& node) -> Status {
          std::string file = ctx->rel->NextTmp(node.label + ":empty");
          RAPIDA_RETURN_IF_ERROR(
              ctx->dataset->dfs().Write(file, mr::RecordBatch()));
          detail::SetOutput(ctx, node,
                            engine::TableRef{file, cols, nullptr, 0});
          return Status::OK();
        };
        return empty.id;
      }
      PlanNode& scan = plan->AddNode(
          OpKind::kVpScan, label,
          label + ": VP scan [" + detail::TripleSig(t) + "]", 0);
      scan.Attr("prop", t.prop.ToString());
      scan.Attr("subject", star.subject_var);
      if (!t.prop.is_type()) {
        scan.Attr("object", t.object.is_var
                                ? "?" + t.object.var
                                : sparql::ToSparqlText(t.object.term));
      }
      if (outer) scan.Attr("outer", "1");
      for (const sparql::Expr* f : pushed) {
        scan.Attr("pushed_filter", f->ToString());
      }
      scan.Attr("binds", detail::Csv(binds));
      uint64_t bytes = 0;
      if (aware) {
        bytes = dataset->VpFileBytes(file);
        scan.est_bytes = bytes;
        scan.Info("vp_bytes", std::to_string(bytes));
        engine::JoinInput in;
        in.file = file;
        in.columns = binds;
        in.is_vp = true;
        in.join_column = star.subject_var;
        in.outer = outer;
        scan.exec = VpScanExec(std::move(in), t, std::move(pushed));
      }
      scans.push_back(ScanRec{scan.id, bytes, outer});
    }
    // Inner (primary) inputs first — the runtime join streams input 0.
    std::stable_sort(scans.begin(), scans.end(),
                     [](const ScanRec& a, const ScanRec& b) {
                       return !a.outer && b.outer;
                     });

    if (scans.size() == 1) {
      star_ids.push_back(scans[0].id);  // folds into the consuming join
      continue;
    }
    PlanNode& join = plan->AddNode(
        OpKind::kStarJoin, label,
        label + ": star-join (" + std::to_string(scans.size()) +
            " VP tables, same subject key)",
        1);
    for (const ScanRec& r : scans) join.inputs.push_back(r.id);
    join.Attr("subject", star.subject_var);
    if (aware) {
      uint64_t total = 0;
      for (size_t i = 0; i < scans.size(); ++i) {
        join.Info("in" + std::to_string(i) + "_bytes",
                  std::to_string(scans[i].bytes));
        if (scans[i].outer) {
          join.Info("in" + std::to_string(i) + "_outer", "1");
        }
        total += scans[i].bytes;
      }
      join.est_bytes = total;
      join.exec = [s](ExecContext* ctx, const PlanNode& node) -> Status {
        std::vector<engine::JoinInput> inputs;
        for (int in : node.inputs) inputs.push_back(ctx->outputs[in]);
        RAPIDA_ASSIGN_OR_RETURN(
            engine::TableRef joined,
            ctx->rel->Join(node.label + ":star" + std::to_string(s), inputs,
                           detail::JoinStrategyOf(node), nullptr,
                           detail::FactorizedOutput(node)));
        detail::SetOutput(ctx, node, joined);
        return Status::OK();
      };
    }
    star_ids.push_back(join.id);
  }

  if (pattern.stars.size() == 1) {
    PlanNode* tail = plan->FindById(star_ids[0]);
    if (tail->kind == OpKind::kVpScan) {
      // The single-input star was never materialized: its scan runs one
      // projection cycle so downstream stages have a table.
      tail->est_cycles = 1;
      tail->describe = label + ": VP scan (single triple pattern)";
    }
    return star_ids[0];
  }

  // Inter-star join chain: anchor star 0, textual edge order (the greedy
  // pass marks these order=greedy and defers the edge choice to runtime).
  std::vector<const sparql::Expr*> residual;
  for (size_t i = 0; i < filters.size(); ++i) {
    if (!filter_used[i]) residual.push_back(filters[i]);
  }
  std::vector<detail::ChainStep> steps;
  detail::OrderHiveChain(pattern.stars.size(), pattern.joins, {}, &steps);
  std::shared_ptr<GreedyChain> chain;
  if (aware) {
    chain = std::make_shared<GreedyChain>();
    chain->joins = pattern.joins;
    chain->star_ids = star_ids;
  }
  int acc = star_ids[0];
  size_t total = pattern.stars.size() - 1;
  for (size_t c = 0; c < total; ++c) {
    PlanNode& jn = plan->AddNode(OpKind::kReduceJoin, label,
                                 label + ": inter-star join", 1);
    if (c < steps.size()) {
      jn.Attr("edge", "?" + pattern.joins[steps[c].edge].var);
      jn.inputs = {acc, star_ids[steps[c].star]};
    } else {
      // Not connected by join variables; the exec reports the error.
      jn.Attr("edge", "disconnected");
      jn.inputs = {acc};
    }
    const bool last = c + 1 == total;
    if (last) {
      for (const sparql::Expr* f : residual) {
        jn.Attr("residual_filter", f->ToString());
      }
    }
    if (aware) {
      jn.exec = ChainJoinExec(
          c, last ? residual : std::vector<const sparql::Expr*>{}, chain);
    }
    acc = jn.id;
  }
  return acc;
}

/// The relational family's query terminal over its GROUP BY nodes.
void EmitRelationalFinal(PhysicalPlan* plan, const AnalyticalQuery& query,
                         const std::vector<int>& grouping_ids, bool bind) {
  detail::EmitFinal(plan, query, grouping_ids,
                    "final: map-only join of grouping results",
                    "final: driver-side projection of the grouping result", 0,
                    "final (map-only)", bind);
}

/// Everything the MQO rewrite derives from the composite before any job
/// runs: the graph and filters the Q_OPT nodes describe, and what each
/// pattern's extraction and GROUP BY read. The extraction execs own it;
/// the pattern and GROUP BY execs borrow its filters, so it lives as long
/// as the plan.
struct MqoState {
  ntga::CompositePattern comp;
  ntga::StarGraph composite_graph;
  std::set<ntga::PropKey> outer_props;
  std::vector<std::set<std::string>> pattern_sec_vars;
  std::vector<sparql::ExprPtr> composite_filters;
  std::vector<const sparql::Expr*> composite_filter_ptrs;
  std::vector<std::vector<sparql::ExprPtr>> extraction_filters;
  std::vector<sparql::ExprPtr> havings;  // per pattern, translated
};

std::shared_ptr<MqoState> BuildMqoAnalysis(const AnalyticalQuery& query,
                                           ntga::CompositePattern comp) {
  auto st = std::make_shared<MqoState>();
  st->comp = std::move(comp);
  std::vector<std::vector<sparql::ExprPtr>> sec_const_filters(2);
  st->composite_graph =
      engine::CompositeToStarGraph(st->comp, &sec_const_filters);
  for (const ntga::CompositeStar& cs : st->comp.stars) {
    st->outer_props.insert(cs.secondary.begin(), cs.secondary.end());
  }
  st->pattern_sec_vars = {
      engine::SecondaryVars(st->comp, st->composite_graph, 0),
      engine::SecondaryVars(st->comp, st->composite_graph, 1)};

  // Filter classification, replayed from the engine: a filter runs on the
  // composite only when BOTH patterns carry the identical translated
  // filter and it touches no secondary variable; everything else waits for
  // its pattern's extraction (plus the constant-object marker equalities).
  std::vector<std::vector<sparql::ExprPtr>> translated_filters(2);
  std::vector<std::set<std::string>> filter_sigs(2);
  for (size_t p = 0; p < 2; ++p) {
    for (const auto& f : query.groupings[p].filters) {
      sparql::ExprPtr translated = engine::MapExprVars(*f, st->comp.var_map[p]);
      filter_sigs[p].insert(translated->ToString());
      translated_filters[p].push_back(std::move(translated));
    }
  }
  st->extraction_filters.resize(2);
  std::set<std::string> seen_composite;
  for (size_t p = 0; p < 2; ++p) {
    for (sparql::ExprPtr& translated : translated_filters[p]) {
      std::vector<std::string> vars = detail::ExprVars(*translated);
      bool touches_secondary = false;
      for (const std::string& v : vars) {
        if (st->pattern_sec_vars[p].count(v) > 0) touches_secondary = true;
      }
      std::string sig = translated->ToString();
      if (!touches_secondary && filter_sigs[1 - p].count(sig) > 0) {
        if (seen_composite.insert(sig).second) {
          st->composite_filters.push_back(std::move(translated));
        }
        continue;
      }
      st->extraction_filters[p].push_back(std::move(translated));
    }
    for (sparql::ExprPtr& eq : sec_const_filters[p]) {
      st->extraction_filters[p].push_back(std::move(eq));
    }
  }
  for (const auto& f : st->composite_filters) {
    st->composite_filter_ptrs.push_back(f.get());
  }
  return st;
}

}  // namespace

StatusOr<PhysicalPlan> PlanHiveNaive(const AnalyticalQuery& query,
                                     engine::Dataset* dataset,
                                     const engine::EngineOptions& options) {
  // Ensure the VP layout before inspecting it (the build runs no job).
  if (dataset != nullptr) RAPIDA_RETURN_IF_ERROR(dataset->EnsureVpTables());
  const bool bind = dataset != nullptr;

  PhysicalPlan plan;
  plan.engine = "Hive (Naive)";
  plan.tmp_tag = "tmp:hive";
  plan.needs_vp = true;

  std::vector<int> grouping_ids;
  for (size_t g = 0; g < query.groupings.size(); ++g) {
    const GroupingSubquery& grouping = query.groupings[g];
    std::string label = "g" + std::to_string(g);
    int tail_id = detail::EmitGroupingTail(
        &plan, grouping, label, bind,
        [&plan, dataset](const ntga::StarGraph& pattern,
                         const std::vector<sparql::ExprPtr>& filters,
                         const std::string& blabel) {
          std::vector<const sparql::Expr*> fs;
          for (const auto& f : filters) fs.push_back(f.get());
          return EmitHivePattern(&plan, dataset, pattern, fs, nullptr, blabel);
        });
    grouping_ids.push_back(detail::EmitGroupAggregate(
        &plan, label,
        label + ": GROUP BY" + (grouping.group_by.empty() ? " ALL" : ""),
        grouping.group_by, grouping.aggs, grouping.having.get(),
        detail::GroupedColumns(grouping.group_by, grouping.aggs), tail_id,
        bind));
  }
  EmitRelationalFinal(&plan, query, grouping_ids, bind);

  PassManager::Default(options, &query).Run(&plan);
  if (bind) detail::BindDecompress(&plan);
  return plan;
}

StatusOr<PhysicalPlan> PlanHiveMqo(const AnalyticalQuery& query,
                                   engine::Dataset* dataset,
                                   const engine::EngineOptions& options) {
  RAPIDA_ASSIGN_OR_RETURN(engine::CompositeApplicability check,
                          engine::CheckCompositeRewrite(query, false));
  if (!check.applies) {
    RAPIDA_ASSIGN_OR_RETURN(PhysicalPlan plan,
                            PlanHiveNaive(query, dataset, options));
    plan.engine = "Hive (MQO)";
    plan.fallback_reason = check.why;
    return plan;
  }
  if (dataset != nullptr) RAPIDA_RETURN_IF_ERROR(dataset->EnsureVpTables());
  const bool bind = dataset != nullptr;

  std::shared_ptr<MqoState> st = BuildMqoAnalysis(query, std::move(check.comp));

  PhysicalPlan plan;
  plan.engine = "Hive (MQO)";
  plan.tmp_tag = "tmp:mqo";
  plan.needs_vp = true;
  plan.notes.push_back(
      "composite Q_OPT materialized, then per-pattern extraction (early "
      "projection / partial aggregation cannot cross the boundary)");

  // The materialized Q_OPT may stay factorized: the per-pattern DISTINCT
  // extractions dedup to flat tables, so the groupings' aggregates never
  // see weighted input (the factorize pass marks it from those sinks).
  int qopt_id = EmitHivePattern(&plan, dataset, st->composite_graph,
                                st->composite_filter_ptrs, &st->outer_props,
                                "qopt");

  std::vector<int> grouping_ids;
  for (size_t p = 0; p < 2; ++p) {
    const GroupingSubquery& grouping = query.groupings[p];
    std::string label = "p" + std::to_string(p);
    std::vector<std::string> pattern_vars;
    for (const auto& [orig, composite_var] : st->comp.var_map[p]) {
      if (std::find(pattern_vars.begin(), pattern_vars.end(),
                    composite_var) == pattern_vars.end()) {
        pattern_vars.push_back(composite_var);
      }
    }
    PlanNode& ex = plan.AddNode(
        OpKind::kDistinctExtract, label,
        label + ": DISTINCT extraction from materialized Q_OPT", 1);
    ex.inputs = {qopt_id};
    ex.Attr("project", detail::Csv(pattern_vars));
    for (const std::string& v : st->pattern_sec_vars[p]) {
      ex.Attr("require_bound", v);
    }
    for (const auto& f : st->extraction_filters[p]) {
      ex.Attr("filter", f->ToString());
    }
    ex.Attr("uses", detail::Csv(pattern_vars));
    ex.Attr("binds", detail::Csv(pattern_vars));
    if (bind) {
      // Keeps the rows whose pattern-specific (secondary) columns are all
      // bound and that pass the pattern's extraction filters.
      ex.exec = [st, p, pattern_vars](ExecContext* ctx,
                                      const PlanNode& node) -> Status {
        engine::TableRef q_opt = detail::TableOf(*ctx, node.inputs[0]);
        std::vector<const sparql::Expr*> filters;
        for (const auto& f : st->extraction_filters[p]) {
          filters.push_back(f.get());
        }
        engine::RowPredicate filter_pred = engine::CompilePredicate(
            filters, q_opt.columns, &ctx->dataset->graph().dict());
        std::vector<int> sec_idx;
        for (const std::string& v : st->pattern_sec_vars[p]) {
          int i = q_opt.ColumnIndex(v);
          if (i >= 0) sec_idx.push_back(i);
        }
        engine::RowPredicate keep =
            [sec_idx, filter_pred](const std::vector<rdf::TermId>& row) {
              for (int i : sec_idx) {
                if (row[i] == rdf::kInvalidTermId) return false;
              }
              return filter_pred == nullptr || filter_pred(row);
            };
        RAPIDA_ASSIGN_OR_RETURN(
            engine::TableRef extracted,
            ctx->rel->DistinctProject(node.label + ":extract", q_opt,
                                      pattern_vars, keep));
        detail::SetOutput(ctx, node, extracted);
        return Status::OK();
      };
    }

    std::vector<std::string> translated_keys =
        engine::MapVars(grouping.group_by, st->comp.var_map[p]);
    std::vector<ntga::AggSpec> translated_aggs;
    for (const ntga::AggSpec& a : grouping.aggs) {
      ntga::AggSpec ta = a;
      ta.var = engine::MapVar(a.var, st->comp.var_map[p]);
      translated_aggs.push_back(std::move(ta));
    }
    st->havings.push_back(
        grouping.having != nullptr
            ? engine::MapExprVars(*grouping.having, st->comp.var_map[p])
            : nullptr);
    grouping_ids.push_back(detail::EmitGroupAggregate(
        &plan, label, label + ": GROUP BY", translated_keys, translated_aggs,
        st->havings.back().get(),
        detail::GroupedColumns(grouping.group_by, grouping.aggs), ex.id,
        bind));
  }
  EmitRelationalFinal(&plan, query, grouping_ids, bind);

  PassManager::Default(options, &query).Run(&plan);
  if (bind) detail::BindDecompress(&plan);
  return plan;
}

}  // namespace rapida::plan
