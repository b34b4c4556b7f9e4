#ifndef RAPIDA_PLAN_PLANNER_UTIL_H_
#define RAPIDA_PLAN_PLANNER_UTIL_H_

/// Internal helpers shared by the per-engine planners. Everything here
/// feeds node *attrs* (identity, fingerprinted), *info* (display-only) or
/// edges; execution reads it only through the nodes.

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "ntga/star_pattern.h"
#include "plan/plan.h"
#include "sparql/ast.h"

namespace rapida::plan::detail {

inline std::string Csv(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out;
}

inline std::vector<std::string> ExprVars(const sparql::Expr& e) {
  std::vector<std::string> vars;
  e.CollectVars(&vars);
  return vars;
}

/// Identity signature of one triple pattern: property key plus object
/// (variable or constant). Constants MUST be part of the signature — two
/// plans differing only in a compared constant are different queries.
inline std::string TripleSig(const ntga::StarTriple& t) {
  std::string sig = t.prop.ToString();
  if (!t.prop.is_type()) {
    sig += t.object.is_var ? ("->?" + t.object.var)
                           : ("->" + sparql::ToSparqlText(t.object.term));
  }
  return sig;
}

inline std::string AggSig(const ntga::AggSpec& a) {
  std::string arg = a.count_star ? "*" : a.var;
  if (!a.separator.empty()) arg += ";sep=" + a.separator;
  return std::string(sparql::AggFuncName(a.func)) + "(" + arg + ")->" +
         a.output_name;
}

/// A grouping's output columns: its keys, then its aggregates' names.
inline std::vector<std::string> GroupedColumns(
    const std::vector<std::string>& keys,
    const std::vector<ntga::AggSpec>& aggs) {
  std::vector<std::string> columns = keys;
  for (const ntga::AggSpec& a : aggs) columns.push_back(a.output_name);
  return columns;
}

/// Records a grouping-aggregation's identity on its node, a relational
/// GROUP BY or a TG Agg-Join alike: the keys, each aggregate's signature,
/// HAVING, the variables it reads (`uses`) and the columns it names
/// (`binds`).
inline void AddAggAttrs(PlanNode* node, const std::vector<std::string>& keys,
                        const std::vector<ntga::AggSpec>& aggs,
                        const sparql::Expr* having,
                        const std::vector<std::string>& output_columns) {
  node->Attr("group_by", Csv(keys));
  for (size_t i = 0; i < aggs.size(); ++i) {
    node->Attr("agg" + std::to_string(i), AggSig(aggs[i]));
  }
  if (having != nullptr) node->Attr("having", having->ToString());
  std::vector<std::string> uses = keys;
  for (const ntga::AggSpec& a : aggs) {
    if (!a.count_star) uses.push_back(a.var);
  }
  node->Attr("uses", Csv(uses));
  node->Attr("binds", Csv(output_columns));
}

/// Records the query-level solution modifiers and SELECT list on the
/// plan's terminal node, completing the fingerprint's semantic coverage.
inline void AddModifierAttrs(PlanNode* node,
                             const analytics::AnalyticalQuery& query) {
  for (size_t i = 0; i < query.top_items.size(); ++i) {
    const sparql::SelectItem& item = query.top_items[i];
    node->Attr("item" + std::to_string(i),
               item.name + (item.expr != nullptr
                                ? "=" + item.expr->ToString()
                                : ""));
  }
  if (query.top_distinct) node->Attr("distinct", "1");
  for (size_t i = 0; i < query.order_by.size(); ++i) {
    node->Attr("order" + std::to_string(i),
               query.order_by[i].var +
                   (query.order_by[i].descending ? " desc" : " asc"));
  }
  if (query.limit >= 0) node->Attr("limit", std::to_string(query.limit));
  if (query.offset > 0) node->Attr("offset", std::to_string(query.offset));
}

/// Variables the final projection consumes (for dead-column liveness).
inline std::vector<std::string> ModifierUses(
    const analytics::AnalyticalQuery& query) {
  std::vector<std::string> uses;
  for (const sparql::SelectItem& item : query.top_items) {
    if (item.expr != nullptr) {
      for (const std::string& v : ExprVars(*item.expr)) uses.push_back(v);
    } else {
      uses.push_back(item.name);
    }
  }
  for (const sparql::OrderKey& k : query.order_by) uses.push_back(k.var);
  return uses;
}

/// One cycle of an inter-star join chain: the edge it joins on and the
/// star it pulls in.
struct ChainStep {
  size_t edge = 0;
  int star = 0;
};

/// The inter-star join chain's order, and the only copy of its rule: start
/// at the smallest star by `sizes`, then each cycle takes the pending edge
/// reaching the smallest star not yet joined (ties go to the first star /
/// the textually first edge). With no sizes that is the textual order —
/// star 0, then always the first pending edge — which the chain nodes'
/// inputs and `edge` attrs record; under order=greedy the chain execs
/// call it at run time with the stars' stored sizes. Appends the cycles to
/// `steps` and returns the anchor star; fewer than stars-1 steps means the
/// pattern is not connected (the exec reports that error).
inline int OrderHiveChain(size_t num_stars,
                          const std::vector<ntga::JoinEdge>& joins,
                          std::vector<uint64_t> sizes,
                          std::vector<ChainStep>* steps) {
  sizes.resize(num_stars, 0);
  int anchor = 0;
  for (size_t s = 1; s < num_stars; ++s) {
    if (sizes[s] < sizes[anchor]) anchor = static_cast<int>(s);
  }
  std::vector<bool> joined(num_stars, false);
  std::vector<bool> done(joins.size(), false);
  if (num_stars > 0) joined[anchor] = true;
  for (size_t c = 0; c + 1 < num_stars; ++c) {
    ChainStep step;
    bool found = false;
    for (size_t e = 0; e < joins.size(); ++e) {
      if (done[e]) continue;
      const ntga::JoinEdge& edge = joins[e];
      int candidate = -1;
      if (joined[edge.star_a] && !joined[edge.star_b]) {
        candidate = edge.star_b;
      } else if (joined[edge.star_b] && !joined[edge.star_a]) {
        candidate = edge.star_a;
      }
      if (candidate >= 0 && (!found || sizes[candidate] < sizes[step.star])) {
        step = ChainStep{e, candidate};
        found = true;
      }
    }
    if (!found) break;  // disconnected
    done[step.edge] = true;
    joined[step.star] = true;
    steps->push_back(step);
  }
  return anchor;
}

/// The α-join chain's order, and the only copy of its rule: the first
/// cycle takes the edge whose two stars are smallest together by `sizes`
/// and anchors its first star; each later cycle takes the pending edge
/// reaching the smallest star not yet joined. Ties go to the textually
/// first edge. With no sizes that is the textual order (the first edge,
/// then always the first pending edge with one star joined), which the
/// planner records in the α-join nodes' `edge` attrs; under order=greedy
/// the first α-join exec calls it with the stars' covering triplegroup
/// bytes. Each step's `star` is the star its cycle pulls in; the edge's
/// other star is on the accumulated side. Fewer than stars-1 steps means
/// the pattern is not connected (the exec reports that error).
inline std::vector<ChainStep> OrderNtgaChain(
    size_t num_stars, const std::vector<ntga::JoinEdge>& joins,
    std::vector<uint64_t> sizes) {
  sizes.resize(num_stars, 0);
  std::vector<bool> joined(num_stars, false);
  std::vector<bool> done(joins.size(), false);
  std::vector<ChainStep> steps;
  for (size_t c = 0; c + 1 < num_stars; ++c) {
    int pick = -1;
    uint64_t best = 0;
    for (size_t e = 0; e < joins.size(); ++e) {
      if (done[e]) continue;
      const ntga::JoinEdge& edge = joins[e];
      uint64_t cost = 0;
      if (c == 0) {
        cost = sizes[edge.star_a] + sizes[edge.star_b];
      } else if (joined[edge.star_a] != joined[edge.star_b]) {
        cost = sizes[joined[edge.star_a] ? edge.star_b : edge.star_a];
      } else {
        continue;
      }
      if (pick < 0 || cost < best) {
        pick = static_cast<int>(e);
        best = cost;
      }
    }
    if (pick < 0) break;  // disconnected
    const ntga::JoinEdge& edge = joins[pick];
    int star = c == 0 || joined[edge.star_a] ? edge.star_b : edge.star_a;
    done[pick] = true;
    joined[edge.star_a] = joined[edge.star_b] = true;
    steps.push_back(ChainStep{static_cast<size_t>(pick), star});
  }
  return steps;
}

}  // namespace rapida::plan::detail

#endif  // RAPIDA_PLAN_PLANNER_UTIL_H_
