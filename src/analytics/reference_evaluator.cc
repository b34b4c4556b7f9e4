#include "analytics/reference_evaluator.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "analytics/aggregates.h"
#include "analytics/value.h"
#include "sparql/expr_eval.h"
#include "util/logging.h"

namespace rapida::analytics {

using sparql::EvalValue;
using sparql::Expr;
using sparql::GroupGraphPattern;
using sparql::SelectItem;
using sparql::SelectQuery;
using sparql::TriplePattern;

namespace {

/// Counts how many positions of `tp` are resolvable (constant or already a
/// column of `table`) — used for greedy join ordering.
int BoundPositions(const TriplePattern& tp, const BindingTable& table) {
  auto bound = [&table](const sparql::TermOrVar& tv) {
    return !tv.is_var || table.VarIndex(tv.var) >= 0;
  };
  return (bound(tp.s) ? 1 : 0) + (bound(tp.p) ? 1 : 0) + (bound(tp.o) ? 1 : 0);
}

/// Evaluates an expression tree that may contain aggregate nodes over the
/// rows of one group. Non-aggregate leaves resolve against the group's
/// first row (they are grouping expressions, constant within the group).
EvalValue EvalWithAggregates(const Expr& expr, const BindingTable& table,
                             const std::vector<size_t>& group_rows,
                             rdf::Dictionary* dict) {
  if (expr.kind == Expr::Kind::kAggregate) {
    Aggregator agg(expr.agg_func, expr.agg_distinct,
                   expr.regex_pattern.empty() ? " " : expr.regex_pattern);
    for (size_t r : group_rows) {
      if (expr.count_star) {
        agg.AddRow();
        continue;
      }
      const Expr& arg = *expr.children[0];
      auto resolve = [&table, r](const std::string& v) {
        int i = table.VarIndex(v);
        return i < 0 ? rdf::kInvalidTermId : table.Row(r)[i];
      };
      if (arg.kind == Expr::Kind::kVar) {
        agg.AddTerm(resolve(arg.var), *dict);
      } else {
        EvalValue v = sparql::EvaluateExpr(arg, resolve, *dict);
        if (v.is_error()) continue;
        if (v.kind == EvalValue::Kind::kNum) {
          agg.AddTerm(InternNumber(dict, v.num), *dict);
        } else if (v.kind == EvalValue::Kind::kTerm) {
          rdf::TermId id = v.term != rdf::kInvalidTermId
                               ? v.term
                               : dict->Intern(*v.term_ptr);
          agg.AddTerm(id, *dict);
        }
      }
    }
    rdf::TermId result = agg.Finalize(dict);
    if (result == rdf::kInvalidTermId) return EvalValue::Error();
    return EvalValue::TermRef(result);
  }

  // Non-aggregate node: recurse if any child aggregates; otherwise
  // evaluate over the first row of the group.
  if (expr.HasAggregate()) {
    // Rebuild a small evaluation by materializing child values. Supported
    // combinators over aggregates: arithmetic and comparisons.
    EvalValue l = EvalWithAggregates(*expr.children[0], table, group_rows,
                                     dict);
    EvalValue r = expr.children.size() > 1
                      ? EvalWithAggregates(*expr.children[1], table,
                                           group_rows, dict)
                      : EvalValue::Error();
    auto nl = sparql::ToNumber(l, *dict);
    auto nr = sparql::ToNumber(r, *dict);
    if (expr.kind == Expr::Kind::kArith) {
      if (!nl.has_value() || !nr.has_value()) return EvalValue::Error();
      if (expr.op == "+") return EvalValue::Number(*nl + *nr);
      if (expr.op == "-") return EvalValue::Number(*nl - *nr);
      if (expr.op == "*") return EvalValue::Number(*nl * *nr);
      if (expr.op == "/") {
        if (*nr == 0) return EvalValue::Error();
        return EvalValue::Number(*nl / *nr);
      }
    }
    return EvalValue::Error();
  }

  RAPIDA_CHECK(!group_rows.empty());
  size_t r0 = group_rows[0];
  auto resolve = [&table, r0](const std::string& v) {
    int i = table.VarIndex(v);
    return i < 0 ? rdf::kInvalidTermId : table.Row(r0)[i];
  };
  return sparql::EvaluateExpr(expr, resolve, *dict);
}

/// Interns the result of an expression evaluation as a term id
/// (kInvalidTermId for errors — rendered as unbound).
rdf::TermId ValueToTermId(const EvalValue& v, rdf::Dictionary* dict) {
  switch (v.kind) {
    case EvalValue::Kind::kError:
      return rdf::kInvalidTermId;
    case EvalValue::Kind::kBool:
      return dict->InternLiteral(v.b ? "true" : "false");
    case EvalValue::Kind::kNum:
      return InternNumber(dict, v.num);
    case EvalValue::Kind::kTerm:
      return v.term != rdf::kInvalidTermId ? v.term
                                           : dict->Intern(*v.term_ptr);
  }
  return rdf::kInvalidTermId;
}

}  // namespace

ReferenceEvaluator::ReferenceEvaluator(rdf::Graph* graph)
    : graph_(graph), index_(*graph) {}

rdf::TermId ReferenceEvaluator::ResolveConst(const rdf::Term& term) const {
  return graph_->dict().Lookup(term);
}

StatusOr<BindingTable> ReferenceEvaluator::Evaluate(const SelectQuery& query) {
  RAPIDA_ASSIGN_OR_RETURN(BindingTable table, EvaluatePattern(query.where));
  RAPIDA_ASSIGN_OR_RETURN(BindingTable result,
                          ApplyGroupingAndSelect(query, table));
  if (query.having != nullptr) {
    FilterRowsByExpr(&result, *query.having, graph_->dict());
  }
  ApplyOrderLimit(&result, query.order_by, query.limit, query.offset,
                  graph_->dict());
  return result;
}

StatusOr<BindingTable> ReferenceEvaluator::EvaluatePattern(
    const GroupGraphPattern& pattern) {
  RAPIDA_ASSIGN_OR_RETURN(BindingTable table, EvaluateBgp(pattern.triples));

  // Join in subquery results (SPARQL bottom-up semantics).
  for (const auto& sub : pattern.subqueries) {
    RAPIDA_ASSIGN_OR_RETURN(BindingTable sub_result, Evaluate(*sub));
    table = table.Join(sub_result);
  }

  // UNION: each arm joins the surrounding conjunctive part independently
  // (join distributes over union), then the branches concatenate with
  // column alignment — absent columns read as unbound. This mirrors the
  // engines' union-distribution lowering, and OPTIONAL below distributes
  // over the union because left-join distributes over its left input.
  if (!pattern.unions.empty()) {
    BindingTable unioned;
    for (size_t i = 0; i < pattern.unions.size(); ++i) {
      RAPIDA_ASSIGN_OR_RETURN(BindingTable arm,
                              EvaluatePattern(pattern.unions[i]));
      BindingTable branch = table.Join(arm);
      if (i == 0) {
        unioned = std::move(branch);
      } else {
        unioned.UnionAll(branch);
      }
    }
    table = std::move(unioned);
  }

  // Left-join OPTIONAL blocks.
  for (const GroupGraphPattern& opt : pattern.optionals) {
    RAPIDA_ASSIGN_OR_RETURN(BindingTable opt_result, EvaluatePattern(opt));
    table = table.LeftJoin(opt_result);
  }

  // FILTERs.
  if (!pattern.filters.empty()) {
    BindingTable filtered(table.vars());
    for (const std::span<const rdf::TermId> row : table.rows()) {
      bool keep = true;
      auto resolve = [&table, &row](const std::string& v) {
        int i = table.VarIndex(v);
        return i < 0 ? rdf::kInvalidTermId : row[i];
      };
      for (const auto& f : pattern.filters) {
        if (!sparql::EffectiveBool(
                sparql::EvaluateExpr(*f, resolve, graph_->dict()))) {
          keep = false;
          break;
        }
      }
      if (keep) filtered.AddRow(row);
    }
    table = std::move(filtered);
  }
  return table;
}

StatusOr<BindingTable> ReferenceEvaluator::EvaluateBgp(
    const std::vector<TriplePattern>& triples) {
  // Start with the unit table (one empty row) and extend greedily by the
  // most-bound triple pattern.
  BindingTable table{std::vector<std::string>{}};
  table.AddRow({});
  std::vector<bool> used(triples.size(), false);
  for (size_t step = 0; step < triples.size(); ++step) {
    int best = -1;
    int best_bound = -1;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (used[i]) continue;
      int b = BoundPositions(triples[i], table);
      if (b > best_bound) {
        best_bound = b;
        best = static_cast<int>(i);
      }
    }
    used[best] = true;
    RAPIDA_RETURN_IF_ERROR(ExtendByTriplePattern(triples[best], &table));
    // No early exit on an empty intermediate: the remaining patterns must
    // still contribute their columns (a GROUP BY over a variable they bind
    // needs the column to exist even when there are zero solutions), and
    // extending an empty table is free — the row loop never runs.
  }
  return table;
}

Status ReferenceEvaluator::ExtendByTriplePattern(const TriplePattern& tp,
                                                 BindingTable* table) {
  // Resolve each position: constant id, existing column index, or new var.
  struct Pos {
    bool is_const = false;
    rdf::TermId const_id = rdf::kInvalidTermId;
    int col = -1;           // existing column
    std::string new_var;    // non-empty if this introduces a variable
  };
  auto classify = [&](const sparql::TermOrVar& tv) {
    Pos p;
    if (!tv.is_var) {
      p.is_const = true;
      p.const_id = ResolveConst(tv.term);
      return p;
    }
    p.col = table->VarIndex(tv.var);
    if (p.col < 0) p.new_var = tv.var;
    return p;
  };
  Pos sp = classify(tp.s);
  Pos pp = classify(tp.p);
  Pos op = classify(tp.o);

  // A constant that is absent from the dictionary can never match.
  bool dead = (sp.is_const && sp.const_id == rdf::kInvalidTermId) ||
              (pp.is_const && pp.const_id == rdf::kInvalidTermId) ||
              (op.is_const && op.const_id == rdf::kInvalidTermId);

  std::vector<std::string> out_vars = table->vars();
  // Track duplicate new variables within this pattern (?x p ?x).
  bool s_eq_o_new = !sp.new_var.empty() && sp.new_var == op.new_var;
  if (!sp.new_var.empty()) out_vars.push_back(sp.new_var);
  if (!pp.new_var.empty()) out_vars.push_back(pp.new_var);
  if (!op.new_var.empty() && !s_eq_o_new) out_vars.push_back(op.new_var);
  BindingTable out(out_vars);
  if (dead) {
    *table = std::move(out);
    return Status::OK();
  }

  std::vector<rdf::TermId> new_row;
  for (const std::span<const rdf::TermId> row : table->rows()) {
    auto id_of = [&row](const Pos& p) {
      if (p.is_const) return p.const_id;
      if (p.col >= 0) return row[p.col];
      return rdf::kInvalidTermId;  // new variable
    };
    rdf::TermId s_id = id_of(sp);
    rdf::TermId p_id = id_of(pp);
    rdf::TermId o_id = id_of(op);

    auto emit = [&](rdf::TermId s, rdf::TermId p, rdf::TermId o) {
      if (s_eq_o_new && s != o) return;
      new_row.assign(row.begin(), row.end());
      if (!sp.new_var.empty()) new_row.push_back(s);
      if (!pp.new_var.empty()) new_row.push_back(p);
      if (!op.new_var.empty() && !s_eq_o_new) new_row.push_back(o);
      out.AddRow(new_row);
    };

    if (p_id != rdf::kInvalidTermId) {
      if (s_id != rdf::kInvalidTermId && o_id != rdf::kInvalidTermId) {
        if (index_.Contains(s_id, p_id, o_id)) emit(s_id, p_id, o_id);
      } else if (s_id != rdf::kInvalidTermId) {
        for (rdf::TermId o : index_.Objects(p_id, s_id)) emit(s_id, p_id, o);
      } else if (o_id != rdf::kInvalidTermId) {
        for (rdf::TermId s : index_.Subjects(p_id, o_id)) emit(s, p_id, o_id);
      } else {
        for (const auto& [s, o] : index_.ByProperty(p_id)) emit(s, p_id, o);
      }
    } else {
      // Unbound property: full scan (rare; unbound-property patterns are
      // out of the paper's optimization scope but supported for
      // completeness).
      for (const rdf::Triple& t : graph_->triples()) {
        if (s_id != rdf::kInvalidTermId && t.s != s_id) continue;
        if (o_id != rdf::kInvalidTermId && t.o != o_id) continue;
        emit(t.s, t.p, t.o);
      }
    }
  }
  *table = std::move(out);
  return Status::OK();
}

StatusOr<BindingTable> ReferenceEvaluator::ApplyGroupingAndSelect(
    const SelectQuery& query, const BindingTable& input) {
  rdf::Dictionary* dict = &graph_->dict();

  if (query.select_all) {
    BindingTable out = input;
    if (query.distinct) out.Distinct();
    return out;
  }

  bool grouped = query.HasAggregates() || !query.group_by.empty();
  if (!grouped) {
    // Row-wise projection with optional computed expressions.
    std::vector<std::string> names = query.ColumnNames();
    BindingTable out(names);
    out.ReserveRows(input.NumRows());
    std::vector<rdf::TermId> out_row;
    for (const std::span<const rdf::TermId> row : input.rows()) {
      auto resolve = [&input, &row](const std::string& v) {
        int i = input.VarIndex(v);
        return i < 0 ? rdf::kInvalidTermId : row[i];
      };
      out_row.clear();
      for (const SelectItem& item : query.items) {
        if (item.expr == nullptr) {
          out_row.push_back(resolve(item.name));
        } else {
          EvalValue v = sparql::EvaluateExpr(*item.expr, resolve, *dict);
          out_row.push_back(ValueToTermId(v, dict));
        }
      }
      out.AddRow(out_row);
    }
    if (query.distinct) out.Distinct();
    return out;
  }

  // Grouped evaluation. GROUP BY ALL (empty group_by with aggregates)
  // produces exactly one group — even over zero input rows (SPARQL
  // semantics: aggregates over the empty group, COUNT = 0).
  std::vector<int> key_cols;
  key_cols.reserve(query.group_by.size());
  for (const std::string& v : query.group_by) {
    int i = input.VarIndex(v);
    if (i < 0) {
      return Status::InvalidArgument("GROUP BY variable ?" + v +
                                     " not bound by pattern");
    }
    key_cols.push_back(i);
  }

  std::map<std::vector<rdf::TermId>, std::vector<size_t>> groups;
  for (size_t r = 0; r < input.NumRows(); ++r) {
    std::vector<rdf::TermId> key;
    key.reserve(key_cols.size());
    for (int c : key_cols) key.push_back(input.Row(r)[c]);
    groups[std::move(key)].push_back(r);
  }
  if (query.group_by.empty() && groups.empty()) {
    groups[{}] = {};  // the single empty ALL-group
  }

  std::vector<std::string> names = query.ColumnNames();
  BindingTable out(names);
  out.ReserveRows(groups.size());
  std::vector<rdf::TermId> out_row;
  for (const auto& [key, rows] : groups) {
    out_row.clear();
    for (const SelectItem& item : query.items) {
      if (item.expr == nullptr) {
        // Plain variable: must be one of the grouping variables.
        int gi = -1;
        for (size_t k = 0; k < query.group_by.size(); ++k) {
          if (query.group_by[k] == item.name) {
            gi = static_cast<int>(k);
            break;
          }
        }
        if (gi < 0) {
          return Status::InvalidArgument(
              "projected variable ?" + item.name +
              " is neither aggregated nor in GROUP BY");
        }
        out_row.push_back(key[gi]);
      } else if (rows.empty()) {
        // Empty ALL-group: aggregates over no rows.
        Aggregator agg(item.expr->agg_func, false,
                       item.expr->regex_pattern.empty()
                           ? " "
                           : item.expr->regex_pattern);
        out_row.push_back(item.expr->kind == Expr::Kind::kAggregate
                              ? agg.Finalize(dict)
                              : rdf::kInvalidTermId);
      } else {
        EvalValue v = EvalWithAggregates(*item.expr, input, rows, dict);
        out_row.push_back(ValueToTermId(v, dict));
      }
    }
    out.AddRow(out_row);
  }
  if (query.distinct) out.Distinct();
  return out;
}

}  // namespace rapida::analytics
