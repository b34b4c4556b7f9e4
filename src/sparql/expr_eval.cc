#include "sparql/expr_eval.h"

#include "util/string_util.h"

namespace rapida::sparql {

namespace {

/// Three-way comparison; nullopt when incomparable (type error).
std::optional<int> Compare(const EvalValue& a, const EvalValue& b,
                           const rdf::Dictionary& dict) {
  // Numeric comparison dominates when both sides coerce.
  auto na = ToNumber(a, dict);
  auto nb = ToNumber(b, dict);
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  if (a.kind == EvalValue::Kind::kBool && b.kind == EvalValue::Kind::kBool) {
    return (a.b ? 1 : 0) - (b.b ? 1 : 0);
  }
  std::optional<rdf::TermView> ta = GetTerm(a, dict);
  std::optional<rdf::TermView> tb = GetTerm(b, dict);
  if (!ta.has_value() || !tb.has_value()) return std::nullopt;
  // Different term kinds are incomparable (SPARQL type error); callers
  // resolve '=' to false and '!=' to true.
  if (ta->kind != tb->kind) return std::nullopt;
  int c = ta->text.compare(tb->text);
  if (c != 0) return c < 0 ? -1 : 1;
  // Plain literals and typed string-ish literals with the same text are
  // treated as equal: the paper's queries compare plain strings only.
  return 0;
}

}  // namespace

std::optional<rdf::TermView> GetTerm(const EvalValue& v,
                                     const rdf::Dictionary& dict) {
  if (v.kind != EvalValue::Kind::kTerm) return std::nullopt;
  if (v.term_ptr != nullptr) return *v.term_ptr;
  if (v.term == rdf::kInvalidTermId) return std::nullopt;
  return dict.Get(v.term);
}

std::optional<double> ToNumber(const EvalValue& v,
                               const rdf::Dictionary& dict) {
  switch (v.kind) {
    case EvalValue::Kind::kNum:
      return v.num;
    case EvalValue::Kind::kTerm: {
      std::optional<rdf::TermView> t = GetTerm(v, dict);
      if (!t.has_value() || !t->is_literal()) return std::nullopt;
      double d = 0;
      if (!ParseDouble(t->text, &d)) return std::nullopt;
      return d;
    }
    default:
      return std::nullopt;
  }
}

bool EffectiveBool(const EvalValue& v) {
  switch (v.kind) {
    case EvalValue::Kind::kError:
      return false;
    case EvalValue::Kind::kBool:
      return v.b;
    case EvalValue::Kind::kNum:
      return v.num != 0;
    case EvalValue::Kind::kTerm: {
      return true;  // bound RDF terms are truthy in our subset
    }
  }
  return false;
}

EvalValue EvaluateExpr(const Expr& expr, const VarResolver& resolve,
                       const rdf::Dictionary& dict) {
  switch (expr.kind) {
    case Expr::Kind::kVar: {
      rdf::TermId id = resolve(expr.var);
      if (id == rdf::kInvalidTermId) return EvalValue::Error();
      return EvalValue::TermRef(id);
    }
    case Expr::Kind::kLiteral:
      return EvalValue::QueryTerm(&expr.literal);
    case Expr::Kind::kCompare: {
      EvalValue l = EvaluateExpr(*expr.children[0], resolve, dict);
      EvalValue r = EvaluateExpr(*expr.children[1], resolve, dict);
      if (l.is_error() || r.is_error()) return EvalValue::Error();
      std::optional<int> c = Compare(l, r, dict);
      if (!c.has_value()) {
        // Incomparable values: equality is decidable (false), ordering is
        // a type error.
        if (expr.op == "=") return EvalValue::Bool(false);
        if (expr.op == "!=") return EvalValue::Bool(true);
        return EvalValue::Error();
      }
      if (expr.op == "=") return EvalValue::Bool(*c == 0);
      if (expr.op == "!=") return EvalValue::Bool(*c != 0);
      if (expr.op == "<") return EvalValue::Bool(*c < 0);
      if (expr.op == "<=") return EvalValue::Bool(*c <= 0);
      if (expr.op == ">") return EvalValue::Bool(*c > 0);
      if (expr.op == ">=") return EvalValue::Bool(*c >= 0);
      return EvalValue::Error();
    }
    case Expr::Kind::kAnd: {
      // SPARQL 3-valued logic: error && false = false.
      EvalValue l = EvaluateExpr(*expr.children[0], resolve, dict);
      EvalValue r = EvaluateExpr(*expr.children[1], resolve, dict);
      bool lb = EffectiveBool(l);
      bool rb = EffectiveBool(r);
      if (l.is_error() && r.is_error()) return EvalValue::Error();
      if (l.is_error()) return rb ? EvalValue::Error() : EvalValue::Bool(false);
      if (r.is_error()) return lb ? EvalValue::Error() : EvalValue::Bool(false);
      return EvalValue::Bool(lb && rb);
    }
    case Expr::Kind::kOr: {
      EvalValue l = EvaluateExpr(*expr.children[0], resolve, dict);
      EvalValue r = EvaluateExpr(*expr.children[1], resolve, dict);
      bool lb = EffectiveBool(l);
      bool rb = EffectiveBool(r);
      if (l.is_error() && r.is_error()) return EvalValue::Error();
      if (l.is_error()) return rb ? EvalValue::Bool(true) : EvalValue::Error();
      if (r.is_error()) return lb ? EvalValue::Bool(true) : EvalValue::Error();
      return EvalValue::Bool(lb || rb);
    }
    case Expr::Kind::kNot: {
      EvalValue v = EvaluateExpr(*expr.children[0], resolve, dict);
      if (v.is_error()) return EvalValue::Error();
      return EvalValue::Bool(!EffectiveBool(v));
    }
    case Expr::Kind::kArith: {
      EvalValue l = EvaluateExpr(*expr.children[0], resolve, dict);
      EvalValue r = EvaluateExpr(*expr.children[1], resolve, dict);
      auto nl = ToNumber(l, dict);
      auto nr = ToNumber(r, dict);
      if (!nl.has_value() || !nr.has_value()) return EvalValue::Error();
      if (expr.op == "+") return EvalValue::Number(*nl + *nr);
      if (expr.op == "-") return EvalValue::Number(*nl - *nr);
      if (expr.op == "*") return EvalValue::Number(*nl * *nr);
      if (expr.op == "/") {
        if (*nr == 0) return EvalValue::Error();
        return EvalValue::Number(*nl / *nr);
      }
      return EvalValue::Error();
    }
    case Expr::Kind::kRegex: {
      EvalValue v = EvaluateExpr(*expr.children[0], resolve, dict);
      std::optional<rdf::TermView> t = GetTerm(v, dict);
      if (!t.has_value()) return EvalValue::Error();
      // The catalog (and the paper's queries) only uses substring regexes,
      // optionally case-insensitive.
      bool ci = expr.regex_flags.find('i') != std::string::npos;
      bool match = ci ? ContainsIgnoreCase(t->text, expr.regex_pattern)
                      : t->text.find(expr.regex_pattern) != std::string::npos;
      return EvalValue::Bool(match);
    }
    case Expr::Kind::kBound: {
      const Expr& v = *expr.children[0];
      if (v.kind != Expr::Kind::kVar) return EvalValue::Error();
      return EvalValue::Bool(resolve(v.var) != rdf::kInvalidTermId);
    }
    case Expr::Kind::kAggregate:
      // Aggregates are evaluated by the grouping layer, never here.
      return EvalValue::Error();
  }
  return EvalValue::Error();
}

}  // namespace rapida::sparql
