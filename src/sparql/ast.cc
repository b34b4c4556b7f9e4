#include "sparql/ast.h"

#include <algorithm>

namespace rapida::sparql {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kSample:
      return "SAMPLE";
    case AggFunc::kGroupConcat:
      return "GROUP_CONCAT";
  }
  return "?";
}

std::string ToSparqlText(rdf::TermView term) {
  if (term.is_iri() || term.is_blank()) return term.ToNTriples();
  if (term.datatype == rdf::kXsdInteger) return std::string(term.text);
  if (term.datatype == rdf::kXsdDouble) {
    std::string out(term.text);
    // The lexer only reads a decimal if it sees '.' or an exponent.
    if (out.find_first_of(".eE") == std::string::npos) out += ".0";
    return out;
  }
  std::string out = "\"";
  for (char c : term.text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string TriplePattern::ToString() const {
  auto one = [](const TermOrVar& tv) {
    return tv.is_var ? "?" + tv.var : ToSparqlText(tv.term);
  };
  return one(s) + " " + one(p) + " " + one(o);
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->var = var;
  out->literal = literal;
  out->op = op;
  out->agg_func = agg_func;
  out->agg_distinct = agg_distinct;
  out->count_star = count_star;
  out->regex_pattern = regex_pattern;
  out->regex_flags = regex_flags;
  for (const ExprPtr& c : children) out->children.push_back(c->Clone());
  return out;
}

void Expr::CollectVars(std::vector<std::string>* out) const {
  if (kind == Kind::kVar) {
    if (std::find(out->begin(), out->end(), var) == out->end()) {
      out->push_back(var);
    }
  }
  for (const ExprPtr& c : children) c->CollectVars(out);
}

bool Expr::HasAggregate() const {
  if (kind == Kind::kAggregate) return true;
  for (const ExprPtr& c : children) {
    if (c->HasAggregate()) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kVar:
      return "?" + var;
    case Kind::kLiteral:
      return ToSparqlText(literal);
    case Kind::kCompare:
    case Kind::kArith:
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    case Kind::kAnd:
      return "(" + children[0]->ToString() + " && " +
             children[1]->ToString() + ")";
    case Kind::kOr:
      return "(" + children[0]->ToString() + " || " +
             children[1]->ToString() + ")";
    case Kind::kNot:
      return "!(" + children[0]->ToString() + ")";
    case Kind::kRegex:
      return "regex(" + children[0]->ToString() + ", " +
             ToSparqlText(rdf::Term::Literal(regex_pattern)) + ", " +
             ToSparqlText(rdf::Term::Literal(regex_flags)) + ")";
    case Kind::kBound:
      return "bound(" + children[0]->ToString() + ")";
    case Kind::kAggregate: {
      std::string arg = count_star ? "*" : children[0]->ToString();
      std::string d = agg_distinct ? "DISTINCT " : "";
      std::string sep;  // regex_pattern doubles as the GROUP_CONCAT separator
      if (agg_func == AggFunc::kGroupConcat && regex_pattern != " ") {
        sep = "; SEPARATOR = " +
              ToSparqlText(rdf::Term::Literal(regex_pattern));
      }
      return std::string(AggFuncName(agg_func)) + "(" + d + arg + sep + ")";
    }
  }
  return "?expr?";
}

ExprPtr Expr::MakeVar(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Expr::MakeLiteral(rdf::Term t) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(t);
  return e;
}

ExprPtr Expr::MakeCompare(std::string op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCompare;
  e->op = std::move(op);
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Expr::MakeBinary(Kind kind, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Expr::MakeArith(std::string op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kArith;
  e->op = std::move(op);
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Expr::MakeAggregate(AggFunc f, ExprPtr arg, bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAggregate;
  e->agg_func = f;
  e->agg_distinct = distinct;
  if (arg == nullptr) {
    e->count_star = true;
  } else {
    e->children.push_back(std::move(arg));
  }
  return e;
}

void GroupGraphPattern::CollectBoundVars(std::vector<std::string>* out) const {
  auto add = [out](const std::string& v) {
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
  };
  for (const TriplePattern& tp : triples) {
    if (tp.s.is_var) add(tp.s.var);
    if (tp.p.is_var) add(tp.p.var);
    if (tp.o.is_var) add(tp.o.var);
  }
  for (const GroupGraphPattern& opt : optionals) opt.CollectBoundVars(out);
  for (const GroupGraphPattern& arm : unions) arm.CollectBoundVars(out);
  for (const auto& sq : subqueries) {
    for (const std::string& name : sq->ColumnNames()) add(name);
  }
}

bool SelectQuery::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.expr && item.expr->HasAggregate()) return true;
  }
  return false;
}

std::vector<std::string> SelectQuery::ColumnNames() const {
  std::vector<std::string> out;
  if (select_all) {
    where.CollectBoundVars(&out);
    return out;
  }
  out.reserve(items.size());
  for (const SelectItem& item : items) out.push_back(item.name);
  return out;
}

}  // namespace rapida::sparql
