#ifndef RAPIDA_SPARQL_AST_H_
#define RAPIDA_SPARQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace rapida::sparql {

/// Renders a constant term the way the SPARQL lexer can read it back:
/// IRIs as <...>, xsd numeric literals bare, other literals quoted (with
/// \" \\ \n \t escapes). Datatypes beyond the numeric ones have no surface
/// syntax in this subset and print as plain quoted strings.
std::string ToSparqlText(rdf::TermView term);

/// A node in a triple pattern: either a variable ("?x") or a constant term.
struct TermOrVar {
  bool is_var = false;
  std::string var;   // without '?', valid when is_var
  rdf::Term term;    // valid when !is_var

  static TermOrVar Var(std::string name) {
    TermOrVar tv;
    tv.is_var = true;
    tv.var = std::move(name);
    return tv;
  }
  static TermOrVar Const(rdf::Term t) {
    TermOrVar tv;
    tv.term = std::move(t);
    return tv;
  }

  friend bool operator==(const TermOrVar& a, const TermOrVar& b) {
    if (a.is_var != b.is_var) return false;
    return a.is_var ? a.var == b.var : a.term == b.term;
  }
};

/// One triple pattern (tp) — an RDF triple with >= 1 variable positions.
struct TriplePattern {
  TermOrVar s;
  TermOrVar p;
  TermOrVar o;

  std::string ToString() const;
};

/// Aggregate functions supported by the analytical subset (SPARQL 1.1 §18.5).
enum class AggFunc {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  /// SPARQL 1.1 SAMPLE: any value from the group. We pick the smallest
  /// term id so every engine returns the same witness deterministically.
  kSample,
  /// SPARQL 1.1 GROUP_CONCAT. Order is implementation-defined in the
  /// standard; we canonicalize by sorting values lexically, which keeps
  /// the operator algebraic (mergeable partials) and engine-independent.
  kGroupConcat,
};

const char* AggFuncName(AggFunc f);

/// Expression tree for FILTERs, SELECT expressions, and aggregates.
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kVar,        // ?x
    kLiteral,    // constant term
    kCompare,    // op in {=, !=, <, <=, >, >=}; children: [lhs, rhs]
    kAnd,        // children: [lhs, rhs]
    kOr,         // children: [lhs, rhs]
    kNot,        // children: [operand]
    kArith,      // op in {+, -, *, /}; children: [lhs, rhs]
    kRegex,      // children: [text]; pattern/flags in regex_* fields
    kBound,      // children: [var expr]
    kAggregate,  // agg over children[0] (or COUNT(*) with no child)
  };

  Kind kind;
  std::string var;          // kVar
  rdf::Term literal;        // kLiteral
  std::string op;           // kCompare / kArith
  AggFunc agg_func = AggFunc::kCount;
  bool agg_distinct = false;
  bool count_star = false;  // COUNT(*)
  std::string regex_pattern;
  std::string regex_flags;
  std::vector<ExprPtr> children;

  /// Deep copy.
  ExprPtr Clone() const;
  /// Collects variable names referenced anywhere in the tree.
  void CollectVars(std::vector<std::string>* out) const;
  /// True if any node in the tree is an aggregate.
  bool HasAggregate() const;
  std::string ToString() const;

  static ExprPtr MakeVar(std::string name);
  static ExprPtr MakeLiteral(rdf::Term t);
  static ExprPtr MakeCompare(std::string op, ExprPtr l, ExprPtr r);
  static ExprPtr MakeBinary(Kind kind, ExprPtr l, ExprPtr r);
  static ExprPtr MakeArith(std::string op, ExprPtr l, ExprPtr r);
  static ExprPtr MakeAggregate(AggFunc f, ExprPtr arg, bool distinct);
};

/// One item in a SELECT clause: a plain variable or "(expr AS ?name)".
struct SelectItem {
  std::string name;  // output variable name (without '?')
  ExprPtr expr;      // null => plain variable projection of `name`

  SelectItem() = default;
  SelectItem(std::string n, ExprPtr e) : name(std::move(n)),
                                         expr(std::move(e)) {}
  SelectItem(const SelectItem& other)
      : name(other.name), expr(other.expr ? other.expr->Clone() : nullptr) {}
  SelectItem& operator=(const SelectItem& other) {
    name = other.name;
    expr = other.expr ? other.expr->Clone() : nullptr;
    return *this;
  }
  SelectItem(SelectItem&&) = default;
  SelectItem& operator=(SelectItem&&) = default;
};

struct SelectQuery;

/// A group graph pattern: the contents of one `{ ... }` block.
struct GroupGraphPattern {
  std::vector<TriplePattern> triples;
  std::vector<ExprPtr> filters;
  std::vector<GroupGraphPattern> optionals;
  /// Arms of the group's UNION, in textual order: `{A} UNION {B} ...`
  /// parses to two-or-more entries here. Empty when the group has no
  /// UNION; a group holds at most one UNION chain (the parser rejects a
  /// second one — arms of a single chain is the only supported shape).
  std::vector<GroupGraphPattern> unions;
  std::vector<std::unique_ptr<SelectQuery>> subqueries;

  GroupGraphPattern() = default;
  GroupGraphPattern(GroupGraphPattern&&) = default;
  GroupGraphPattern& operator=(GroupGraphPattern&&) = default;

  /// All variables bound by triple patterns (recursively, incl. OPTIONAL
  /// and subquery projections).
  void CollectBoundVars(std::vector<std::string>* out) const;
};

/// One ORDER BY key: a variable with a direction.
struct OrderKey {
  std::string var;
  bool descending = false;
};

/// A parsed SELECT query (possibly nested as a subquery).
struct SelectQuery {
  bool distinct = false;
  bool select_all = false;  // SELECT *
  std::vector<SelectItem> items;
  GroupGraphPattern where;
  std::vector<std::string> group_by;  // empty with aggregates => GROUP BY ALL
  /// HAVING condition, evaluated over the query's output columns
  /// (grouping variables and aggregate aliases). Null if absent.
  ExprPtr having;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;   // -1 = no limit
  int64_t offset = 0;

  SelectQuery() = default;
  SelectQuery(SelectQuery&&) = default;
  SelectQuery& operator=(SelectQuery&&) = default;

  /// True if any select item contains an aggregate.
  bool HasAggregates() const;
  /// Output column names in order.
  std::vector<std::string> ColumnNames() const;

  /// Renders the query as parseable SPARQL text: for every query in the
  /// supported subset, ParseQuery(q.ToString()) yields a query that is
  /// Equals() to q (the round-trip property robustness_test enforces).
  /// IRIs print in full <...> form; typed numeric literals print bare.
  std::string ToString() const;
};

/// Structural AST equality (order-sensitive, null-aware for optional
/// expressions). Used by the printer round-trip property and the fuzz
/// shrinker's clone-via-reparse.
bool Equals(const Expr* a, const Expr* b);
bool Equals(const GroupGraphPattern& a, const GroupGraphPattern& b);
bool Equals(const SelectQuery& a, const SelectQuery& b);

}  // namespace rapida::sparql

#endif  // RAPIDA_SPARQL_AST_H_
