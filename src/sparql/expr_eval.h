#ifndef RAPIDA_SPARQL_EXPR_EVAL_H_
#define RAPIDA_SPARQL_EXPR_EVAL_H_

#include <functional>
#include <optional>
#include <string>

#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace rapida::sparql {

/// Result of evaluating a (non-aggregate) expression over one solution
/// mapping. kError models SPARQL's error value: filters treat it as false.
struct EvalValue {
  enum class Kind { kError, kBool, kNum, kTerm };

  Kind kind = Kind::kError;
  bool b = false;
  double num = 0;
  rdf::TermId term = rdf::kInvalidTermId;  // valid when kTerm & interned
  const rdf::Term* term_ptr = nullptr;     // valid when kTerm & from query text

  static EvalValue Error() { return EvalValue{}; }
  static EvalValue Bool(bool v) {
    EvalValue e;
    e.kind = Kind::kBool;
    e.b = v;
    return e;
  }
  static EvalValue Number(double v) {
    EvalValue e;
    e.kind = Kind::kNum;
    e.num = v;
    return e;
  }
  static EvalValue TermRef(rdf::TermId id) {
    EvalValue e;
    e.kind = Kind::kTerm;
    e.term = id;
    return e;
  }
  static EvalValue QueryTerm(const rdf::Term* t) {
    EvalValue e;
    e.kind = Kind::kTerm;
    e.term_ptr = t;
    return e;
  }

  bool is_error() const { return kind == Kind::kError; }
};

/// Variable resolver: returns the binding of a variable or kInvalidTermId.
using VarResolver = std::function<rdf::TermId(const std::string&)>;

/// Evaluates `expr` over one solution mapping. Aggregate nodes are an error
/// here (the grouping layers evaluate those); kBound of an unbound var is
/// false, everything else follows SPARQL 1.1 operator semantics on the
/// supported subset.
EvalValue EvaluateExpr(const Expr& expr, const VarResolver& resolve,
                       const rdf::Dictionary& dict);

/// SPARQL effective boolean value; errors are false.
bool EffectiveBool(const EvalValue& v);

/// Numeric view of a value: numbers as-is, numeric literals parsed,
/// booleans/IRIs/plain strings → nullopt.
std::optional<double> ToNumber(const EvalValue& v,
                               const rdf::Dictionary& dict);

/// The term a kTerm value denotes (dict-interned or query-literal), or
/// nullopt for any other value.
std::optional<rdf::TermView> GetTerm(const EvalValue& v,
                                     const rdf::Dictionary& dict);

}  // namespace rapida::sparql

#endif  // RAPIDA_SPARQL_EXPR_EVAL_H_
