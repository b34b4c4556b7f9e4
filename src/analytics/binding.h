#ifndef RAPIDA_ANALYTICS_BINDING_H_
#define RAPIDA_ANALYTICS_BINDING_H_

#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/statusor.h"

namespace rapida::analytics {

/// A table of solution mappings: named columns of TermIds, one row per
/// solution. kInvalidTermId cells mean "unbound" (possible after OPTIONAL).
///
/// This is both the reference evaluator's working representation and the
/// final result type of every engine: computed values (aggregates,
/// arithmetic) are interned into the dictionary via InternNumber so rows
/// stay uniform TermId vectors and results compare exactly across engines.
class BindingTable {
 public:
  BindingTable() = default;
  explicit BindingTable(std::vector<std::string> vars)
      : vars_(std::move(vars)) {}

  const std::vector<std::string>& vars() const { return vars_; }
  const std::vector<std::vector<rdf::TermId>>& rows() const { return rows_; }
  std::vector<std::vector<rdf::TermId>>& mutable_rows() { return rows_; }
  size_t NumRows() const { return rows_.size(); }
  size_t NumCols() const { return vars_.size(); }

  /// Index of `var` or -1.
  int VarIndex(const std::string& var) const;

  /// Appends a row; must have vars().size() cells.
  void AddRow(std::vector<rdf::TermId> row);

  /// Natural (inner) hash join on all shared variable names; columns of
  /// `right` not in `this` are appended. With no shared vars this is a
  /// cross product (used when joining independent subquery results).
  BindingTable Join(const BindingTable& right) const;

  /// Left outer join on all shared variable names (SPARQL OPTIONAL):
  /// unmatched left rows keep their cells and get unbound right columns.
  /// Shared-var matching treats an unbound left cell as compatible.
  BindingTable LeftJoin(const BindingTable& right) const;

  /// SPARQL UNION concatenation: appends `other`'s rows, aligning columns
  /// by variable name. Columns present on only one side read as unbound in
  /// the other side's rows (schema is extended in place as needed).
  void UnionAll(const BindingTable& other);

  /// Projects to `vars` in order (vars must exist).
  StatusOr<BindingTable> Project(const std::vector<std::string>& vars) const;

  /// Removes duplicate rows.
  void Distinct();

  /// Renders every row as a "v1=x | v2=y" string (columns in a canonical
  /// name order), sorted — the stable form used to compare engines.
  std::vector<std::string> ToSortedStrings(const rdf::Dictionary& dict) const;

  /// Pretty table for examples / debugging.
  std::string ToString(const rdf::Dictionary& dict, size_t max_rows = 20) const;

 private:
  std::vector<std::string> vars_;
  std::vector<std::vector<rdf::TermId>> rows_;
};

/// Keeps only rows for which `condition` is effectively true, resolving
/// variables against the table's columns (HAVING over output columns).
void FilterRowsByExpr(BindingTable* table, const sparql::Expr& condition,
                      const rdf::Dictionary& dict);

/// Applies ORDER BY (stable, CompareTerms semantics, missing key columns
/// sort as unbound), then OFFSET / LIMIT (-1 = unlimited).
void ApplyOrderLimit(BindingTable* table,
                     const std::vector<sparql::OrderKey>& order_by,
                     int64_t limit, int64_t offset,
                     const rdf::Dictionary& dict);

}  // namespace rapida::analytics

#endif  // RAPIDA_ANALYTICS_BINDING_H_
