#ifndef RAPIDA_ANALYTICS_BINDING_H_
#define RAPIDA_ANALYTICS_BINDING_H_

#include <initializer_list>
#include <memory>
#include <ranges>
#include <span>
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
///
/// Layout: one row-major cell array of NumRows() x NumCols() TermIds (4 B
/// per cell) plus an explicit row count, so zero-column rows (the unit
/// table of a BGP) exist too. Copies share the cell array until one of
/// them writes: every mutator first takes a private copy when the array is
/// shared, so a copy costs its column names, not its cells. The result
/// cache hands out such copies. A span from Row(), MutableRow() or rows()
/// is invalidated by any mutator call on the same table.
class BindingTable {
 public:
  BindingTable() = default;
  explicit BindingTable(std::vector<std::string> vars)
      : vars_(std::move(vars)) {}
  const std::vector<std::string>& vars() const { return vars_; }
  size_t NumRows() const { return cells_ ? cells_->rows : 0; }
  size_t NumCols() const { return vars_.size(); }

  /// Row `r` (< NumRows()) as a span of NumCols() cells.
  std::span<const rdf::TermId> Row(size_t r) const {
    return {cells_->ids.data() + r * NumCols(), NumCols()};
  }
  /// Every row as a span, in order (a random-access view).
  auto rows() const {
    return std::views::iota(size_t{0}, NumRows()) |
           std::views::transform([this](size_t r) { return Row(r); });
  }
  /// Bytes the cell array holds (its capacity), shared or not.
  size_t CellBytes() const {
    return cells_ ? cells_->ids.capacity() * sizeof(rdf::TermId) : 0;
  }

  /// Index of `var` or -1.
  int VarIndex(const std::string& var) const;

  /// Appends a row; must have NumCols() cells and must not point into this
  /// table.
  void AddRow(std::span<const rdf::TermId> row);
  void AddRow(std::initializer_list<rdf::TermId> row) {
    AddRow(std::span<const rdf::TermId>(row.begin(), row.size()));
  }
  /// Row `r`'s cells, writable.
  std::span<rdf::TermId> MutableRow(size_t r);
  /// Sizes the cell array for `rows` rows in total.
  void ReserveRows(size_t rows);
  /// Keeps the first `n` rows (no-op when there are at most `n`).
  void TruncateRows(size_t n);
  /// Removes the first `n` rows (all of them when there are at most `n`).
  void DropFrontRows(size_t n);
  /// Replaces the column names positionally; `names` must have NumCols()
  /// entries. The cells are untouched (and stay shared).
  void RenameColumns(std::vector<std::string> names);

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

  /// Removes duplicate rows; the survivors come out in ascending
  /// (lexicographic TermId) order.
  void Distinct();

  /// Renders every row as a "v1=x | v2=y" string (columns in a canonical
  /// name order), sorted — the stable form used to compare engines.
  std::vector<std::string> ToSortedStrings(const rdf::Dictionary& dict) const;

  /// Pretty table for examples / debugging.
  std::string ToString(const rdf::Dictionary& dict, size_t max_rows = 20) const;

 private:
  /// The cells and their row count (a row of zero columns still counts).
  struct Cells {
    std::vector<rdf::TermId> ids;  // row-major, NumCols() per row
    size_t rows = 0;
  };
  /// The cells, private to this table: allocated on first use and cloned
  /// while another copy shares them. Every cell mutator calls it.
  Cells& Own();

  std::vector<std::string> vars_;
  std::shared_ptr<Cells> cells_;  // null: no rows yet
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
