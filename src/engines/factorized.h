#ifndef RAPIDA_ENGINES_FACTORIZED_H_
#define RAPIDA_ENGINES_FACTORIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace rapida::engine {

/// Factorized (d-representation) layout of a relational intermediate
/// (DESIGN.md §16). Each DFS record holds one *group*: a base row — one
/// value per base column — plus one value vector per multi-valued factor.
/// The group stands for the cross product of its factor rows; enumerating
/// factor 0 outermost and the last factor innermost reproduces the flat
/// table's rows of that group in their exact flat order.
///
/// Wire format of a group record's value ('|' joins segments):
///
///   base-cells '|' factor-0 '|' factor-1 ...
///
/// `base-cells` is the EncodeRow of the base values (ordered by
/// `base_cols`); factor f is its rows joined by ';', each row the
/// EncodeRow of its cells (ordered by `factors[f]`). A factor with zero
/// columns encodes every row as the empty string — pure multiplicity
/// (e.g. a type-table side that matched k times). Positions covered by
/// neither the base nor any factor read as NULL in every flat row.
struct Factorization {
  /// Column positions (indices into the table layout) bound once per group.
  std::vector<int> base_cols;
  /// Per-factor column positions.
  std::vector<std::vector<int>> factors;
  /// Total columns of the table layout.
  int width = 0;
};

using FactorizationPtr = std::shared_ptr<const Factorization>;

/// Parsed view of one group record; all views point into the record value
/// and stay valid only as long as it does.
struct GroupView {
  std::string_view base;
  /// Every factor's rows, flattened; factor f owns
  /// rows[FactorBegin(f) .. factor_end[f]).
  std::vector<std::string_view> rows;
  std::vector<uint32_t> factor_end;

  size_t FactorBegin(size_t f) const { return f == 0 ? 0 : factor_end[f - 1]; }
  size_t FactorRows(size_t f) const { return factor_end[f] - FactorBegin(f); }
  /// Product of the factor row counts == flat rows this group stands for.
  uint64_t FlatRows() const;
};

/// Splits `value` into base + per-factor row views. Returns false when the
/// segment count does not match `num_factors` (malformed record). Reuses
/// `out`'s capacity.
bool ParseGroup(std::string_view value, size_t num_factors, GroupView* out);

/// Exact serialized size the group's flat rows would occupy as records
/// ("" keys, EncodeRow values): for each enumerated row,
/// width-1 separators + the digits of every cell + the 2 accounting bytes
/// of mr::Record::Bytes. Computed arithmetically — no enumeration.
uint64_t FlatRecordBytes(const Factorization& spec, const GroupView& g);

/// Decimal digit count of a TermId (NULL = "0" = 1 digit).
inline uint64_t DigitCount(rdf::TermId v) {
  uint64_t d = 1;
  while (v >= 10) {
    v /= 10;
    ++d;
  }
  return d;
}

/// Decodes a comma-separated cell list into `row` at the given positions.
/// Cells beyond `cols.size()` are ignored; missing cells leave NULL.
void DecodeCellsInto(std::string_view encoded, const std::vector<int>& cols,
                     std::vector<rdf::TermId>* row);

/// Reusable scratch for flat enumeration of parsed groups: the row being
/// enumerated and the odometer over the factors. Once warm, enumeration
/// allocates nothing.
struct FlatScratch {
  std::vector<rdf::TermId> row;
  std::vector<size_t> odometer;
};

/// Enumerates the flat rows of one parsed group in canonical order
/// (factor 0 outermost, last factor innermost) and calls `fn(row)` with a
/// width-sized row for each. The row reference stays valid only during the
/// callback.
template <typename Fn>
void ForEachFlatRow(const Factorization& spec, const GroupView& g,
                    FlatScratch* scratch, Fn&& fn) {
  std::vector<rdf::TermId>* row = &scratch->row;
  row->assign(static_cast<size_t>(spec.width), rdf::kInvalidTermId);
  DecodeCellsInto(g.base, spec.base_cols, row);
  // Iterative odometer, last factor fastest: factor 0 outermost.
  const size_t nf = spec.factors.size();
  if (nf == 0) {
    fn(*row);
    return;
  }
  for (size_t f = 0; f < nf; ++f) {
    if (g.FactorRows(f) == 0) return;  // empty factor: zero flat rows
  }
  std::vector<size_t>& idx = scratch->odometer;
  idx.assign(nf, 0);
  for (size_t f = 0; f < nf; ++f) {
    DecodeCellsInto(g.rows[g.FactorBegin(f)], spec.factors[f], row);
  }
  for (;;) {
    fn(*row);
    size_t f = nf;
    for (;;) {
      if (f == 0) return;  // every factor wrapped: enumeration complete
      --f;
      if (++idx[f] < g.FactorRows(f)) {
        DecodeCellsInto(g.rows[g.FactorBegin(f) + idx[f]], spec.factors[f],
                        row);
        break;
      }
      idx[f] = 0;
      DecodeCellsInto(g.rows[g.FactorBegin(f)], spec.factors[f], row);
    }
  }
}

/// Streaming encoder for group records; reusable across groups. Usage:
///   enc.Start(); enc.AddBaseCell(id)...;
///   enc.StartFactor(); enc.AddFactorRow(...);
///   ... enc.Finish();
/// Finish() returns the record value; flat_rows() feeds the factorization
/// counters (flat rows the emitted group stands for).
class GroupEncoder {
 public:
  void Start() {
    buf_.clear();
    flat_rows_ = 1;
    rows_in_factor_ = 0;
    base_cells_ = false;
    in_factor_ = false;
  }
  void AddBaseCell(rdf::TermId v);
  /// Appends pre-encoded base cells (comma-joined decimals) — pass-through
  /// of an upstream group's base segment. No-op for an empty segment.
  void AddRawBase(std::string_view encoded);
  void StartFactor();
  /// One factor row from decoded cells.
  void AddFactorRow(const rdf::TermId* cells, size_t n);
  /// Appends a whole pre-encoded factor segment of `rows` rows. The caller
  /// vouches the segment matches the output spec's factor layout.
  void AddRawFactor(std::string_view segment, uint64_t rows);
  /// Closes the record: returns the value. At least one factor row per
  /// factor must have been added (callers synthesize NULL rows for outer
  /// misses).
  const std::string& Finish() {
    CloseFactor();
    in_factor_ = false;
    return buf_;
  }
  uint64_t flat_rows() const { return flat_rows_; }

 private:
  void CloseFactor();
  std::string buf_;
  uint64_t flat_rows_ = 1;
  uint64_t rows_in_factor_ = 0;
  bool base_cells_ = false;
  bool in_factor_ = false;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_FACTORIZED_H_
