#include "engines/factorized.h"

#include "mapreduce/kernels.h"
#include "util/string_util.h"

namespace rapida::engine {

uint64_t GroupView::FlatRows() const {
  uint64_t n = 1;
  for (size_t f = 0; f < factor_end.size(); ++f) n *= FactorRows(f);
  return n;
}

bool ParseGroup(std::string_view value, size_t num_factors, GroupView* out) {
  out->rows.clear();
  out->factor_end.clear();
  size_t bar = value.find('|');
  if (bar == std::string_view::npos) {
    if (num_factors != 0) return false;
    out->base = value;
    return true;
  }
  out->base = value.substr(0, bar);
  size_t start = bar + 1;
  size_t factors = 0;
  for (;;) {
    size_t end = value.find('|', start);
    std::string_view seg = value.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    // Rows joined by ';'. An empty segment is one row of zero cells.
    size_t rstart = 0;
    for (;;) {
      size_t semi = seg.find(';', rstart);
      out->rows.push_back(seg.substr(
          rstart, semi == std::string_view::npos ? std::string_view::npos
                                                 : semi - rstart));
      if (semi == std::string_view::npos) break;
      rstart = semi + 1;
    }
    out->factor_end.push_back(static_cast<uint32_t>(out->rows.size()));
    ++factors;
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return factors == num_factors;
}

namespace {

/// Sum of decimal digit counts over a comma-separated cell list, padded
/// with NULL ("0", 1 digit each) up to `cols` cells.
uint64_t CellListDigits(std::string_view cells, size_t cols) {
  if (cols == 0) return 0;
  uint64_t digits = 0;
  size_t seen = 0;
  if (!cells.empty()) {
    size_t start = 0;
    for (;;) {
      size_t comma = cells.find(',', start);
      size_t end = comma == std::string_view::npos ? cells.size() : comma;
      if (seen < cols) digits += end - start;  // decimal digits == bytes
      ++seen;
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
  }
  if (seen < cols) digits += cols - seen;  // missing cells read as NULL "0"
  return digits;
}

}  // namespace

uint64_t FlatRecordBytes(const Factorization& spec, const GroupView& g) {
  const uint64_t flat_rows = g.FlatRows();
  if (flat_rows == 0) return 0;
  // Every flat record: "" key + (width-1) commas + 2 accounting bytes, plus
  // the digits of each cell. Positions covered by neither base nor factors
  // are NULL ("0").
  size_t covered = spec.base_cols.size();
  for (const auto& f : spec.factors) covered += f.size();
  const uint64_t uncovered =
      static_cast<uint64_t>(spec.width) - static_cast<uint64_t>(covered);
  uint64_t bytes =
      flat_rows * (static_cast<uint64_t>(spec.width > 0 ? spec.width - 1 : 0) +
                   2 + uncovered +
                   CellListDigits(g.base, spec.base_cols.size()));
  for (size_t f = 0; f < spec.factors.size(); ++f) {
    uint64_t factor_digits = 0;
    for (size_t r = g.FactorBegin(f); r < g.factor_end[f]; ++r) {
      factor_digits += CellListDigits(g.rows[r], spec.factors[f].size());
    }
    // Each of this factor's rows appears in flat_rows / FactorRows(f)
    // enumerated records.
    bytes += (flat_rows / g.FactorRows(f)) * factor_digits;
  }
  return bytes;
}

void DecodeCellsInto(std::string_view encoded, const std::vector<int>& cols,
                     std::vector<rdf::TermId>* row) {
  size_t c = 0;
  if (!encoded.empty()) {
    size_t start = 0;
    for (;;) {
      size_t comma = encoded.find(',', start);
      std::string_view part = encoded.substr(
          start, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - start);
      if (c < cols.size()) {
        int64_t v = 0;
        ParseDigits(part, &v);
        (*row)[static_cast<size_t>(cols[c])] = static_cast<rdf::TermId>(v);
      }
      ++c;
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
  }
  for (; c < cols.size(); ++c) {
    (*row)[static_cast<size_t>(cols[c])] = rdf::kInvalidTermId;
  }
}

void GroupEncoder::AddBaseCell(rdf::TermId v) {
  if (base_cells_) buf_ += ',';
  base_cells_ = true;
  mr::kernels::AppendDecimal(&buf_, v);
}

void GroupEncoder::AddRawBase(std::string_view encoded) {
  if (encoded.empty()) return;
  if (base_cells_) buf_ += ',';
  base_cells_ = true;
  buf_ += encoded;
}

void GroupEncoder::CloseFactor() {
  if (in_factor_) flat_rows_ *= rows_in_factor_;
}

void GroupEncoder::StartFactor() {
  CloseFactor();
  buf_ += '|';
  rows_in_factor_ = 0;
  in_factor_ = true;
}

void GroupEncoder::AddFactorRow(const rdf::TermId* cells, size_t n) {
  if (rows_in_factor_ > 0) buf_ += ';';
  ++rows_in_factor_;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) buf_ += ',';
    mr::kernels::AppendDecimal(&buf_, cells[i]);
  }
}

void GroupEncoder::AddRawFactor(std::string_view segment, uint64_t rows) {
  StartFactor();
  buf_ += segment;
  rows_in_factor_ = rows;
}

}  // namespace rapida::engine
