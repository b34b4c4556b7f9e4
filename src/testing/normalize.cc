#include "testing/normalize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string_view>

#include "sparql/ast.h"
#include "util/string_util.h"

namespace rapida::difftest {

bool ApproxEqual(double a, double b, double rel_tol, double abs_tol) {
  if (a == b) return true;  // covers infinities and exact matches
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

namespace {

NormalizedCell DecodeCell(rdf::TermId id, const rdf::Dictionary& dict) {
  NormalizedCell cell;
  if (id == rdf::kInvalidTermId) {
    cell.is_unbound = true;
    return cell;
  }
  if (auto num = dict.AsNumber(id)) {
    cell.is_number = true;
    cell.number = *num;
    return cell;
  }
  cell.text = sparql::ToSparqlText(dict.Get(id));
  return cell;
}

/// Total order for canonical row sorting: unbound before everything, then
/// numbers before text, numeric by value, text lexically.
/// (Approximately-equal numbers sort adjacently, so the pairwise tolerant
/// comparison below still lines rows up.)
int CompareCell(const NormalizedCell& a, const NormalizedCell& b) {
  if (a.is_unbound != b.is_unbound) return a.is_unbound ? -1 : 1;
  if (a.is_unbound) return 0;
  if (a.is_number != b.is_number) return a.is_number ? -1 : 1;
  if (a.is_number) {
    if (a.number < b.number) return -1;
    if (a.number > b.number) return 1;
    return 0;
  }
  return a.text.compare(b.text);
}

int CompareRow(const std::vector<NormalizedCell>& a,
               const std::vector<NormalizedCell>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = CompareCell(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

bool CellsMatch(const NormalizedCell& a, const NormalizedCell& b) {
  if (a.is_unbound != b.is_unbound) return false;
  if (a.is_unbound) return true;
  if (a.is_number != b.is_number) return false;
  if (a.is_number) return ApproxEqual(a.number, b.number);
  return a.text == b.text;
}

std::string CellToString(const NormalizedCell& c) {
  if (c.is_unbound) return "UNBOUND";
  if (!c.is_number) return c.text;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", c.number);
  return buf;
}

std::string RowToString(const std::vector<NormalizedCell>& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += CellToString(row[i]);
  }
  return out + "]";
}

}  // namespace

NormalizedTable Normalize(const analytics::BindingTable& table,
                          const rdf::Dictionary& dict) {
  NormalizedTable out;
  std::vector<size_t> order(table.vars().size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars()[a] < table.vars()[b];
  });
  for (size_t i : order) out.columns.push_back(table.vars()[i]);
  out.rows.reserve(table.NumRows());
  for (const std::span<const rdf::TermId> row : table.rows()) {
    std::vector<NormalizedCell> cells;
    cells.reserve(order.size());
    for (size_t i : order) cells.push_back(DecodeCell(row[i], dict));
    out.rows.push_back(std::move(cells));
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const auto& a, const auto& b) { return CompareRow(a, b) < 0; });
  return out;
}

std::string CompareNormalized(const NormalizedTable& expected,
                              const NormalizedTable& actual) {
  if (expected.columns != actual.columns) {
    auto join = [](const std::vector<std::string>& v) {
      std::string s;
      for (const auto& c : v) s += (s.empty() ? "" : " ") + c;
      return s;
    };
    return "column mismatch: expected {" + join(expected.columns) +
           "} got {" + join(actual.columns) + "}";
  }
  if (expected.rows.size() != actual.rows.size()) {
    return "row count mismatch: expected " +
           std::to_string(expected.rows.size()) + " got " +
           std::to_string(actual.rows.size());
  }
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    const auto& e = expected.rows[r];
    const auto& a = actual.rows[r];
    for (size_t c = 0; c < e.size(); ++c) {
      if (!CellsMatch(e[c], a[c])) {
        return "row " + std::to_string(r) + " column '" +
               expected.columns[c] + "' mismatch: expected " +
               RowToString(e) + " got " + RowToString(a);
      }
    }
  }
  return "";
}

std::string SerializeNormalized(const NormalizedTable& table) {
  std::string out = "columns";
  for (const std::string& c : table.columns) out += " " + c;
  out += "\n";
  for (const auto& row : table.rows) {
    out += "row";
    for (const NormalizedCell& cell : row) {
      out += "\t";
      if (cell.is_unbound) {
        out += "U";
      } else if (cell.is_number) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "N%.17g", cell.number);
        out += buf;
      } else {
        out += "T";
        for (char ch : cell.text) {
          switch (ch) {
            case '\t': out += "\\t"; break;
            case '\n': out += "\\n"; break;
            case '\\': out += "\\\\"; break;
            default: out += ch;
          }
        }
      }
    }
    out += "\n";
  }
  return out;
}

bool ParseNormalized(const std::string& text, NormalizedTable* out) {
  *out = NormalizedTable();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("columns", 0) != 0) return false;
  {
    std::istringstream cols(line.substr(7));
    std::string c;
    while (cols >> c) out->columns.push_back(c);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Fields are tab-separated views into the line; nothing is copied until
    // a cell's decoded payload is built.
    FieldTokenizer fields(line, '\t');
    std::string_view field;
    if (!fields.Next(&field) || field != "row") return false;
    std::vector<NormalizedCell> row;
    while (fields.Next(&field)) {
      if (field.empty()) return false;
      NormalizedCell cell;
      if (field[0] == 'U' && field.size() == 1) {
        cell.is_unbound = true;
      } else if (field[0] == 'N') {
        cell.is_number = true;
        // strtod wants NUL termination; number fields are tiny, so one
        // short-string copy per numeric cell is the whole cost.
        cell.number = std::strtod(std::string(field.substr(1)).c_str(),
                                  nullptr);
      } else if (field[0] == 'T') {
        for (size_t i = 1; i < field.size(); ++i) {
          if (field[i] == '\\' && i + 1 < field.size()) {
            ++i;
            cell.text += field[i] == 't' ? '\t'
                         : field[i] == 'n' ? '\n'
                                           : field[i];
          } else {
            cell.text += field[i];
          }
        }
      } else {
        return false;
      }
      row.push_back(std::move(cell));
    }
    if (row.size() != out->columns.size()) return false;
    out->rows.push_back(std::move(row));
  }
  return true;
}

}  // namespace rapida::difftest
