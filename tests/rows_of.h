// Test helper: a BindingTable's rows as vectors, for equality asserts.
#ifndef RAPIDA_TESTS_ROWS_OF_H_
#define RAPIDA_TESTS_ROWS_OF_H_

#include <vector>

#include "analytics/binding.h"

namespace rapida {

/// `table`'s rows as vectors, in table order.
inline std::vector<std::vector<rdf::TermId>> RowsOf(
    const analytics::BindingTable& table) {
  std::vector<std::vector<rdf::TermId>> out;
  out.reserve(table.NumRows());
  for (const std::span<const rdf::TermId> row : table.rows()) {
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

}  // namespace rapida

#endif  // RAPIDA_TESTS_ROWS_OF_H_
