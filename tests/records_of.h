// Test helper: a Dfs file's records as (key, value) strings, for equality
// asserts.
#ifndef RAPIDA_TESTS_RECORDS_OF_H_
#define RAPIDA_TESTS_RECORDS_OF_H_

#include <string>
#include <utility>
#include <vector>

#include "mapreduce/dfs.h"

namespace rapida {

/// `file`'s records as (key, value) pairs, in file order.
inline std::vector<std::pair<std::string, std::string>> RecordsOf(
    const mr::Dfs::File& file) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(file.size());
  file.ForEach([&out](const mr::Record& r) {
    out.emplace_back(std::string(r.key()), std::string(r.value()));
  });
  return out;
}

}  // namespace rapida

#endif  // RAPIDA_TESTS_RECORDS_OF_H_
