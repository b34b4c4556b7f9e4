#ifndef RAPIDA_MAPREDUCE_KERNELS_H_
#define RAPIDA_MAPREDUCE_KERNELS_H_

#include <charconv>
#include <cstdint>
#include <string>

/// Primitives for the hot MapReduce inner loops.
///
/// The operators built on these (map-join probing, and the one
/// aggregation shuffle whose AggMap serves both GROUP BY and the TG
/// Agg-Join's multiAggMap) probe util::HashIndex tables on FNV-1a key
/// hashes (mr::HashKey) or mixed term ids (util::MixId), and keep their
/// tables and key/value buffers in per-task scratch (MapContext /
/// ReduceContext TaskState) that is reused across records.
namespace rapida::mr::kernels {

/// Appends the decimal form of `v` — same bytes as std::to_string, without
/// the temporary string.
inline void AppendDecimal(std::string* out, uint64_t v) {
  char buf[20];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

}  // namespace rapida::mr::kernels

#endif  // RAPIDA_MAPREDUCE_KERNELS_H_
