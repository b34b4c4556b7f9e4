#ifndef RAPIDA_MAPREDUCE_RECORD_H_
#define RAPIDA_MAPREDUCE_RECORD_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/logging.h"

namespace rapida::mr {

/// 64-bit FNV-1a over the key bytes. Computed once per record at emit time
/// and reused for shard placement (AssignShard, OwnerShard), so the hot
/// loops never rehash.
inline uint64_t HashKey(std::string_view key) {
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// First 8 key bytes packed big-endian (shorter keys zero-padded on the
/// right). Numeric comparison of two prefixes equals lexicographic
/// comparison of the first 8 bytes, so sort/merge comparisons resolve on
/// one integer unless the keys share an 8-byte prefix.
inline uint64_t KeyPrefix(std::string_view key) {
  uint64_t p = 0;
  for (size_t i = 0; i < 8; ++i) {
    p = (p << 8) |
        (i < key.size() ? static_cast<unsigned char>(key[i]) : 0u);
  }
  return p;
}

/// One key/value record flowing through the simulated MapReduce runtime.
/// Keys and values are serialized byte strings so every byte that would
/// cross disk or network in a real deployment is measurable here. A Record
/// is a 32-byte view: `data` points at the key bytes, immediately followed
/// by the value bytes, either in the arena of the RecordBatch a map, combine
/// or reduce context emitted it into, or in a Dfs::File's packed bytes, which
/// a reader decodes one Record at a time. `key_prefix` and `key_hash` are
/// stamped whenever a Record is made (at emit time, or on decode); every
/// later copy inside a job (a sorted run, the merge's gather buffer) moves
/// only the view, never the bytes. Views live only inside a running job:
/// a file at rest keeps none.
struct Record {
  const char* data = nullptr;
  uint32_t key_size = 0;
  uint32_t value_size = 0;
  uint64_t key_prefix = 0;
  uint64_t key_hash = 0;

  std::string_view key() const { return std::string_view(data, key_size); }
  std::string_view value() const {
    return std::string_view(data + key_size, value_size);
  }

  /// Serialized footprint used for all byte accounting (key + value +
  /// separators). Representation-independent, so sim_seconds and EXPLAIN
  /// estimates never see how records are laid out in memory.
  uint64_t Bytes() const { return uint64_t{key_size} + value_size + 2; }
};
static_assert(sizeof(Record) == 32, "Record must stay a 32-byte view");

/// Full sort order: prefix first (one integer compare), full key bytes only
/// on an 8-byte-prefix tie. Equivalent to `a.key() < b.key()`.
inline bool RecordKeyLess(const Record& a, const Record& b) {
  if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
  return a.key() < b.key();
}

inline bool RecordKeyEq(const Record& a, const Record& b) {
  return a.key_prefix == b.key_prefix && a.key() == b.key();
}

/// Owning batch of records: the record views plus the arenas holding their
/// bytes. Add() copies key‖value into the batch's arena in one contiguous
/// allocation and stamps the view on the spot, so callers may pass
/// temporaries and no later pass builds views. This is the emission sink
/// of every map/reduce context and the only way to hand record data to
/// the Dfs, which packs the records and frees the batch; arenas never move
/// their blocks, so views stay valid wherever the batch is moved.
class RecordBatch {
 public:
  RecordBatch() = default;
  RecordBatch(RecordBatch&&) = default;
  RecordBatch& operator=(RecordBatch&&) = default;

  void Add(std::string_view key, std::string_view value) {
    RAPIDA_CHECK(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX)
        << "record key or value does not fit a u32 length";
    if (arenas.empty()) arenas.push_back(std::make_unique<util::Arena>());
    std::string_view kv = arenas.back()->Concat(key, value);
    records.push_back(Record{kv.data(), static_cast<uint32_t>(key.size()),
                             static_cast<uint32_t>(value.size()),
                             KeyPrefix(key), HashKey(key)});
  }

  /// Sum of Record::Bytes() over all records.
  uint64_t LogicalBytes() const {
    uint64_t n = 0;
    for (const Record& r : records) n += r.Bytes();
    return n;
  }

  std::vector<Record> records;
  std::vector<std::unique_ptr<util::Arena>> arenas;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_RECORD_H_
