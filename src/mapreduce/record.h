#ifndef RAPIDA_MAPREDUCE_RECORD_H_
#define RAPIDA_MAPREDUCE_RECORD_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

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
  if constexpr (std::endian::native == std::endian::little) {
    if (key.size() >= 8) {  // one load instead of eight byte shifts
      std::memcpy(&p, key.data(), 8);
      return __builtin_bswap64(p);
    }
  }
  for (size_t i = 0; i < 8; ++i) {
    p = (p << 8) |
        (i < key.size() ? static_cast<unsigned char>(key[i]) : 0u);
  }
  return p;
}

/// A record's serialized footprint: key + value + separators. Every byte
/// count (JobStats, Dfs::File, sim_seconds) is a sum of this, so no count
/// depends on how records are laid out in memory.
inline uint64_t LogicalBytes(uint64_t key_size, uint64_t value_size) {
  return key_size + value_size + 2;
}

/// One key/value record flowing through the simulated MapReduce runtime.
/// Keys and values are serialized byte strings so every byte that would
/// cross disk or network in a real deployment is measurable here. A record
/// is its packed bytes (PackRecord) from the emit that makes it to the Dfs
/// file that keeps it. A Record is a 32-byte view decoded from those bytes
/// (UnpackRecord) that lives for one call: `data` points at the key bytes,
/// immediately followed by the value bytes, inside the RecordBatch chunk
/// or the Dfs file holding them. A Dfs file reader stamps `key_prefix` and
/// `key_hash` from the key; a view decoded from a RecordBatch leaves both
/// 0. Only a reduce's gather buffer and the merge's splitters keep views
/// beyond one record, and none outlives its key group or its job.
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

  /// Serialized footprint used for all byte accounting (LogicalBytes).
  uint64_t Bytes() const { return LogicalBytes(key_size, value_size); }
};
static_assert(sizeof(Record) == 32, "Record must stay a 32-byte view");

/// Full sort order: prefix first (one integer compare), full key bytes only
/// on an 8-byte-prefix tie. Equivalent to `a.key() < b.key()` when both
/// prefixes are stamped.
inline bool RecordKeyLess(const Record& a, const Record& b) {
  if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
  return a.key() < b.key();
}

// ---- The packed record format ----
// The one encoding of a RecordBatch's chunks and of a Dfs file's bytes, as
// a Hadoop map output buffer or SequenceFile keeps serialized records: a
// varint key length, a varint value length, the key bytes and the value
// bytes. A varint is little-endian base-128: 7 bits per byte, high bit set
// on every byte but the last, so a length below 128 takes one byte.

/// Bytes PackRecord writes for a key and value of these sizes.
inline size_t PackedSize(size_t key_size, size_t value_size) {
  size_t n = key_size + value_size + 2;
  for (size_t v = key_size; v >= 0x80; v >>= 7) ++n;
  for (size_t v = value_size; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Writes one packed record at `out` and returns the byte after it.
inline char* PackRecord(std::string_view key, std::string_view value,
                        char* out) {
  for (const size_t size : {key.size(), value.size()}) {
    size_t v = size;
    for (; v >= 0x80; v >>= 7) *out++ = static_cast<char>((v & 0x7f) | 0x80);
    *out++ = static_cast<char>(v);
  }
  if (!key.empty()) std::memcpy(out, key.data(), key.size());
  out += key.size();
  if (!value.empty()) std::memcpy(out, value.data(), value.size());
  return out + value.size();
}

/// Decodes the packed record at `p` into `r` (key_prefix and key_hash are
/// left 0) and returns the byte after it.
inline const char* UnpackRecord(const char* p, Record* r) {
  uint32_t sizes[2];
  const auto b0 = static_cast<unsigned char>(p[0]);
  const auto b1 = static_cast<unsigned char>(p[1]);
  if ((b0 | b1) < 0x80) {  // both lengths below 128: one byte each
    sizes[0] = b0;
    sizes[1] = b1;
    p += 2;
  } else {
    for (uint32_t& size : sizes) {
      size = 0;
      for (int shift = 0;; shift += 7) {
        const auto b = static_cast<unsigned char>(*p++);
        size |= static_cast<uint32_t>(b & 0x7f) << shift;
        if (b < 0x80) break;
      }
    }
  }
  *r = Record{p, sizes[0], sizes[1], 0, 0};
  return p + uint64_t{sizes[0]} + sizes[1];
}

/// Owning batch of packed records: the emission sink of every map, combine
/// and reduce context and the one input of Dfs::Write. Add() packs
/// key‖value (PackRecord) into the batch's append-only chunks, so callers
/// may pass temporaries; the batch keeps no per-record view, only a record
/// count and a running logical-byte total. A record's position, (chunk
/// index << 32) | offset, read as a number is its Add order; chunks never
/// move, so a view decoded from a batch (At, ForEach) stays valid while
/// the batch lives, wherever it is moved.
class RecordBatch {
 public:
  RecordBatch() = default;
  RecordBatch(RecordBatch&&) = default;
  RecordBatch& operator=(RecordBatch&&) = default;

  void Add(std::string_view key, std::string_view value) {
    RAPIDA_CHECK(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX)
        << "record key or value does not fit a u32 length";
    PackRecord(key, value,
               chunks_.Allocate(PackedSize(key.size(), value.size())));
    ++num_records_;
    logical_bytes_ += mr::LogicalBytes(key.size(), value.size());
  }

  /// Number of records.
  uint64_t size() const { return num_records_; }
  bool empty() const { return num_records_ == 0; }

  /// Sum of Record::Bytes() over all records.
  uint64_t LogicalBytes() const { return logical_bytes_; }

  /// The packed bytes of the record at `position` (from ForEach).
  const char* Packed(uint64_t position) const {
    return chunks_.block(position >> 32).data() + (position & 0xffffffffu);
  }
  /// The record at `position`, decoded; key_prefix and key_hash are left 0.
  Record At(uint64_t position) const {
    Record r;
    UnpackRecord(Packed(position), &r);
    return r;
  }

  /// Calls fn(const Record&, uint64_t position) on every record in Add
  /// order; each Record is decoded on the spot as At decodes it.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.num_blocks(); ++c) {
      const std::string_view chunk = chunks_.block(c);
      for (const char* p = chunk.data(); p != chunk.data() + chunk.size();) {
        const uint64_t position =
            (uint64_t{c} << 32) | static_cast<uint64_t>(p - chunk.data());
        Record r;
        p = UnpackRecord(p, &r);
        fn(static_cast<const Record&>(r), position);
      }
    }
  }

  /// The packed bytes, chunk by chunk, in Add order.
  size_t num_chunks() const { return chunks_.num_blocks(); }
  std::string_view chunk(size_t i) const { return chunks_.block(i); }

 private:
  util::Arena chunks_;
  uint64_t num_records_ = 0;
  uint64_t logical_bytes_ = 0;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_RECORD_H_
