#ifndef RAPIDA_MAPREDUCE_KERNELS_H_
#define RAPIDA_MAPREDUCE_KERNELS_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// Primitives for the hot MapReduce inner loops.
///
/// The operators built on these (map-join probing, grouped aggregation,
/// the TG_AggJoin multiAggMap) probe open-addressing tables on FNV-1a key
/// hashes (mr::HashKey) or mixed term ids, and keep their tables and
/// key/value buffers in per-task scratch (MapContext / ReduceContext
/// TaskState) that is reused across records.
namespace rapida::mr::kernels {

/// splitmix64 finalizer: turns raw integer keys (term ids) into
/// well-distributed 64-bit hashes for HashIndex probing.
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Open-addressing (linear-probe) hash index mapping precomputed 64-bit
/// hashes to dense uint32 ids assigned by the caller. The index stores
/// only (hash, id) slots; the caller owns the actual keys and resolves
/// same-hash collisions through the `eq(id)` callback, so one index works
/// for string keys, term-id keys, or composite keys without storing any
/// of them twice. Dense ids make the side tables plain vectors.
class HashIndex {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  HashIndex() { Init(16); }

  /// Pre-sizes for `n` distinct keys (amortizes growth rehashes away).
  void Reserve(size_t n);

  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    size_t i = hash & mask_;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.id == kNotFound) return kNotFound;
      if (s.hash == hash && eq(s.id)) return s.id;
      i = (i + 1) & mask_;
    }
  }

  /// Returns the existing id for `hash` (second = false), or claims a
  /// slot for `new_id` (second = true). The caller appends the key/value
  /// for `new_id` to its side tables on insertion.
  template <typename Eq>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, uint32_t new_id,
                                         Eq&& eq) {
    if ((count_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = hash & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.id == kNotFound) {
        s.hash = hash;
        s.id = new_id;
        ++count_;
        return {new_id, true};
      }
      if (s.hash == hash && eq(s.id)) return {s.id, false};
      i = (i + 1) & mask_;
    }
  }

  size_t size() const { return count_; }

  /// Empties the index but keeps its capacity (per-task table reuse).
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNotFound;
  };

  void Init(size_t capacity);  // capacity must be a power of two
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t count_ = 0;
};

/// Appends the decimal form of `v` — same bytes as std::to_string, without
/// the temporary string.
inline void AppendDecimal(std::string* out, uint64_t v) {
  char buf[20];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

}  // namespace rapida::mr::kernels

#endif  // RAPIDA_MAPREDUCE_KERNELS_H_
