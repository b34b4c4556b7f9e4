#ifndef RAPIDA_UTIL_HASH_INDEX_H_
#define RAPIDA_UTIL_HASH_INDEX_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace rapida::util {

/// splitmix64 finalizer: turns raw integer keys (term ids, word-folded
/// bytes) into well-distributed 64-bit hashes for HashIndex probing.
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 64-bit hash of `bytes`, chained from `seed`: eight bytes per MixId
/// round, the length folded into the first.
inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = 0) {
  uint64_t h = seed ^ (bytes.size() * 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = MixId(h ^ word);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  }
  return MixId(h ^ tail);
}

/// Open-addressing (linear-probe) hash index mapping precomputed hashes to
/// dense uint32 ids assigned by the caller. A slot is 8 bytes: the low 32
/// bits of the hash, which both place the slot and filter probes, and the
/// id. The caller owns the keys and resolves same-bits collisions through
/// the `eq(id)` callback, so one index serves string keys, term-id keys,
/// composite keys and the dictionary's terms without storing any of them
/// twice. Dense ids make the side tables plain vectors.
///
/// Find is const and touches only the slots, so any number of readers may
/// probe concurrently while no writer runs (the Dictionary's shared lock).
class HashIndex {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  HashIndex() { Init(16); }

  /// Pre-sizes for `n` distinct keys (amortizes growth rehashes away).
  void Reserve(size_t n);

  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    const uint32_t bits = static_cast<uint32_t>(hash);
    size_t i = bits & mask_;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.id == kNotFound) return kNotFound;
      if (s.bits == bits && eq(s.id)) return s.id;
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
    const uint32_t bits = static_cast<uint32_t>(hash);
    size_t i = bits & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.id == kNotFound) {
        s.bits = bits;
        s.id = new_id;
        ++count_;
        return {new_id, true};
      }
      if (s.bits == bits && eq(s.id)) return {s.id, false};
      i = (i + 1) & mask_;
    }
  }

  size_t size() const { return count_; }

  /// Empties the index but keeps its capacity (per-task table reuse).
  void Clear();

 private:
  struct Slot {
    uint32_t bits = 0;
    uint32_t id = kNotFound;
  };

  void Init(size_t capacity);  // capacity must be a power of two
  void Rehash(size_t capacity);
  void Grow() { Rehash(slots_.size() * 2); }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t count_ = 0;
};

}  // namespace rapida::util

#endif  // RAPIDA_UTIL_HASH_INDEX_H_
