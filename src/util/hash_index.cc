#include "util/hash_index.h"

namespace rapida::util {

void HashIndex::Init(size_t capacity) {
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  count_ = 0;
}

void HashIndex::Reserve(size_t n) {
  size_t capacity = slots_.size();
  while (n * 4 > capacity * 3) capacity *= 2;
  if (capacity != slots_.size()) Rehash(capacity);
}

void HashIndex::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  Init(capacity);
  for (const Slot& s : old) {
    if (s.id == kNotFound) continue;
    size_t i = s.bits & mask_;
    while (slots_[i].id != kNotFound) i = (i + 1) & mask_;
    slots_[i] = s;
    ++count_;
  }
}

void HashIndex::Clear() {
  for (Slot& s : slots_) s = Slot{};
  count_ = 0;
}

}  // namespace rapida::util
