#include "mapreduce/kernels.h"

namespace rapida::mr::kernels {

void HashIndex::Init(size_t capacity) {
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  count_ = 0;
}

void HashIndex::Reserve(size_t n) {
  size_t capacity = slots_.size();
  while (n * 4 > capacity * 3) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  Init(capacity);
  for (const Slot& s : old) {
    if (s.id == kNotFound) continue;
    size_t i = s.hash & mask_;
    while (slots_[i].id != kNotFound) i = (i + 1) & mask_;
    slots_[i] = s;
    ++count_;
  }
}

void HashIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  Init(old.size() * 2);
  for (const Slot& s : old) {
    if (s.id == kNotFound) continue;
    size_t i = s.hash & mask_;
    while (slots_[i].id != kNotFound) i = (i + 1) & mask_;
    slots_[i] = s;
    ++count_;
  }
}

void HashIndex::Clear() {
  for (Slot& s : slots_) s = Slot{};
  count_ = 0;
}

}  // namespace rapida::mr::kernels
