#include "util/arena.h"

#include <algorithm>

namespace rapida::util {

void Arena::AddBlock(size_t min_bytes) {
  const size_t capacity = std::max(next_block_bytes_, min_bytes);
  // Uninitialized: pages a block never fills are never touched, so they
  // cost address space, not resident memory.
  blocks_.push_back(
      Block{std::make_unique_for_overwrite<char[]>(capacity), capacity, 0});
  // Geometric growth amortizes block setup without holding large slack for
  // small producers.
  next_block_bytes_ = std::min(next_block_bytes_ * 2, kMaxBlock);
}

}  // namespace rapida::util
