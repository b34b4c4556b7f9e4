#ifndef RAPIDA_UTIL_ARENA_H_
#define RAPIDA_UTIL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace rapida::util {

/// Bump allocator: bytes copied in stay valid (and at a stable address)
/// until the arena is destroyed. One arena serves one producer thread; it
/// is not internally synchronized.
///
/// Blocks fill in order: a request that does not fit the current block's
/// remainder opens a new block (one of exactly its size when it is larger
/// than the next block would be) and the remainder stays unused. So a
/// (block index, offset) pair, read as one number, is allocation order.
/// Block sizes double from 4 KiB up to 64 KiB, so a producer holds at
/// most one 64 KiB block of slack however much it writes.
///
/// Every mr::RecordBatch keeps its packed records in one: each map task,
/// combiner and reduce key range emits into its own batch, so the hot emit
/// path is one Allocate plus a pointer bump, with no per-record operator
/// new, and a record's position in the batch is its (block, offset).
/// rdf::Dictionary keeps its term bytes in one, so moving a dictionary
/// moves the blocks' ownership and every view into them stays valid.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  /// The source is left empty; views into the moved blocks stay valid.
  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      blocks_ = std::move(other.blocks_);
      other.blocks_.clear();
      next_block_bytes_ = std::exchange(other.next_block_bytes_, kFirstBlock);
    }
    return *this;
  }

  /// Reserves n > 0 bytes for the caller to fill, at the end of the
  /// current block or at the start of a new one.
  char* Allocate(size_t n) {
    if (blocks_.empty() || blocks_.back().capacity - blocks_.back().used < n) {
      AddBlock(n);
    }
    Block& b = blocks_.back();
    char* dst = b.bytes.get() + b.used;
    b.used += n;
    return dst;
  }

  /// Copies the concatenation a+b in one contiguous allocation and returns
  /// a view of the copy, valid (at a stable address) for the arena's
  /// lifetime.
  std::string_view Concat(std::string_view a, std::string_view b) {
    const size_t n = a.size() + b.size();
    if (n == 0) return std::string_view(EmptyMarker(), 0);
    char* dst = Allocate(n);
    if (!a.empty()) std::memcpy(dst, a.data(), a.size());
    if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
    return std::string_view(dst, n);
  }

  size_t num_blocks() const { return blocks_.size(); }
  /// Block i's allocated bytes, in allocation order.
  std::string_view block(size_t i) const {
    return std::string_view(blocks_[i].bytes.get(), blocks_[i].used);
  }

 private:
  static constexpr size_t kFirstBlock = 4 * 1024;
  static constexpr size_t kMaxBlock = 64 * 1024;

  struct Block {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;
    size_t used = 0;
  };

  // Empty views still need a non-null data() distinguishable from "no
  // value"; point them at a static byte instead of burning arena space.
  static const char* EmptyMarker() {
    static const char marker = '\0';
    return &marker;
  }

  void AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t next_block_bytes_ = kFirstBlock;
};

}  // namespace rapida::util

#endif  // RAPIDA_UTIL_ARENA_H_
