#ifndef RAPIDA_UTIL_ARENA_H_
#define RAPIDA_UTIL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace rapida::util {

/// Bump allocator for record payloads: bytes copied in stay valid (and at a
/// stable address) until the arena is destroyed. One arena serves one
/// producer thread; it is not internally synchronized.
///
/// Every mr::RecordBatch owns the arenas its record views point into, and
/// the MapReduce runtime gives every map task and reduce context its own
/// batch, so the hot emit path is one Concat plus a pointer bump — no
/// per-record operator new. Records outlive the emitting callback because
/// the arenas move with the batch (blocks never move) until Dfs::Write
/// packs its records into a file and frees it.
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
      cursor_ = std::exchange(other.cursor_, nullptr);
      remaining_ = std::exchange(other.remaining_, 0);
      next_block_bytes_ = std::exchange(other.next_block_bytes_, kFirstBlock);
    }
    return *this;
  }

  /// Copies the concatenation a+b in one contiguous allocation and returns
  /// a view of the copy, valid (at a stable address) for the arena's
  /// lifetime.
  std::string_view Concat(std::string_view a, std::string_view b) {
    const size_t n = a.size() + b.size();
    if (n == 0) return std::string_view(EmptyMarker(), 0);
    if (n > remaining_) AddBlock(n);
    char* dst = cursor_;
    cursor_ += n;
    remaining_ -= n;
    if (!a.empty()) std::memcpy(dst, a.data(), a.size());
    if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
    return std::string_view(dst, n);
  }

 private:
  static constexpr size_t kFirstBlock = 4 * 1024;
  static constexpr size_t kMaxBlock = 1024 * 1024;

  // Empty views still need a non-null data() distinguishable from "no
  // value"; point them at a static byte instead of burning arena space.
  static const char* EmptyMarker() {
    static const char marker = '\0';
    return &marker;
  }

  void AddBlock(size_t min_bytes);

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;
  size_t remaining_ = 0;
  size_t next_block_bytes_ = kFirstBlock;
};

}  // namespace rapida::util

#endif  // RAPIDA_UTIL_ARENA_H_
