#ifndef RAPIDA_MAPREDUCE_SHARD_H_
#define RAPIDA_MAPREDUCE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "mapreduce/sharding.h"

namespace rapida::mr {

/// One worker shard of the sharded data plane. A shard owns
///  - the reducer key range of its hash-residue class (OwnsKey),
///  - a view of the dictionary segment it serves (the same residue class;
///    term interning itself stays coordinator-side, on the serial reduce
///    merge, so results are byte-identical to the unsharded runtime),
///  - a map-task queue the coordinator dispatches into,
///  - counters of the map tasks it ran and of the job output it owns (the
///    records whose home — for map-only outputs — or owned key range — for
///    reduce outputs — falls on this shard). The output records themselves
///    live once, in the coordinator's Dfs file.
///
/// Counter methods are thread-safe (map tasks of one job run
/// concurrently); queue methods are thread-safe as well.
class Shard {
 public:
  /// The slice of the shared dictionary this shard serves: every key whose
  /// hash falls in the shard's residue class. A pure function of
  /// (residue, modulus), so two processes agree without coordination.
  struct DictSegmentView {
    int residue = 0;
    int modulus = 1;
    bool Owns(uint64_t key_hash) const {
      return OwnerShard(key_hash, modulus) == residue;
    }
  };

  Shard(int id, int num_shards, ShardingScheme scheme)
      : id_(id), num_shards_(num_shards), scheme_(scheme) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  int id() const { return id_; }
  ShardingScheme scheme() const { return scheme_; }

  /// True iff this shard's reducers own the key (hash-residue ownership —
  /// the shard-side analogue of a dictionary/key segment).
  bool OwnsKey(uint64_t key_hash) const {
    return OwnerShard(key_hash, num_shards_) == id_;
  }
  DictSegmentView dict_segment() const {
    return DictSegmentView{id_, num_shards_};
  }

  // -- map-task queue (coordinator dispatch) --
  void EnqueueMapTask(size_t task_index) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    task_queue_.push_back(task_index);
  }
  std::optional<size_t> DequeueMapTask() {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (task_queue_.empty()) return std::nullopt;
    size_t t = task_queue_.front();
    task_queue_.pop_front();
    return t;
  }
  size_t QueuedMapTasks() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return task_queue_.size();
  }

  // -- cumulative counters (across jobs, cleared by Cluster::ResetHistory) --
  void CountMapTask() { map_tasks_.fetch_add(1, std::memory_order_relaxed); }
  void CountOutput(uint64_t records, uint64_t bytes) {
    output_records_.fetch_add(records, std::memory_order_relaxed);
    output_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  uint64_t map_tasks_run() const {
    return map_tasks_.load(std::memory_order_relaxed);
  }
  uint64_t output_records() const {
    return output_records_.load(std::memory_order_relaxed);
  }
  uint64_t output_bytes() const {
    return output_bytes_.load(std::memory_order_relaxed);
  }

  /// Drops queued tasks and counters (fresh workflow).
  void Reset() {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      task_queue_.clear();
    }
    map_tasks_.store(0, std::memory_order_relaxed);
    output_records_.store(0, std::memory_order_relaxed);
    output_bytes_.store(0, std::memory_order_relaxed);
  }

 private:
  const int id_;
  const int num_shards_;
  const ShardingScheme scheme_;
  mutable std::mutex queue_mu_;
  std::deque<size_t> task_queue_;
  std::atomic<uint64_t> map_tasks_{0};
  std::atomic<uint64_t> output_records_{0};
  std::atomic<uint64_t> output_bytes_{0};
};

/// The message-passing fabric between shards: the *only* transport for
/// shuffle data in a sharded cluster. Every mapper chunk destined to a
/// receiving shard goes through Deliver, which accounts the flow on each
/// (from -> to) edge — broken down by the home shard of the records'
/// producing inputs — and then runs the physical hand-off into the
/// receiver's reduce input under the channel. Edges where from == to are
/// shard-local (loopback, disk-priced); from != to crosses the network.
///
/// Thread-safe: concurrent mappers deliver simultaneously.
class ShardChannel {
 public:
  explicit ShardChannel(int num_shards)
      : num_shards_(num_shards),
        edges_(static_cast<size_t>(num_shards) * num_shards) {}

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  int num_shards() const { return num_shards_; }

  /// Delivers one mapper chunk to shard `to`. `by_from_bytes` /
  /// `by_from_records` give the chunk's breakdown by producing home shard
  /// (num_shards entries each; entries may be zero). `handoff`, when
  /// non-null, physically appends the chunk to the receiver's input —
  /// invoked exactly once, inside the channel.
  void Deliver(int to, const uint64_t* by_from_bytes,
               const uint64_t* by_from_records,
               const std::function<void()>& handoff) {
    for (int from = 0; from < num_shards_; ++from) {
      if (by_from_records[from] == 0 && by_from_bytes[from] == 0) continue;
      Edge& e = edges_[static_cast<size_t>(from) * num_shards_ + to];
      e.bytes.fetch_add(by_from_bytes[from], std::memory_order_relaxed);
      e.records.fetch_add(by_from_records[from], std::memory_order_relaxed);
    }
    if (handoff) handoff();
  }

  uint64_t EdgeBytes(int from, int to) const {
    return edges_[static_cast<size_t>(from) * num_shards_ + to].bytes.load(
        std::memory_order_relaxed);
  }
  uint64_t EdgeRecords(int from, int to) const {
    return edges_[static_cast<size_t>(from) * num_shards_ + to].records.load(
        std::memory_order_relaxed);
  }

  /// Bytes that stayed on their shard (loopback edges).
  uint64_t TotalLocalBytes() const {
    uint64_t n = 0;
    for (int s = 0; s < num_shards_; ++s) n += EdgeBytes(s, s);
    return n;
  }
  /// Bytes that crossed a shard boundary.
  uint64_t TotalCrossBytes() const {
    uint64_t n = 0;
    for (int f = 0; f < num_shards_; ++f) {
      for (int t = 0; t < num_shards_; ++t) {
        if (f != t) n += EdgeBytes(f, t);
      }
    }
    return n;
  }

  void Reset() {
    for (Edge& e : edges_) {
      e.bytes.store(0, std::memory_order_relaxed);
      e.records.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Edge {
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> records{0};
  };

  const int num_shards_;
  std::vector<Edge> edges_;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_SHARD_H_
