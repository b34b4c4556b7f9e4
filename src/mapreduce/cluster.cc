#include "mapreduce/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace rapida::mr {

namespace {

/// Map-side sink: copies key‖value into the task's batch (one arena
/// append, view stamped on the spot) and accounts serialized bytes in the
/// emit loop (cheaper than a second pass over the records).
class BatchMapContext : public MapContext {
 public:
  explicit BatchMapContext(RecordBatch* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    bytes_ += key.size() + value.size() + 2;  // == Record::Bytes()
    out_->Add(key, value);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  RecordBatch* out_;
  uint64_t bytes_ = 0;
};

class BatchReduceContext : public ReduceContext {
 public:
  explicit BatchReduceContext(RecordBatch* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->Add(key, value);
  }

 private:
  RecordBatch* out_;
};

/// One split row: a pointer to the input file's record view (key_hash /
/// key_prefix already stamped) plus its input tag.
struct TaggedRecord {
  const Record* record = nullptr;
  int tag = 0;
};

/// Half-open range of same-key records inside a sorted partition.
struct GroupSpan {
  size_t begin = 0;
  size_t end = 0;
};

/// Stable-sorts `records` by (prefix, key) in place and returns the group
/// spans in ascending key order. The precomputed 8-byte prefix resolves
/// the vast majority of comparisons on one uint64_t; ties fall back to the
/// full key bytes, so the order is exactly `a.key < b.key`. Stability
/// keeps each group's values in arrival order, so the result is exactly
/// what the old per-key grouping produced.
std::vector<GroupSpan> SortAndGroup(std::vector<Record>* records) {
  std::stable_sort(records->begin(), records->end(), RecordKeyLess);
  std::vector<GroupSpan> groups;
  size_t i = 0;
  while (i < records->size()) {
    size_t j = i + 1;
    while (j < records->size() &&
           RecordKeyEq((*records)[j], (*records)[i])) {
      ++j;
    }
    groups.push_back(GroupSpan{i, j});
    i = j;
  }
  return groups;
}

/// Zero-copy view of one group's values inside the sorted records.
ValueSpan SpanValues(const std::vector<Record>& records,
                     const GroupSpan& span) {
  return ValueSpan(records.data() + span.begin, records.data() + span.end);
}

/// One mapper's private results, merged into JobStats at the map barrier.
struct MapTaskResult {
  /// Map-only jobs: this task's final records. Reduce jobs: only the
  /// arenas behind the task's shuffle chunks (the views went to the
  /// partitions), kept until the reduce is done with them.
  RecordBatch output;
  /// Sharded map-only jobs: home shard of each `output` record (parallel
  /// array), for per-shard output accounting.
  std::vector<int> output_homes;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  uint64_t shuffle_records = 0;  // post-combine
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_local_bytes = 0;  // sharded: stayed on home shard
  uint64_t shuffle_cross_bytes = 0;  // sharded: crossed a channel edge
  uint64_t factorized_groups = 0;     // groups emitted by map/map_finish
  uint64_t factorized_flat_rows = 0;  // flat rows those groups stand for
};

/// One shuffle partition while mappers are filling it: chunks of records
/// tagged with the producing task index, appended under the partition's
/// own mutex (mappers touching different partitions never contend).
struct ShufflePartition {
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<Record>>> chunks;
  uint64_t num_records = 0;
};

}  // namespace

Cluster::Cluster(const ClusterConfig& config, Dfs* dfs)
    : config_(config), dfs_(dfs) {
  if (config_.num_shards > 1) {
    shards_.reserve(static_cast<size_t>(config_.num_shards));
    for (int s = 0; s < config_.num_shards; ++s) {
      shards_.push_back(
          std::make_unique<Shard>(s, config_.num_shards, config_.sharding));
    }
    channel_ = std::make_unique<ShardChannel>(config_.num_shards);
  }
}

Cluster::~Cluster() = default;

util::ThreadPool* Cluster::pool() {
  int threads = config_.exec_threads;
  if (threads <= 0) threads = util::ThreadPool::HardwareThreads();
  if (threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ == nullptr) {
    // The calling thread joins every ParallelFor, so exec_threads = N
    // means N-way concurrency from N-1 workers plus the caller.
    pool_ = std::make_unique<util::ThreadPool>(threads - 1);
  }
  return pool_.get();
}

void Cluster::ResetHistory() {
  std::lock_guard<std::mutex> lock(mu_);
  history_.clear();
  for (auto& shard : shards_) shard->Reset();
  if (channel_ != nullptr) channel_->Reset();
}

StatusOr<JobStats> Cluster::Run(const JobConfig& job) {
  RAPIDA_CHECK(job.map != nullptr) << "job '" << job.name << "' has no map fn";
  const int S = config_.num_shards > 1 ? config_.num_shards : 1;
  const bool sharded = S > 1;
  if (observer_ != nullptr) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "setup"));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  JobStats stats;
  stats.name = job.name;
  stats.map_only = job.reduce == nullptr;
  stats.num_shards = sharded ? S : 0;
  if (sharded) stats.shard_output_bytes.assign(static_cast<size_t>(S), 0);

  // ---- read inputs & form splits ----
  // Each input file contributes ceil(stored/block) splits; records are
  // assigned to splits as contiguous chunks of their file (record i goes
  // to split base + i / per_split), which matches the "many mappers scan
  // disjoint blocks" behaviour closely enough for cost purposes while
  // keeping execution deterministic. Sharding never changes split
  // formation — that is what keeps results byte-identical at any shard
  // count (per-task combiner state and emission order are untouched).
  struct Split {
    std::vector<TaggedRecord> records;
  };
  std::vector<Split> splits;
  for (size_t tag = 0; tag < job.inputs.size(); ++tag) {
    RAPIDA_ASSIGN_OR_RETURN(const Dfs::File* file, dfs_->Open(job.inputs[tag]));
    stats.input_records += file->records.size();
    stats.input_bytes += file->stored_bytes;
    int n_splits = static_cast<int>(
        (file->stored_bytes + config_.exec_split_bytes - 1) /
        config_.exec_split_bytes);
    n_splits = std::max(n_splits, 1);
    size_t base = splits.size();
    splits.resize(base + n_splits);
    size_t per_split =
        (file->records.size() + n_splits - 1) / std::max(n_splits, 1);
    per_split = std::max<size_t>(per_split, 1);
    for (size_t i = 0; i < file->records.size(); ++i) {
      splits[base + i / per_split].records.push_back(
          TaggedRecord{&file->records[i], static_cast<int>(tag)});
    }
  }
  if (splits.empty()) splits.resize(1);
  stats.num_mappers = static_cast<int>(splits.size());

  // ---- sharded dispatch: assign each map task to the shard that homes
  // the plurality of its records (lowest id wins ties), queue it there,
  // and drain the per-shard queues into the dispatch order. Execution
  // order of map tasks never affects results (each task's output is
  // indexed by task, and shuffle chunks re-sort by task), so shard-local
  // dispatch is free. ----
  std::vector<int> task_shard;
  std::vector<size_t> dispatch;
  if (sharded) {
    task_shard.resize(splits.size(), 0);
    std::vector<uint64_t> votes(static_cast<size_t>(S));
    for (size_t t = 0; t < splits.size(); ++t) {
      std::fill(votes.begin(), votes.end(), 0);
      for (const TaggedRecord& tr : splits[t].records) {
        votes[static_cast<size_t>(AssignShard(tr.record->key_hash,
                                              config_.sharding, S))]++;
      }
      int best = 0;
      for (int s = 1; s < S; ++s) {
        if (votes[static_cast<size_t>(s)] >
            votes[static_cast<size_t>(best)]) {
          best = s;
        }
      }
      task_shard[t] = best;
      shards_[static_cast<size_t>(best)]->EnqueueMapTask(t);
    }
    dispatch.reserve(splits.size());
    for (int s = 0; s < S; ++s) {
      while (auto t = shards_[static_cast<size_t>(s)]->DequeueMapTask()) {
        dispatch.push_back(*t);
      }
    }
  }

  util::ThreadPool* workers = pool();
  // Shuffle partition count. Unsharded: one per executor so the reduce
  // side can use the full pool. Sharded: one per shard — partition p IS
  // shard p's reduce input, fed exclusively through the channel.
  // hash(key) % R only decides which partition groups a key; outputs are
  // re-merged into global key order below, so R never affects results or
  // counters.
  const size_t num_partitions =
      stats.map_only
          ? 0
          : (sharded ? static_cast<size_t>(S)
                     : static_cast<size_t>(
                           workers ? workers->num_threads() + 1 : 1));

  // ---- map phase (+ optional combine, partitioning per mapper) ----
  // Mappers run concurrently. Each emits into a task-local buffer,
  // combines locally, then scatters its output into the shared shuffle
  // partitions; only that last append takes a (per-partition) lock.
  std::vector<MapTaskResult> task_results(splits.size());
  std::vector<ShufflePartition> partitions(num_partitions);
  auto run_tasks = [workers](size_t n,
                             const std::function<void(size_t)>& fn) {
    if (workers != nullptr && n > 1) {
      workers->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  auto map_body = [&](size_t task) {
    Split& split = splits[task];
    MapTaskResult& result = task_results[task];
    RecordBatch out;
    out.records.reserve(split.records.size());
    // Sharded: home shard of each emitted record — the shard the producing
    // input record lives on under the sharding scheme (map_finish flushes
    // and combiner output belong to the task's shard: they are re-emissions
    // of state that already lives where the mapper runs).
    std::vector<int> emit_homes;
    if (sharded) {
      shards_[static_cast<size_t>(task_shard[task])]->CountMapTask();
      emit_homes.reserve(split.records.size());
    }
    {
      // Scoped so the map's TaskState scratch dies before the combine and
      // scatter below.
      BatchMapContext ctx(&out);
      for (const TaggedRecord& tr : split.records) {
        const size_t before = out.records.size();
        job.map(*tr.record, tr.tag, &ctx);
        if (sharded && out.records.size() != before) {
          emit_homes.resize(out.records.size(),
                            AssignShard(tr.record->key_hash, config_.sharding,
                                        S));
        }
      }
      if (job.map_finish) job.map_finish(&ctx);
      if (sharded) emit_homes.resize(out.records.size(), task_shard[task]);
      result.map_output_records = out.records.size();
      result.map_output_bytes = ctx.bytes();
      result.factorized_groups = ctx.factorized_groups();
      result.factorized_flat_rows = ctx.factorized_flat_rows();
    }

    if (stats.map_only) {
      result.output = std::move(out);
      result.output_homes = std::move(emit_homes);
      return;
    }

    if (job.combine) {
      // Combined output gets its own batch so the raw emissions (and their
      // pre-combine bytes) die as soon as the combiner is done.
      RecordBatch combined;
      BatchReduceContext cctx(&combined);
      std::vector<GroupSpan> groups = SortAndGroup(&out.records);
      for (const GroupSpan& span : groups) {
        job.combine(out.records[span.begin].key(),
                    SpanValues(out.records, span), &cctx);
      }
      out = std::move(combined);
      // Combined records are task-level re-aggregations: they live on the
      // mapper's shard.
      if (sharded) emit_homes.assign(out.records.size(), task_shard[task]);
    }
    const std::vector<Record>& map_out = out.records;

    // Scatter into per-partition buckets, then one locked append each.
    // Partition choice reuses the hash stamped at Emit — no per-record
    // std::hash here — and never affects results or counters: outputs are
    // re-merged into global key order below. Sharded, the partition is
    // the shard owning the key (OwnerShard is the same residue). Buckets
    // are sized exactly up front, so no view array grows by doubling.
    std::vector<size_t> bucket_sizes(num_partitions, 0);
    for (const Record& r : map_out) ++bucket_sizes[r.key_hash % num_partitions];
    std::vector<std::vector<Record>> buckets(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      buckets[p].reserve(bucket_sizes[p]);
    }
    if (sharded) {
      // Each record flows from its home shard to the shard owning its
      // key's reducer range; the channel is the only path into a shard's
      // reduce input and accounts every (from -> to) edge.
      std::vector<uint64_t> edge_bytes(static_cast<size_t>(S) * S, 0);
      std::vector<uint64_t> edge_records(static_cast<size_t>(S) * S, 0);
      for (size_t i = 0; i < map_out.size(); ++i) {
        const Record& r = map_out[i];
        result.shuffle_records += 1;
        result.shuffle_bytes += r.Bytes();
        const int to = OwnerShard(r.key_hash, S);
        const int from = emit_homes[i];
        edge_bytes[static_cast<size_t>(from) * S + to] += r.Bytes();
        edge_records[static_cast<size_t>(from) * S + to] += 1;
        if (from == to) {
          result.shuffle_local_bytes += r.Bytes();
        } else {
          result.shuffle_cross_bytes += r.Bytes();
        }
        buckets[static_cast<size_t>(to)].push_back(r);
      }
      std::vector<uint64_t> by_from_bytes(static_cast<size_t>(S));
      std::vector<uint64_t> by_from_records(static_cast<size_t>(S));
      for (int to = 0; to < S; ++to) {
        std::vector<Record>& chunk = buckets[static_cast<size_t>(to)];
        if (chunk.empty()) continue;
        for (int from = 0; from < S; ++from) {
          by_from_bytes[static_cast<size_t>(from)] =
              edge_bytes[static_cast<size_t>(from) * S + to];
          by_from_records[static_cast<size_t>(from)] =
              edge_records[static_cast<size_t>(from) * S + to];
        }
        ShufflePartition& part = partitions[static_cast<size_t>(to)];
        channel_->Deliver(to, by_from_bytes.data(), by_from_records.data(),
                          [&part, task, &chunk] {
                            std::lock_guard<std::mutex> lock(part.mu);
                            part.num_records += chunk.size();
                            part.chunks.emplace_back(task, std::move(chunk));
                          });
      }
    } else {
      for (const Record& r : map_out) {
        result.shuffle_records += 1;
        result.shuffle_bytes += r.Bytes();
        buckets[r.key_hash % num_partitions].push_back(r);
      }
      for (size_t p = 0; p < num_partitions; ++p) {
        if (buckets[p].empty()) continue;
        std::lock_guard<std::mutex> lock(partitions[p].mu);
        partitions[p].num_records += buckets[p].size();
        partitions[p].chunks.emplace_back(task, std::move(buckets[p]));
      }
    }
    // The views now live in the partitions; the task keeps only the bytes.
    result.output.arenas = std::move(out.arenas);
  };

  run_tasks(splits.size(), [&](size_t i) {
    map_body(sharded ? dispatch[i] : i);
  });
  splits.clear();  // every mapper is done with its split views

  // ---- map barrier: merge per-task accumulators ----
  if (observer_ != nullptr && !stats.map_only) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "reduce"));
  }
  for (const MapTaskResult& r : task_results) {
    stats.map_output_records += r.map_output_records;
    stats.map_output_bytes += r.map_output_bytes;
    stats.shuffle_records += r.shuffle_records;
    stats.shuffle_bytes += r.shuffle_bytes;
    stats.shuffle_local_bytes += r.shuffle_local_bytes;
    stats.shuffle_cross_bytes += r.shuffle_cross_bytes;
    stats.factorized_groups += r.factorized_groups;
    stats.factorized_flat_rows += r.factorized_flat_rows;
  }
  if (!sharded) {
    // One address space: every shuffled byte is a local hand-off. (The
    // 10-node cost model still prices the simulated network; these
    // counters say what crosses *shard* boundaries, and there are none.)
    stats.shuffle_local_bytes = stats.shuffle_bytes;
    stats.shuffle_cross_bytes = 0;
  }

  RecordBatch output;
  // Sharded: owner shard of every output record (parallel to
  // output.records) — map-only records stay on their home shard; reduce
  // records belong to the shard whose reducers own the group key.
  std::vector<int> output_owner;
  if (stats.map_only) {
    // Map-only job: mapper outputs concatenate in split order; the output
    // adopts every task's arenas.
    stats.shuffle_records = 0;
    stats.shuffle_bytes = 0;
    stats.shuffle_local_bytes = 0;
    stats.shuffle_cross_bytes = 0;
    stats.num_reducers = 0;
    size_t total = 0;
    for (const MapTaskResult& r : task_results) {
      total += r.output.records.size();
    }
    output.records.reserve(total);
    if (sharded) output_owner.reserve(total);
    for (MapTaskResult& r : task_results) {
      output.records.insert(output.records.end(), r.output.records.begin(),
                            r.output.records.end());
      r.output.records = std::vector<Record>();  // free views as they move
      if (sharded) {
        output_owner.insert(output_owner.end(), r.output_homes.begin(),
                            r.output_homes.end());
      }
      for (auto& arena : r.output.arenas) {
        output.arenas.push_back(std::move(arena));
      }
    }
  } else {
    // ---- group phase: per partition, flatten in task order, sort,
    // group-adjacent. Runs one task per partition. ----
    std::vector<std::vector<Record>> part_records(num_partitions);
    std::vector<std::vector<GroupSpan>> part_groups(num_partitions);
    run_tasks(num_partitions, [&](size_t p) {
      ShufflePartition& part = partitions[p];
      std::sort(part.chunks.begin(), part.chunks.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<Record>& flat = part_records[p];
      flat.reserve(part.num_records);
      for (auto& [task, chunk] : part.chunks) {
        flat.insert(flat.end(), chunk.begin(), chunk.end());
        chunk = std::vector<Record>();  // release each chunk as it drains
      }
      part.chunks.clear();
      part_groups[p] = SortAndGroup(&flat);
    });

    size_t distinct_keys = 0;
    for (const auto& groups : part_groups) distinct_keys += groups.size();
    stats.num_reducers =
        std::min<int>(config_.reduce_slots(),
                      std::max<int>(1, static_cast<int>(distinct_keys)));

    // Once the reduce no longer references its input, the sorted
    // partitions and the map-side arenas they view go, so the output is
    // assembled and written without the shuffle alive beside it.
    auto release_reduce_input = [&] {
      part_records.clear();
      part_groups.clear();
      task_results.clear();
    };

    if (job.reduce_parallel_safe && workers != nullptr &&
        num_partitions > 1) {
      // ---- parallel reduce: each partition reduces its own key groups,
      // recording the output span per group; spans are then concatenated
      // in ascending input-key order, which reproduces the serial path's
      // output byte-for-byte. ----
      struct ReducedGroup {
        const Record* head;  // the group's first input record (sort key)
        size_t part;
        size_t begin, end;  // span in part_out[part].records
      };
      std::vector<RecordBatch> part_out(num_partitions);
      std::vector<std::vector<ReducedGroup>> part_spans(num_partitions);
      std::vector<uint64_t> part_fgroups(num_partitions, 0);
      std::vector<uint64_t> part_frows(num_partitions, 0);
      run_tasks(num_partitions, [&](size_t p) {
        const std::vector<Record>& records = part_records[p];
        RecordBatch& out = part_out[p];
        BatchReduceContext rctx(&out);
        part_spans[p].reserve(part_groups[p].size());
        for (const GroupSpan& span : part_groups[p]) {
          size_t before = out.records.size();
          const Record& head = records[span.begin];
          job.reduce(head.key(), SpanValues(records, span), &rctx);
          part_spans[p].push_back(
              ReducedGroup{&head, p, before, out.records.size()});
        }
        part_fgroups[p] = rctx.factorized_groups();
        part_frows[p] = rctx.factorized_flat_rows();
      });
      for (size_t p = 0; p < num_partitions; ++p) {
        stats.factorized_groups += part_fgroups[p];
        stats.factorized_flat_rows += part_frows[p];
      }
      std::vector<ReducedGroup> all_groups;
      all_groups.reserve(distinct_keys);
      for (const auto& spans : part_spans) {
        all_groups.insert(all_groups.end(), spans.begin(), spans.end());
      }
      std::sort(all_groups.begin(), all_groups.end(),
                [](const ReducedGroup& a, const ReducedGroup& b) {
                  return RecordKeyLess(*a.head, *b.head);
                });
      release_reduce_input();
      size_t total = 0;
      for (const RecordBatch& out : part_out) total += out.records.size();
      output.records.reserve(total);
      if (sharded) output_owner.reserve(total);
      for (const ReducedGroup& g : all_groups) {
        const std::vector<Record>& from = part_out[g.part].records;
        output.records.insert(output.records.end(), from.begin() + g.begin,
                              from.begin() + g.end);
        // Sharded: partition index IS the owning shard.
        if (sharded) {
          output_owner.insert(output_owner.end(), g.end - g.begin,
                              static_cast<int>(g.part));
        }
      }
      for (RecordBatch& out : part_out) {
        for (auto& arena : out.arenas) {
          output.arenas.push_back(std::move(arena));
        }
      }
    } else {
      // ---- serial reduce: k-way merge of the sorted partitions invokes
      // the reduce fn once per key in *global* key order — identical to
      // the single-threaded runtime, so reduce fns that mutate shared
      // state (e.g. dictionary interning in aggregation finalizers) see
      // the exact same sequence of calls. ----
      BatchReduceContext rctx(&output);
      std::vector<size_t> next(num_partitions, 0);
      for (;;) {
        size_t best = num_partitions;
        const Record* best_head = nullptr;
        for (size_t p = 0; p < num_partitions; ++p) {
          if (next[p] >= part_groups[p].size()) continue;
          const Record& head =
              part_records[p][part_groups[p][next[p]].begin];
          if (best_head == nullptr || RecordKeyLess(head, *best_head)) {
            best = p;
            best_head = &head;
          }
        }
        if (best == num_partitions) break;
        const GroupSpan& span = part_groups[best][next[best]++];
        job.reduce(part_records[best][span.begin].key(),
                   SpanValues(part_records[best], span), &rctx);
        // Sharded: everything this group emitted belongs to the owning
        // partition's shard.
        if (sharded) {
          output_owner.resize(output.records.size(), static_cast<int>(best));
        }
      }
      stats.factorized_groups += rctx.factorized_groups();
      stats.factorized_flat_rows += rctx.factorized_flat_rows();
      release_reduce_input();
    }
  }

  auto stored_bytes = [&job](uint64_t logical) {
    return job.output_options.compressed
               ? static_cast<uint64_t>(static_cast<double>(logical) *
                                       job.output_options.compression_ratio)
               : logical;
  };
  stats.output_records = output.records.size();
  stats.output_bytes = stored_bytes(output.LogicalBytes());

  if (!job.output.empty()) {
    if (sharded) {
      // Per-shard output accounting from the owner array: each shard is
      // credited with the records it owns. The coordinator file below
      // holds the only copy of the records.
      std::vector<uint64_t> seg_records(static_cast<size_t>(S), 0);
      std::vector<uint64_t> seg_bytes(static_cast<size_t>(S), 0);
      for (size_t i = 0; i < output.records.size(); ++i) {
        const size_t s = static_cast<size_t>(output_owner[i]);
        seg_records[s] += 1;
        seg_bytes[s] += output.records[i].Bytes();
      }
      for (size_t s = 0; s < static_cast<size_t>(S); ++s) {
        if (seg_records[s] == 0) continue;
        stats.shard_output_bytes[s] = stored_bytes(seg_bytes[s]);
        shards_[s]->CountOutput(seg_records[s], stats.shard_output_bytes[s]);
      }
    }
    RAPIDA_RETURN_IF_ERROR(
        dfs_->Write(job.output, std::move(output), job.output_options));
  }

  stats.sim_seconds = EstimateSimSeconds(stats);
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (observer_ != nullptr) observer_->OnJobComplete(&stats);
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(stats);
  }
  return stats;
}

double Cluster::EstimateSimSeconds(const JobStats& stats) const {
  const double mb = 1024.0 * 1024.0;
  const double scale = config_.bytes_scale;

  // Scaled quantities: the executed dataset is a 1/scale sample of the
  // modeled one.
  double input_bytes = static_cast<double>(stats.input_bytes) * scale;
  double input_records = static_cast<double>(stats.input_records) * scale;
  double shuffle_bytes = static_cast<double>(stats.shuffle_bytes) * scale;
  double shuffle_records = static_cast<double>(stats.shuffle_records) * scale;
  double output_bytes = static_cast<double>(stats.output_bytes) * scale;

  // Map phase: one mapper per (scaled) block; mappers run in waves over
  // the available slots. Compressed inputs produce fewer mappers — the
  // paper's ORC parallelism effect. Sharded clusters expose
  // num_shards * slots_per_node slots (the shards are the nodes).
  int eff_mappers = static_cast<int>(
      (input_bytes + static_cast<double>(config_.block_size) - 1) /
      static_cast<double>(config_.block_size));
  eff_mappers = std::max(eff_mappers, 1);
  int parallel_maps = std::max(std::min(eff_mappers, config_.map_slots()), 1);
  double map_read_s =
      (input_bytes / mb) / (config_.io_mb_per_s * parallel_maps);
  double map_cpu_s =
      input_records * config_.cpu_us_per_record * 1e-6 / parallel_maps;

  double shuffle_s = 0;
  double reduce_cpu_s = 0;
  int parallel_reds = 1;
  if (!stats.map_only) {
    // A single reduce group (GROUP BY ALL) cannot parallelize; otherwise
    // the scaled key space fills the reduce slots.
    parallel_reds = stats.num_reducers <= 1
                        ? 1
                        : std::max(config_.reduce_slots(), 1);
    if (config_.num_shards > 1) {
      // Shard-aware shuffle pricing: only bytes that cross a channel edge
      // pay the network rate; shard-local hand-offs move at disk speed.
      // Stats whose split doesn't reconcile (hand-built ablation stats)
      // conservatively price everything as crossing.
      double cross_bytes =
          static_cast<double>(stats.shuffle_cross_bytes) * scale;
      double local_bytes =
          static_cast<double>(stats.shuffle_local_bytes) * scale;
      if (stats.shuffle_local_bytes + stats.shuffle_cross_bytes !=
          stats.shuffle_bytes) {
        cross_bytes = shuffle_bytes;
        local_bytes = 0;
      }
      shuffle_s = (cross_bytes / mb) * config_.sort_factor /
                      (config_.net_mb_per_s * parallel_reds) +
                  (local_bytes / mb) * config_.sort_factor /
                      (config_.io_mb_per_s * parallel_reds);
    } else {
      shuffle_s = (shuffle_bytes / mb) * config_.sort_factor /
                  (config_.net_mb_per_s * parallel_reds);
    }
    reduce_cpu_s =
        shuffle_records * config_.cpu_us_per_record * 1e-6 / parallel_reds;
  }

  double write_s = (output_bytes / mb) / (config_.io_mb_per_s * parallel_reds);

  return config_.per_job_overhead_s + map_read_s + map_cpu_s + shuffle_s +
         reduce_cpu_s + write_s;
}

}  // namespace rapida::mr
