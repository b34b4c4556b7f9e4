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

/// What one sink emitted. Each record is booked from the sink's current
/// `from` shard against the shard owning its key (OwnerShard): a shuffled
/// byte is local iff the two agree, and an output byte belongs to `from`.
/// Unsharded is S = 1, where every from and every owner is shard 0.
struct Tally {
  explicit Tally(int num_shards = 0)
      : from_bytes(static_cast<size_t>(num_shards), 0) {}

  uint64_t records = 0;
  uint64_t local_bytes = 0;
  uint64_t cross_bytes = 0;
  std::vector<uint64_t> from_bytes;  // indexed by from shard
  uint64_t factorized_groups = 0;
  uint64_t factorized_flat_rows = 0;

  uint64_t bytes() const { return local_bytes + cross_bytes; }
  void Add(const Tally& o) {
    records += o.records;
    local_bytes += o.local_bytes;
    cross_bytes += o.cross_bytes;
    for (size_t s = 0; s < o.from_bytes.size(); ++s) {
      from_bytes[s] += o.from_bytes[s];
    }
    factorized_groups += o.factorized_groups;
    factorized_flat_rows += o.factorized_flat_rows;
  }
};

/// The sink behind every map, combine and reduce context: copies
/// key‖value into the task's batch (one arena append, view stamped on the
/// spot) and books the record's placement in the emit loop.
template <typename Context>
class Sink : public Context {
 public:
  Sink(RecordBatch* out, int num_shards)
      : out_(out), num_shards_(num_shards), tally_(num_shards) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->Add(key, value);
    const Record& r = out_->records.back();
    const uint64_t bytes = r.Bytes();
    tally_.records += 1;
    tally_.from_bytes[static_cast<size_t>(from)] += bytes;
    (OwnerShard(r.key_hash, num_shards_) == from ? tally_.local_bytes
                                                 : tally_.cross_bytes) += bytes;
  }
  /// The tally so far, with the context's factorized-group counts.
  Tally Done() {
    tally_.factorized_groups = this->factorized_groups();
    tally_.factorized_flat_rows = this->factorized_flat_rows();
    return std::move(tally_);
  }

  /// Shard the next emissions are booked from.
  int from = 0;

 private:
  RecordBatch* out_;
  const int num_shards_;
  Tally tally_;
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
  Tally map;      // every map and map_finish emission
  Tally combine;  // the combiner's emissions, when the job has one
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
    : config_(config), dfs_(dfs) {}

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
}

StatusOr<JobStats> Cluster::Run(const JobConfig& job) {
  RAPIDA_CHECK(job.map != nullptr) << "job '" << job.name << "' has no map fn";
  const int S = std::max(config_.num_shards, 1);
  if (observer_ != nullptr) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "setup"));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  JobStats stats;
  stats.name = job.name;
  stats.map_only = job.reduce == nullptr;
  stats.num_shards = S;

  // ---- read inputs & form splits ----
  // Each input file contributes ceil(stored/block) splits; records are
  // assigned to splits as contiguous chunks of their file (record i goes
  // to split base + i / per_split), which matches the "many mappers scan
  // disjoint blocks" behaviour closely enough for cost purposes while
  // keeping execution deterministic. Split formation never depends on
  // the shard count, so per-task combiner state and emission order (and
  // with them every result) are the same at any S.
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

  util::ThreadPool* workers = pool();
  // Shuffle partition count: one per executor so the reduce side can use
  // the full pool. hash(key) % R only decides which partition groups a
  // key; outputs are re-merged into global key order below, so R never
  // affects results or counters, and key ownership (OwnerShard) is booked
  // per record at Emit rather than tied to a partition.
  const size_t num_partitions =
      stats.map_only
          ? 0
          : static_cast<size_t>(workers ? workers->num_threads() + 1 : 1);

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

  run_tasks(splits.size(), [&](size_t task) {
    Split& split = splits[task];
    MapTaskResult& result = task_results[task];
    RecordBatch out;
    out.records.reserve(split.records.size());
    // A map emission is booked from the home shard of the input record
    // whose map call emitted it. map_finish flushes and combiner output
    // re-emit state the task built up, so they are booked from the task's
    // plurality home (lowest id on ties).
    std::vector<uint64_t> homes(static_cast<size_t>(S), 0);
    int task_home = 0;
    {
      // Scoped so the map's TaskState scratch dies before the combine and
      // scatter below.
      Sink<MapContext> ctx(&out, S);
      for (const TaggedRecord& tr : split.records) {
        ctx.from = AssignShard(tr.record->key_hash, config_.sharding, S);
        ++homes[static_cast<size_t>(ctx.from)];
        job.map(*tr.record, tr.tag, &ctx);
      }
      task_home = static_cast<int>(
          std::max_element(homes.begin(), homes.end()) - homes.begin());
      ctx.from = task_home;
      if (job.map_finish) job.map_finish(&ctx);
      result.map = ctx.Done();
    }

    if (stats.map_only) {
      result.output = std::move(out);
      return;
    }

    if (job.combine) {
      // Combined output gets its own batch so the raw emissions (and their
      // pre-combine bytes) die as soon as the combiner is done.
      RecordBatch combined;
      Sink<ReduceContext> cctx(&combined, S);
      cctx.from = task_home;
      std::vector<GroupSpan> groups = SortAndGroup(&out.records);
      for (const GroupSpan& span : groups) {
        job.combine(out.records[span.begin].key(),
                    SpanValues(out.records, span), &cctx);
      }
      result.combine = cctx.Done();
      out = std::move(combined);
    }

    // Scatter into per-partition buckets, then one locked append each.
    // Partition choice reuses the hash stamped at Emit — no per-record
    // std::hash here. Buckets are sized exactly up front, so no view
    // array grows by doubling.
    std::vector<size_t> bucket_sizes(num_partitions, 0);
    for (const Record& r : out.records) {
      ++bucket_sizes[r.key_hash % num_partitions];
    }
    std::vector<std::vector<Record>> buckets(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      buckets[p].reserve(bucket_sizes[p]);
    }
    for (const Record& r : out.records) {
      buckets[r.key_hash % num_partitions].push_back(r);
    }
    for (size_t p = 0; p < num_partitions; ++p) {
      if (buckets[p].empty()) continue;
      std::lock_guard<std::mutex> lock(partitions[p].mu);
      partitions[p].num_records += buckets[p].size();
      partitions[p].chunks.emplace_back(task, std::move(buckets[p]));
    }
    // The views now live in the partitions; the task keeps only the bytes.
    result.output.arenas = std::move(out.arenas);
  });
  splits.clear();  // every mapper is done with its split views

  // ---- map barrier: merge per-task tallies ----
  if (observer_ != nullptr && !stats.map_only) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "reduce"));
  }
  Tally mapped(S);
  Tally shuffled(S);  // what reaches the reducers: the post-combine output
  for (const MapTaskResult& r : task_results) {
    mapped.Add(r.map);
    shuffled.Add(job.combine ? r.combine : r.map);
  }
  stats.map_output_records = mapped.records;
  stats.map_output_bytes = mapped.bytes();
  stats.factorized_groups = mapped.factorized_groups;
  stats.factorized_flat_rows = mapped.factorized_flat_rows;

  // The job output's tally: the map emissions of a map-only job, the
  // reduce emissions otherwise.
  Tally written(S);
  RecordBatch output;
  if (stats.map_only) {
    // Map-only job: mapper outputs concatenate in split order; the output
    // adopts every task's arenas.
    written = std::move(mapped);
    stats.num_reducers = 0;
    output.records.reserve(written.records);
    for (MapTaskResult& r : task_results) {
      output.records.insert(output.records.end(), r.output.records.begin(),
                            r.output.records.end());
      r.output.records = std::vector<Record>();  // free views as they move
      for (auto& arena : r.output.arenas) {
        output.arenas.push_back(std::move(arena));
      }
    }
  } else {
    stats.shuffle_records = shuffled.records;
    stats.shuffle_bytes = shuffled.bytes();
    stats.shuffle_local_bytes = shuffled.local_bytes;
    stats.shuffle_cross_bytes = shuffled.cross_bytes;

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
    // A reduce emission is booked from the shard owning its group's key.
    auto reduce_group = [&](const std::vector<Record>& records,
                            const GroupSpan& span, Sink<ReduceContext>* rctx) {
      const Record& head = records[span.begin];
      rctx->from = OwnerShard(head.key_hash, S);
      job.reduce(head.key(), SpanValues(records, span), rctx);
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
      std::vector<Tally> part_tally(num_partitions);
      run_tasks(num_partitions, [&](size_t p) {
        const std::vector<Record>& records = part_records[p];
        Sink<ReduceContext> rctx(&part_out[p], S);
        part_spans[p].reserve(part_groups[p].size());
        for (const GroupSpan& span : part_groups[p]) {
          size_t before = part_out[p].records.size();
          reduce_group(records, span, &rctx);
          part_spans[p].push_back(ReducedGroup{
              &records[span.begin], p, before, part_out[p].records.size()});
        }
        part_tally[p] = rctx.Done();
      });
      for (const Tally& t : part_tally) written.Add(t);
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
      output.records.reserve(written.records);
      for (const ReducedGroup& g : all_groups) {
        const std::vector<Record>& from = part_out[g.part].records;
        output.records.insert(output.records.end(), from.begin() + g.begin,
                              from.begin() + g.end);
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
      Sink<ReduceContext> rctx(&output, S);
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
        reduce_group(part_records[best], part_groups[best][next[best]++],
                     &rctx);
      }
      written = rctx.Done();
      release_reduce_input();
    }
    stats.factorized_groups += written.factorized_groups;
    stats.factorized_flat_rows += written.factorized_flat_rows;
  }

  auto stored_bytes = [&job](uint64_t logical) {
    return job.output_options.compressed
               ? static_cast<uint64_t>(static_cast<double>(logical) *
                                       job.output_options.compression_ratio)
               : logical;
  };
  stats.output_records = output.records.size();
  stats.output_bytes = stored_bytes(written.bytes());
  for (uint64_t bytes : written.from_bytes) {
    stats.shard_output_bytes.push_back(stored_bytes(bytes));
  }

  if (!job.output.empty()) {
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
      // Shard-aware shuffle pricing: only bytes booked cross-shard pay
      // the network rate; shard-local bytes move at disk speed.
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
