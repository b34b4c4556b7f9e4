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

/// The sink behind every map, combine and reduce context: packs key‖value
/// into the task's batch and books the record's placement in the emit loop.
template <typename Context>
class Sink : public Context {
 public:
  Sink(RecordBatch* out, int num_shards)
      : out_(out), num_shards_(num_shards), tally_(num_shards) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->Add(key, value);
    const uint64_t bytes = LogicalBytes(key.size(), value.size());
    tally_.records += 1;
    tally_.from_bytes[static_cast<size_t>(from)] += bytes;
    (OwnerShard(HashKey(key), num_shards_) == from ? tally_.local_bytes
                                                   : tally_.cross_bytes) +=
        bytes;
    if (group_key != nullptr && key != *group_key) rekeyed = true;
  }
  /// The tally so far, with the context's factorized-group counts.
  Tally Done() {
    tally_.factorized_groups = this->factorized_groups();
    tally_.factorized_flat_rows = this->factorized_flat_rows();
    return std::move(tally_);
  }

  /// Map sinks only: the task index MapContext::task() reports.
  void SetTask(size_t task) { this->task_ = task; }

  /// Shard the next emissions are booked from.
  int from = 0;
  /// Combine sinks only: the key of the group being combined. An emission
  /// under any other key sets `rekeyed`.
  const std::string_view* group_key = nullptr;
  bool rekeyed = false;

 private:
  RecordBatch* out_;
  const int num_shards_;
  Tally tally_;
};

/// One entry of a run's sort order, as a Hadoop map task's metadata entry
/// is: the record's key prefix and its position in the run's batch.
struct OrderEntry {
  uint64_t prefix = 0;
  uint64_t position = 0;
};
static_assert(sizeof(OrderEntry) == 16, "an order entry is 16 bytes");

/// A map task's shuffled output: its packed records and their key order,
/// one entry per record.
struct SortedRun {
  RecordBatch batch;
  std::vector<OrderEntry> order;

  /// The record of `e`, decoded, with its key prefix stamped from `e`.
  Record At(const OrderEntry& e) const {
    Record r = batch.At(e.position);
    r.key_prefix = e.prefix;
    return r;
  }
};

/// `batch`'s order entries in Add order, sized exactly.
std::vector<OrderEntry> EntriesOf(const RecordBatch& batch) {
  std::vector<OrderEntry> order;
  order.reserve(batch.size());
  batch.ForEach([&order](const Record& r, uint64_t position) {
    order.push_back(OrderEntry{KeyPrefix(r.key()), position});
  });
  return order;
}

/// Sorts `run`'s order by key, stably: entries are made in Add order, so
/// equal keys keep their emission order. A compare resolves on the prefix
/// and decodes the two records' headers only when the prefixes tie.
void SortOrder(SortedRun* run) {
  const RecordBatch& batch = run->batch;
  std::stable_sort(run->order.begin(), run->order.end(),
                   [&batch](const OrderEntry& a, const OrderEntry& b) {
                     if (a.prefix != b.prefix) return a.prefix < b.prefix;
                     return batch.At(a.position).key() <
                            batch.At(b.position).key();
                   });
}

bool SameKey(const Record& a, const Record& b) {
  return a.key_prefix == b.key_prefix && a.key() == b.key();
}

/// A walk over a slice of a run's order. `head` is the record of `*next`,
/// decoded once as the walk reaches it; read it only while !done().
struct Cursor {
  Cursor(const SortedRun& r, const OrderEntry* begin, const OrderEntry* e,
         size_t t)
      : run(&r), next(begin), end(e), task(t) {
    if (next != end) head = run->At(*next);
  }
  bool done() const { return next == end; }

  /// Finds the end of the head's group (the entries holding its key) and
  /// returns the group's size. A header is decoded only on a prefix tie.
  size_t MarkGroup() {
    group_end = next + 1;
    while (group_end != end && group_end->prefix == next->prefix &&
           run->batch.At(group_end->position).key() == head.key()) {
      ++group_end;
    }
    return static_cast<size_t>(group_end - next);
  }
  /// Appends the marked group's records to `values` in order and moves
  /// past them.
  void TakeGroup(std::vector<Record>* values) {
    values->push_back(head);
    for (const OrderEntry* e = next + 1; e != group_end; ++e) {
      values->push_back(run->At(*e));
    }
    next = group_end;
    if (next != end) head = run->At(*next);
  }

  const SortedRun* run;
  const OrderEntry* next;
  const OrderEntry* end;
  const OrderEntry* group_end = nullptr;  // set by MarkGroup
  size_t task;  // map task index
  Record head;
};

/// Empties `values` and makes room for exactly n records, so a large
/// group's values are never doubled into; a smaller buffer is freed before
/// the larger one is taken.
void ResetGather(std::vector<Record>* values, size_t n) {
  values->clear();
  if (values->capacity() < n) {
    *values = std::vector<Record>();
    values->reserve(n);
  }
}

/// One map task's private results, merged into JobStats at the map barrier.
struct MapTaskResult {
  /// Map-only jobs: `run.batch` is this task's final records, one part of
  /// the output file. Reduce jobs: the task's sorted run, its post-combine
  /// output and that output's key order, which the reduce merges in place
  /// and releases once every key range is done with it.
  SortedRun run;
  Tally map;      // every map and map_finish emission
  Tally combine;  // the combiner's emissions, when the job has one
  bool rekeyed = false;  // the combiner emitted under another group's key
};

/// Up to n - 1 strictly increasing splitter keys that cut the runs' key
/// space into n ranges of about equal record counts: keys sampled at an
/// even stride over the concatenated runs, sorted, and taken at even
/// quantiles. Splitters are full keys (RecordKeyLess), so keys sharing an
/// 8-byte prefix still spread; equal picks collapse, so a key space with
/// fewer distinct keys than ranges gets fewer ranges.
std::vector<Record> PickSplitters(const std::vector<MapTaskResult>& tasks,
                                  size_t n) {
  uint64_t total = 0;
  for (const MapTaskResult& task : tasks) total += task.run.order.size();
  std::vector<Record> splitters;
  if (n <= 1 || total == 0) return splitters;
  constexpr uint64_t kSamplesPerRange = 32;
  const uint64_t stride = std::max<uint64_t>(1, total / (n * kSamplesPerRange));
  std::vector<Record> samples;
  uint64_t next = stride / 2;  // index of the next sample over all runs
  uint64_t base = 0;           // index of the current run's first record
  for (const MapTaskResult& task : tasks) {
    const SortedRun& run = task.run;
    for (; next < base + run.order.size(); next += stride) {
      samples.push_back(run.At(run.order[next - base]));
    }
    base += run.order.size();
  }
  std::sort(samples.begin(), samples.end(), RecordKeyLess);
  for (size_t i = 1; i < n; ++i) {
    const Record& s = samples[i * samples.size() / n];
    if (splitters.empty() || RecordKeyLess(splitters.back(), s)) {
      splitters.push_back(s);
    }
  }
  return splitters;
}

/// Merge-heap order (std::push_heap / pop_heap keep the greatest on top):
/// the smallest (head key, map task) comes out first, so a key held by
/// several runs is taken from them in run order.
bool MergesAfter(const Cursor* a, const Cursor* b) {
  if (a->head.key_prefix != b->head.key_prefix) {
    return a->head.key_prefix > b->head.key_prefix;
  }
  const int c = a->head.key().compare(b->head.key());
  return c != 0 ? c > 0 : a->task > b->task;
}

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
  // Each input file contributes ceil(stored / exec_split_bytes) splits,
  // each a contiguous record range of its file (record i goes to split
  // i / per_split), which matches the "many mappers scan disjoint blocks"
  // behaviour closely enough for cost purposes while keeping execution
  // deterministic. Split formation never depends on the shard count, so
  // per-task combiner state and emission order (and with them every
  // result) are the same at any S.
  struct Split {
    const Dfs::File* file = nullptr;  // null: the one split of no input
    int tag = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  std::vector<Split> splits;
  for (size_t tag = 0; tag < job.inputs.size(); ++tag) {
    RAPIDA_ASSIGN_OR_RETURN(const Dfs::File* file, dfs_->Open(job.inputs[tag]));
    const uint64_t n = file->size();
    stats.input_records += n;
    stats.input_bytes += file->stored_bytes;
    const uint64_t n_splits = std::max<uint64_t>(
        1, (file->stored_bytes + config_.exec_split_bytes - 1) /
               config_.exec_split_bytes);
    const uint64_t per_split =
        std::max<uint64_t>(1, (n + n_splits - 1) / n_splits);
    for (uint64_t s = 0; s < n_splits; ++s) {
      splits.push_back(Split{file, static_cast<int>(tag),
                             std::min(s * per_split, n),
                             std::min((s + 1) * per_split, n)});
    }
  }
  if (splits.empty()) splits.resize(1);
  stats.num_mappers = static_cast<int>(splits.size());

  util::ThreadPool* workers = pool();
  auto run_tasks = [workers](size_t n,
                             const std::function<void(size_t)>& fn) {
    if (workers != nullptr && n > 1) {
      workers->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  // ---- map phase: map, sort, combine; each task keeps its sorted run ----
  // Map tasks run concurrently and share nothing: each emits into its own
  // packed batch, sorts a 16-byte order entry per emission by key once (a
  // key's values keep their emission order) and, when the job has a
  // combiner, walks the order group by group into a new batch that is
  // already sorted. The run stays with its task until the reduce has
  // merged it.
  std::vector<MapTaskResult> task_results(splits.size());
  run_tasks(splits.size(), [&](size_t task) {
    const Split& split = splits[task];
    MapTaskResult& result = task_results[task];
    SortedRun& run = result.run;
    // A map emission is booked from the home shard of the input record
    // whose map call emitted it. map_finish flushes and combiner output
    // re-emit state the task built up, so they are booked from the task's
    // plurality home (lowest id on ties).
    std::vector<uint64_t> homes(static_cast<size_t>(S), 0);
    int task_home = 0;
    {
      // Scoped so the map's TaskState scratch dies before the sort and
      // combine below.
      Sink<MapContext> ctx(&run.batch, S);
      ctx.SetTask(task);
      if (split.file != nullptr) {
        split.file->ForRange(split.begin, split.end, [&](const Record& r) {
          ctx.from = AssignShard(r.key_hash, S);
          ++homes[static_cast<size_t>(ctx.from)];
          job.map(r, split.tag, &ctx);
        });
      }
      task_home = static_cast<int>(
          std::max_element(homes.begin(), homes.end()) - homes.begin());
      ctx.from = task_home;
      if (job.map_finish) job.map_finish(&ctx);
      result.map = ctx.Done();
    }
    if (stats.map_only) return;

    run.order = EntriesOf(run.batch);
    SortOrder(&run);
    if (!job.combine) return;
    // The combiner emits under each group's key, so its output is again a
    // sorted run. It gets its own batch, so the raw emissions and their
    // order die as soon as it is done.
    RecordBatch combined;
    {
      Sink<ReduceContext> cctx(&combined, S);
      cctx.from = task_home;
      std::string_view group_key;
      cctx.group_key = &group_key;
      std::vector<Record> values;
      Cursor c(run, run.order.data(), run.order.data() + run.order.size(),
               task);
      while (!c.done()) {
        group_key = c.head.key();
        ResetGather(&values, c.MarkGroup());
        c.TakeGroup(&values);
        job.combine(group_key,
                    ValueSpan(values.data(), values.data() + values.size()),
                    &cctx);
        if (cctx.rekeyed) {
          result.rekeyed = true;
          return;
        }
      }
      result.combine = cctx.Done();
    }
    run = SortedRun();
    run.order = EntriesOf(combined);
    run.batch = std::move(combined);
  });

  // ---- map barrier: merge per-task tallies ----
  if (observer_ != nullptr && !stats.map_only) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "reduce"));
  }
  Tally mapped(S);
  Tally shuffled(S);  // what reaches the reducers: the post-combine output
  for (const MapTaskResult& r : task_results) {
    if (r.rekeyed) {
      return Status::Internal("job '" + job.name +
                              "': its combiner emitted a record under a key "
                              "other than its group's");
    }
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
  // The output file's parts, in file order; Dfs::Write packs and frees them
  // one by one.
  std::vector<RecordBatch> output;
  if (stats.map_only) {
    // Map-only job: the map tasks' batches, in split order.
    written = std::move(mapped);
    stats.num_reducers = 0;
    for (MapTaskResult& r : task_results) {
      output.push_back(std::move(r.run.batch));
    }
  } else {
    stats.shuffle_records = shuffled.records;
    stats.shuffle_bytes = shuffled.bytes();
    stats.shuffle_local_bytes = shuffled.local_bytes;
    stats.shuffle_cross_bytes = shuffled.cross_bytes;

    // ---- reduce phase: merge the runs, one task per key range ----
    // A parallel-safe reduce splits the key space into pool-width ranges;
    // any other reduce is the same merge over one range on the calling
    // thread, so a reduce with side effects (aggregate finalizers interning
    // into the shared rdf::Dictionary) sees its calls in global key order
    // at any exec_threads. Ranges are contiguous in key order, so their
    // outputs concatenate into exactly the one-range output.
    const size_t width =
        job.reduce_parallel_safe && workers != nullptr
            ? static_cast<size_t>(workers->num_threads()) + 1
            : 1;
    const std::vector<Record> splitters = PickSplitters(task_results, width);
    const size_t num_ranges = splitters.size() + 1;
    // Boundary k of a run's order: where range k starts (k = num_ranges:
    // its end).
    auto cut = [&splitters, num_ranges](const SortedRun& run, size_t k) {
      const OrderEntry* begin = run.order.data();
      const OrderEntry* end = begin + run.order.size();
      if (k == 0) return begin;
      if (k == num_ranges) return end;
      const Record& s = splitters[k - 1];
      return std::partition_point(begin, end, [&](const OrderEntry& e) {
        return e.prefix != s.key_prefix
                   ? e.prefix < s.key_prefix
                   : run.batch.At(e.position).key() < s.key();
      });
    };
    std::vector<RecordBatch> range_out(num_ranges);
    std::vector<Tally> range_tally(num_ranges);
    std::vector<uint64_t> range_keys(num_ranges, 0);
    // A heap keyed on (head key, map task) merges the range's run slices:
    // reduce sees each key once, in ascending order, with its values
    // decoded into the range's reused gather buffer in (map task,
    // emission) order, whether one run holds the key or several. A reduce
    // emission is booked from the shard owning its group's key.
    run_tasks(num_ranges, [&](size_t range) {
      std::vector<Cursor> cursors;
      for (size_t t = 0; t < task_results.size(); ++t) {
        const SortedRun& run = task_results[t].run;
        Cursor c(run, cut(run, range), cut(run, range + 1), t);
        if (!c.done()) cursors.push_back(c);
      }
      std::vector<Cursor*> heap;
      for (Cursor& c : cursors) heap.push_back(&c);
      std::make_heap(heap.begin(), heap.end(), MergesAfter);
      Sink<ReduceContext> rctx(&range_out[range], S);
      std::vector<Cursor*> holders;  // the runs holding the current key
      std::vector<Record> gather;
      while (!heap.empty()) {
        holders.clear();
        do {
          std::pop_heap(heap.begin(), heap.end(), MergesAfter);
          holders.push_back(heap.back());
          heap.pop_back();
        } while (!heap.empty() &&
                 SameKey(heap.front()->head, holders[0]->head));
        const std::string_view key = holders[0]->head.key();
        size_t group_size = 0;
        for (Cursor* c : holders) group_size += c->MarkGroup();
        ResetGather(&gather, group_size);
        for (Cursor* c : holders) c->TakeGroup(&gather);
        rctx.from = OwnerShard(HashKey(key), S);
        job.reduce(key, ValueSpan(gather.data(), gather.data() + gather.size()),
                   &rctx);
        ++range_keys[range];
        for (Cursor* c : holders) {
          if (c->done()) continue;
          heap.push_back(c);
          std::push_heap(heap.begin(), heap.end(), MergesAfter);
        }
      }
      range_tally[range] = rctx.Done();
    });
    uint64_t distinct_keys = 0;
    for (size_t r = 0; r < num_ranges; ++r) {
      written.Add(range_tally[r]);
      distinct_keys += range_keys[r];
    }
    stats.num_reducers =
        std::min<int>(config_.reduce_slots(),
                      std::max<int>(1, static_cast<int>(distinct_keys)));
    stats.factorized_groups += written.factorized_groups;
    stats.factorized_flat_rows += written.factorized_flat_rows;

    // The runs go before the output is written, so the
    // shuffle and the output file are never both alive at full size.
    task_results.clear();
    output = std::move(range_out);
  }

  auto stored_bytes = [&job](uint64_t logical) {
    return job.output_options.compressed
               ? static_cast<uint64_t>(static_cast<double>(logical) *
                                       job.output_options.compression_ratio)
               : logical;
  };
  stats.output_records = written.records;
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
