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

  /// Map sinks only: the task index MapContext::task() reports.
  void SetTask(size_t task) { this->task_ = task; }

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

/// One past the last record of the group of equal keys starting at
/// `head`, scanning no further than `end`.
const Record* GroupEnd(const Record* head, const Record* end) {
  const Record* e = head + 1;
  while (e != end && RecordKeyEq(*e, *head)) ++e;
  return e;
}

/// Appends `from`'s views to `to` and adopts its arenas; `from`'s view
/// array is freed as soon as it has moved.
void AppendBatch(RecordBatch* from, RecordBatch* to) {
  to->records.insert(to->records.end(), from->records.begin(),
                     from->records.end());
  from->records = std::vector<Record>();
  for (auto& arena : from->arenas) to->arenas.push_back(std::move(arena));
}

/// One map task's private results, merged into JobStats at the map barrier.
struct MapTaskResult {
  /// Map-only jobs: this task's final records. Reduce jobs: the task's
  /// sorted run, its post-combine output in key order (views and arenas),
  /// which the reduce merges in place and releases once every key range
  /// is done with it.
  RecordBatch run;
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
  for (const MapTaskResult& task : tasks) total += task.run.records.size();
  std::vector<Record> splitters;
  if (n <= 1 || total == 0) return splitters;
  constexpr uint64_t kSamplesPerRange = 32;
  const uint64_t stride = std::max<uint64_t>(1, total / (n * kSamplesPerRange));
  std::vector<Record> samples;
  uint64_t next = stride / 2;  // index of the next sample over all runs
  uint64_t base = 0;           // index of the current run's first record
  for (const MapTaskResult& task : tasks) {
    const std::vector<Record>& run = task.run.records;
    for (; next < base + run.size(); next += stride) {
      samples.push_back(run[next - base]);
    }
    base += run.size();
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

/// A run's unmerged slice within one key range.
struct Cursor {
  const Record* head = nullptr;
  const Record* end = nullptr;
  size_t run = 0;  // map task index
};

/// Merge-heap order (std::push_heap / pop_heap keep the greatest on top):
/// the smallest (head key, run index) comes out first, so a key held by
/// several runs is taken from them in run order.
bool MergesAfter(const Cursor& a, const Cursor& b) {
  if (a.head->key_prefix != b.head->key_prefix) {
    return a.head->key_prefix > b.head->key_prefix;
  }
  const int c = a.head->key().compare(b.head->key());
  return c != 0 ? c > 0 : a.run > b.run;
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
  // batch, stable-sorts it by key once (a key's values keep their emission
  // order) and, when the job has a combiner, folds the sorted groups in
  // place. The run stays with its task until the reduce has merged it.
  std::vector<MapTaskResult> task_results(splits.size());
  run_tasks(splits.size(), [&](size_t task) {
    Split& split = splits[task];
    MapTaskResult& result = task_results[task];
    RecordBatch& out = result.run;
    out.records.reserve(split.records.size());
    // A map emission is booked from the home shard of the input record
    // whose map call emitted it. map_finish flushes and combiner output
    // re-emit state the task built up, so they are booked from the task's
    // plurality home (lowest id on ties).
    std::vector<uint64_t> homes(static_cast<size_t>(S), 0);
    int task_home = 0;
    {
      // Scoped so the map's TaskState scratch dies before the sort and
      // combine below.
      Sink<MapContext> ctx(&out, S);
      ctx.SetTask(task);
      for (const TaggedRecord& tr : split.records) {
        ctx.from = AssignShard(tr.record->key_hash, S);
        ++homes[static_cast<size_t>(ctx.from)];
        job.map(*tr.record, tr.tag, &ctx);
      }
      task_home = static_cast<int>(
          std::max_element(homes.begin(), homes.end()) - homes.begin());
      ctx.from = task_home;
      if (job.map_finish) job.map_finish(&ctx);
      result.map = ctx.Done();
    }
    if (stats.map_only) return;

    std::stable_sort(out.records.begin(), out.records.end(), RecordKeyLess);
    if (!job.combine) {
      // The run lives until the reduce is done: one view per record, not
      // the emission array's growth slack.
      out.records.shrink_to_fit();
      return;
    }
    // The combiner emits under each group's key, so its output is again a
    // sorted run. It gets its own batch, so the raw emissions (and their
    // pre-combine bytes) die as soon as it is done.
    const Record* const end = out.records.data() + out.records.size();
    size_t num_groups = 0;
    for (const Record* g = out.records.data(); g != end; g = GroupEnd(g, end)) {
      ++num_groups;
    }
    RecordBatch combined;
    combined.records.reserve(num_groups);
    Sink<ReduceContext> cctx(&combined, S);
    cctx.from = task_home;
    for (const Record* g = out.records.data(); g != end;) {
      const Record* group_end = GroupEnd(g, end);
      const size_t before = combined.records.size();
      job.combine(g->key(), ValueSpan(g, group_end), &cctx);
      if (!std::all_of(combined.records.begin() + before,
                       combined.records.end(),
                       [g](const Record& r) { return RecordKeyEq(r, *g); })) {
        result.rekeyed = true;
        return;
      }
      g = group_end;
    }
    result.combine = cctx.Done();
    out = std::move(combined);
  });
  splits.clear();  // every mapper is done with its split views

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
  RecordBatch output;
  if (stats.map_only) {
    // Map-only job: mapper outputs concatenate in split order; the output
    // adopts every task's arenas.
    written = std::move(mapped);
    stats.num_reducers = 0;
    output.records.reserve(written.records);
    for (MapTaskResult& r : task_results) AppendBatch(&r.run, &output);
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
    // Boundary k of a run: where range k starts (k = num_ranges: its end).
    auto cut = [&splitters, num_ranges](const std::vector<Record>& run,
                                        size_t k) {
      const Record* begin = run.data();
      if (k == 0) return begin;
      if (k == num_ranges) return begin + run.size();
      return begin + (std::lower_bound(run.begin(), run.end(),
                                       splitters[k - 1], RecordKeyLess) -
                      run.begin());
    };
    std::vector<RecordBatch> range_out(num_ranges);
    std::vector<Tally> range_tally(num_ranges);
    std::vector<uint64_t> range_keys(num_ranges, 0);
    // A heap keyed on (head key, run index) merges the range's run slices:
    // reduce sees each key once, in ascending order, with its values in
    // (map task, emission) order — straight from the run when one run
    // holds the key, gathered into a reused buffer when several do. A
    // reduce emission is booked from the shard owning its group's key.
    run_tasks(num_ranges, [&](size_t range) {
      std::vector<Cursor> heap;
      for (size_t t = 0; t < task_results.size(); ++t) {
        const std::vector<Record>& run = task_results[t].run.records;
        Cursor c{cut(run, range), cut(run, range + 1), t};
        if (c.head != c.end) heap.push_back(c);
      }
      std::make_heap(heap.begin(), heap.end(), MergesAfter);
      Sink<ReduceContext> rctx(&range_out[range], S);
      std::vector<Cursor> holders;  // the runs holding the current key
      std::vector<Record> gather;
      while (!heap.empty()) {
        holders.clear();
        do {
          std::pop_heap(heap.begin(), heap.end(), MergesAfter);
          holders.push_back(heap.back());
          heap.pop_back();
        } while (!heap.empty() &&
                 RecordKeyEq(*heap.front().head, *holders[0].head));
        const Record head = *holders[0].head;
        ValueSpan values;
        if (holders.size() == 1) {
          Cursor& c = holders[0];
          const Record* group_end = GroupEnd(c.head, c.end);
          values = ValueSpan(c.head, group_end);
          c.head = group_end;
        } else {
          gather.clear();
          for (Cursor& c : holders) {
            const Record* group_end = GroupEnd(c.head, c.end);
            gather.insert(gather.end(), c.head, group_end);
            c.head = group_end;
          }
          values = ValueSpan(gather.data(), gather.data() + gather.size());
        }
        rctx.from = OwnerShard(head.key_hash, S);
        job.reduce(head.key(), values, &rctx);
        ++range_keys[range];
        for (const Cursor& c : holders) {
          if (c.head == c.end) continue;
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

    // The runs and their arenas go before the output is assembled, so the
    // shuffle and the output are never both alive at full size.
    task_results.clear();
    output.records.reserve(written.records);
    for (RecordBatch& part : range_out) AppendBatch(&part, &output);
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
