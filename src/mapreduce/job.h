#ifndef RAPIDA_MAPREDUCE_JOB_H_
#define RAPIDA_MAPREDUCE_JOB_H_

#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/dfs.h"
#include "mapreduce/record.h"

namespace rapida::mr {

/// Lazily-created state scoped to one map or reduce task (shared base of
/// MapContext / ReduceContext): the first call value-initializes a T,
/// later calls return the same object, and it dies with the context. A
/// context must use one consistent T for its lifetime.
class TaskStateBase {
 public:
  /// How per-task accumulators (e.g. the paper's multiAggMap hash
  /// pre-aggregation, Alg. 3) and reused scratch buffers stay correct
  /// when tasks run concurrently: capture the immutable specs in the
  /// lambda, keep the mutable state here. An operator keeps all of its
  /// map-side state in one struct, so `map` and `map_finish` see the same
  /// object.
  template <typename T>
  T* TaskState() {
    if (state_ == nullptr) state_ = std::make_unique<StateHolder<T>>();
    return &static_cast<StateHolder<T>*>(state_.get())->value;
  }

  /// Factorized-operator instrumentation: a producer calls this once per
  /// factorized group record it emits, with the flat row count the group
  /// stands for. The cluster folds the per-context totals into
  /// JobStats::factorized_groups / factorized_flat_rows at the same
  /// barriers as the byte counters; jobs that never call it report 0.
  void NoteFactorizedGroup(uint64_t flat_rows) {
    factorized_groups_ += 1;
    factorized_flat_rows_ += flat_rows;
  }
  uint64_t factorized_groups() const { return factorized_groups_; }
  uint64_t factorized_flat_rows() const { return factorized_flat_rows_; }

 private:
  uint64_t factorized_groups_ = 0;
  uint64_t factorized_flat_rows_ = 0;
  struct StateHolderBase {
    virtual ~StateHolderBase() = default;
  };
  template <typename T>
  struct StateHolder : StateHolderBase {
    T value{};
  };
  std::unique_ptr<StateHolderBase> state_;
};

/// Sink for map-side emissions. Each map task (one input split) gets its
/// own context, and map tasks may run on different threads concurrently
/// (ClusterConfig::exec_threads). A map function must therefore keep any
/// cross-record mutable state in TaskState() — never in shared captures —
/// and may only read from shared captured structures.
class MapContext : public TaskStateBase {
 public:
  virtual ~MapContext() = default;
  /// Packs key‖value into the task's RecordBatch, so temporaries are
  /// fine; no per-record heap allocation happens on this path.
  virtual void Emit(std::string_view key, std::string_view value) = 0;

  /// This map task's index in split order (inputs in JobConfig order,
  /// each file's splits in record order). Every job has a task 0, so a
  /// job that must emit something exactly once emits it from task 0,
  /// whatever order concurrent tasks finish in.
  size_t task() const { return task_; }

 protected:
  size_t task_ = 0;
};

/// Sink for reduce-side emissions. Emit appends to the reduce task's
/// record batch, exactly like MapContext::Emit. TaskState() is scoped
/// to the reduce task (one key range of the merge: one of a parallel-safe
/// reduce's pool-width ranges, or the whole key space otherwise) — it
/// persists *across* the task's key groups, which is what lets reduce
/// functions reuse scratch buffers instead of reallocating per group.
class ReduceContext : public TaskStateBase {
 public:
  virtual ~ReduceContext() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

/// One key group's values in (map task, emission) order: a span of the
/// records the merge (or the combiner's walk) decoded into its reused
/// gather buffer, whether one run holds the key or several. Iterating a
/// ValueSpan yields each record's value as a string_view into the run's
/// packed bytes. Valid only for the duration of the reduce/combine call
/// it is passed to.
class ValueSpan {
 public:
  ValueSpan() = default;
  ValueSpan(const Record* begin, const Record* end)
      : begin_(begin), end_(end) {}

  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  std::string_view operator[](size_t i) const { return begin_[i].value(); }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string_view*;
    using reference = std::string_view;

    explicit iterator(const Record* r) : r_(r) {}
    std::string_view operator*() const { return r_->value(); }
    iterator& operator++() {
      ++r_;
      return *this;
    }
    bool operator==(const iterator& o) const { return r_ == o.r_; }
    bool operator!=(const iterator& o) const { return r_ != o.r_; }

   private:
    const Record* r_;
  };

  iterator begin() const { return iterator(begin_); }
  iterator end() const { return iterator(end_); }

 private:
  const Record* begin_ = nullptr;
  const Record* end_ = nullptr;
};

/// Per-record map function. `input_tag` identifies which input file the
/// record came from (0-based index into JobConfig::inputs) so joins can
/// tag their sides — real MapReduce gets this from the input split path.
/// Scratch reused across records lives in MapContext::TaskState().
/// Because every emission happens inside the call for one input record
/// (or in map_finish), a sharded cluster knows the home shard of each
/// emitted record. May run concurrently with other map tasks; see
/// MapContext.
using MapFn =
    std::function<void(const Record& record, int input_tag, MapContext*)>;

/// Called once per mapper after its split is exhausted; used for map-side
/// state flush (e.g. the paper's `multiAggMap` hash pre-aggregation,
/// Alg. 3 Map.clean()). The default no-op is fine for stateless mappers.
using MapFinishFn = std::function<void(MapContext*)>;

/// Reduce (and combine) function: one distinct key with all its values.
/// The key and the spanned values point into the map tasks' packed runs
/// and stay valid only for this call; copy anything that must outlive it.
using ReduceFn = std::function<void(std::string_view key,
                                    const ValueSpan& values, ReduceContext*)>;

/// Declarative description of one MapReduce job.
struct JobConfig {
  std::string name;
  std::vector<std::string> inputs;  // DFS file names
  std::string output;               // DFS file name

  MapFn map;               // required
  MapFinishFn map_finish;  // optional
  /// Optional map-side fold: each map task sorts its emissions by key and
  /// calls the combiner once per key group, in key order. A combiner must
  /// emit under its group's key, so the task's output stays a sorted run
  /// (nothing re-sorts it); Run fails the job with Status::Internal when a
  /// combiner emits under any other key.
  ReduceFn combine;
  ReduceFn reduce;  // null => map-only job (no shuffle)

  /// Whether `reduce` may be invoked from several threads at once (for
  /// different keys). Safe only for pure functions of (key, values) —
  /// joins, distinct-projections; the merge then splits the key space into
  /// pool-width ranges that reduce concurrently. Leave false (the default)
  /// when reduce touches shared mutable state; the merge then runs as one
  /// range on the calling thread, calling reduce in global key order, which
  /// in particular keeps rdf::Dictionary interning deterministic for
  /// aggregation finalizers. Either way the output is the same records in
  /// the same order.
  bool reduce_parallel_safe = false;

  /// Storage options for the output file (e.g. Hive writes ORC-compressed
  /// intermediates).
  FileOptions output_options;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_JOB_H_
