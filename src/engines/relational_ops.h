#ifndef RAPIDA_ENGINES_RELATIONAL_OPS_H_
#define RAPIDA_ENGINES_RELATIONAL_OPS_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/aggregates.h"
#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "engines/factorized.h"
#include "mapreduce/cluster.h"
#include "ntga/operators.h"
#include "sparql/ast.h"
#include "util/hash_index.h"
#include "util/statusor.h"

namespace rapida::engine {

/// Row codec for relational intermediates: TermIds joined by ','
/// (kInvalidTermId encodes SQL NULL).
std::string EncodeRow(const std::vector<rdf::TermId>& row);

/// Scratch-reusing codec variants for per-task buffers: AppendRow appends
/// EncodeRow's exact bytes to `out`; DecodeRowInto overwrites `out` with
/// the decoded row in place, reusing its capacity so per-record loops stop
/// allocating once warm.
void AppendRow(std::string* out, const rdf::TermId* row, size_t n);
void AppendRow(std::string* out, const std::vector<rdf::TermId>& row);
void DecodeRowInto(std::string_view data, std::vector<rdf::TermId>* out);

/// A named intermediate table: a DFS file whose records hold EncodeRow'd
/// values, plus its column names. When `factor` is set the file instead
/// holds factorized group records (engines/factorized.h) — one record per
/// group, standing for the cross product of its factor rows.
struct TableRef {
  std::string file;
  std::vector<std::string> columns;
  /// Factorized layout of the file's records; null = flat EncodeRow rows.
  FactorizationPtr factor;
  /// Exact stored bytes the equivalent *flat* file would occupy — what
  /// size-based decisions (map-join threshold, greedy join order) must use
  /// so the factorized path picks the same strategies as the flat path.
  /// 0 for flat tables (use the file's stored bytes directly).
  uint64_t flat_bytes = 0;

  int ColumnIndex(const std::string& name) const;
  bool factorized() const { return factor != nullptr; }
};

/// Predicate over a decoded row (compiled FILTER).
using RowPredicate = std::function<bool(const std::vector<rdf::TermId>&)>;

/// Compiles a conjunction of FILTER expressions into a RowPredicate over
/// the given column layout. Expressions referencing columns outside the
/// layout evaluate to error (row rejected). `dict` must outlive the
/// predicate.
RowPredicate CompilePredicate(
    const std::vector<const sparql::Expr*>& filters,
    const std::vector<std::string>& columns, const rdf::Dictionary* dict);

/// Joins the given (small, in-memory) tables on shared column names and
/// evaluates the top-level select items per joined row: the projected
/// table, one column per item. Alone it is the driver-side finish of a
/// single-grouping query; RelationalOps::FinalJoinProject wraps it in
/// every engine's final map-only cycle.
analytics::BindingTable JoinAndProject(
    std::vector<analytics::BindingTable> tables,
    const std::vector<sparql::SelectItem>& items, rdf::Dictionary* dict);

/// The aggregation shuffle, one copy for GROUP BY (RelationalOps::GroupBy)
/// and the TG Agg-Join (NtgaExec::RunAggJoins): Alg. 3's multiAggMap and
/// Hive's map-side partial GROUP BY are one algorithm. A shuffled value
/// is `P|<partial>|...` (one serialized partial state per aggregate) or
/// `R|<cell>,...` (one detail row's aggregated cells); nothing else
/// writes or parses them.
///
/// Map side: each map task keeps one AggMap in its TaskState, folds its
/// detail rows in with Add, and calls Flush from map_finish.
class AggMap {
 public:
  /// `key`'s partial aggregators, created empty from `aggs` on first
  /// sight (the weighted factorized GROUP BY adds to them directly).
  std::vector<analytics::Aggregator>& Partials(
      std::string_view key, const std::vector<ntga::AggSpec>& aggs);

  /// One detail row of group `key`: aggregate a reads `row[args[a]]`
  /// (NULL when args[a] < 0; COUNT(*) reads nothing). With `map_side_agg`
  /// the row folds into Partials(key); otherwise it is emitted as an `R|`
  /// value.
  void Add(std::string_view key, const rdf::TermId* row,
           const std::vector<int>& args,
           const std::vector<ntga::AggSpec>& aggs, bool map_side_agg,
           const rdf::Dictionary& dict, mr::MapContext* ctx);

  /// Emits one `P|` value per key, in insertion order (keys are unique
  /// per task, and the task's run is sorted by key afterwards).
  void Flush(mr::MapContext* ctx);

 private:
  util::HashIndex index_;
  std::vector<std::string> keys_;
  std::vector<std::vector<analytics::Aggregator>> rows_;
  std::string val_buf_;
};

/// Per-reduce-task scratch of an aggregation reduce (ReduceContext::
/// TaskState), reused across key groups.
struct AggReduceScratch {
  std::vector<rdf::TermId> args;  // one `R|` value's cells
  std::vector<rdf::TermId> row;   // the group's output row
  std::string val_buf;            // `row`, EncodeRow'd
};

/// The reduce fold of one key group: `s->row` becomes the group key's
/// cells (`key_cells`, EncodeRow'd), then each aggregate's finalized term
/// over the group's `P|` partials (merged) and `R|` raw cells (added),
/// and `s->val_buf` its encoding. Every aggregation reduce finalizes, and
/// so interns, here.
void FoldAggGroup(std::string_view key_cells,
                  const std::vector<ntga::AggSpec>& aggs,
                  const mr::ValueSpan& values, rdf::Dictionary* dict,
                  AggReduceScratch* s);

/// GROUP BY ALL's row over no detail rows: each aggregate's empty-group
/// value (SPARQL: COUNT 0, MIN/MAX unbound).
std::vector<rdf::TermId> EmptyGroupRow(const std::vector<ntga::AggSpec>& aggs,
                                       rdf::Dictionary* dict);

/// One input of a relational join.
struct JoinInput {
  std::string file;
  /// Column names this input provides. For a VP input: 1 name (type
  /// tables — subject only) or 2 names (subject, object).
  std::vector<std::string> columns;
  /// VP record layout (key=subject id, value=object id) vs intermediate
  /// layout (value=EncodeRow).
  bool is_vp = false;
  /// Column to join on (must be in `columns`).
  std::string join_column;
  /// LEFT OUTER semantics for this input (never the first input).
  bool outer = false;
  /// Optional map-side filter on this input's rows.
  RowPredicate predicate;
  /// Factorized layout of the input file (copied from its TableRef); null
  /// for flat files. A factorized input with a predicate is stream-
  /// decompressed in the map (predicates see flat rows).
  FactorizationPtr factor;
  /// Flat-equivalent stored bytes (TableRef::flat_bytes) for size-based
  /// join-strategy decisions. 0 = use the file's stored bytes.
  uint64_t flat_bytes = 0;
};

/// The map-join rule, its one copy: a join broadcasts when it has at
/// least 2 inputs, every input but the first largest by `sizes` is at
/// most `threshold` bytes, and that largest input, the one that streams,
/// is not `outer`. Returns the streamed input's index, or -1 for a
/// repartition join. The map-join-selection pass applies it to a node's
/// stored input sizes; RelationalOps::Join, for a `join=auto` node, to
/// its inputs' run-time sizes.
int MapJoinStreamedInput(const std::vector<uint64_t>& sizes,
                         const std::vector<bool>& outer, uint64_t threshold);

/// A join node's `join` attr: the strategy the map-join-selection pass
/// chose. `kMap` broadcasts every input but the largest, `kRepartition`
/// shuffles every input, and `kAuto` (inputs without plan-time sizes)
/// applies MapJoinStreamedInput to the run-time sizes.
enum class JoinStrategy { kAuto, kMap, kRepartition };

/// Builder for the Hive-style relational MR plans, and the one home of
/// what every engine shares: the aggregation shuffle (GroupBy here, the
/// TG Agg-Join in NtgaExec) and the final join (FinalJoinProject), which
/// all four engines' query terminals run. Names and tracks every
/// intermediate file of a plan, NtgaExec's too, so one Cleanup deletes
/// them all.
class RelationalOps {
 public:
  /// `map_join_threshold_bytes` bounds the broadcast sides of a
  /// `JoinStrategy::kAuto` join.
  RelationalOps(mr::Cluster* cluster, Dataset* dataset,
                uint64_t map_join_threshold_bytes, std::string tmp_prefix);

  /// Equi-joins any number of inputs on their join columns in ONE MR cycle
  /// (Hive merges same-key multi-way joins) with the given strategy; a
  /// map-join is a map-only cycle. `post_predicate` filters joined rows
  /// before the output is written.
  ///
  /// `factorize_output` requests a factorized (d-representation) output:
  /// one group record per join match instead of the enumerated cross
  /// product. Honoured only when the join has >= 2 inputs, no
  /// post-predicate, and no output column is claimed by two sides (the
  /// flat fold's overwrite semantics cannot be represented); otherwise the
  /// output silently stays flat. Decompressing the factorized output
  /// reproduces the flat output's rows (star joins and map-joins: in the
  /// exact flat order; repartition joins over factorized inputs: as the
  /// same multiset — callers must sit upstream of an order-insensitive
  /// sink such as GroupBy or DISTINCT, which the planner guarantees).
  StatusOr<TableRef> Join(const std::string& name_hint,
                          const std::vector<JoinInput>& inputs,
                          JoinStrategy strategy,
                          RowPredicate post_predicate = nullptr,
                          bool factorize_output = false);

  /// UNION ALL cycle: one map-only job that scans every input table and
  /// re-emits each row remapped to the unified layout (first input's
  /// columns, then the unseen columns of later inputs). Columns an input
  /// lacks read as NULL — the relational form of SPARQL UNION's unbound
  /// padding.
  StatusOr<TableRef> UnionAll(const std::string& name_hint,
                              const std::vector<TableRef>& inputs);

  /// GROUP BY cycle over the aggregation shuffle (AggMap, FoldAggGroup);
  /// each aggregate reads the input column named by its `var`, and
  /// `map_side_agg` pre-aggregates in the map. `having` (optional) filters
  /// aggregated rows in the reduce phase; it sees the output layout (key
  /// columns then aggregate columns).
  StatusOr<TableRef> GroupBy(const std::string& name_hint,
                             const TableRef& input,
                             const std::vector<std::string>& key_columns,
                             const std::vector<ntga::AggSpec>& aggs,
                             bool map_side_agg, RowPredicate having = nullptr);

  /// DISTINCT projection cycle (reduce-side dedup) — the MQO extraction
  /// step. `keep_predicate` selects qualifying rows in the map phase.
  StatusOr<TableRef> DistinctProject(const std::string& name_hint,
                                     const TableRef& input,
                                     const std::vector<std::string>& columns,
                                     RowPredicate keep_predicate);

  /// The final map-only cycle of every engine, named `job_name`: joins the
  /// (small, driver-side) grouping results `tables` on shared column names,
  /// evaluates the top-level select `items` and returns the projected
  /// table. The job scans `input_files`, the files backing `tables`
  /// (distinct, sorted), for honest byte accounting, and map task 0 writes
  /// the result rows, so their shard is the same at any exec_threads.
  StatusOr<analytics::BindingTable> FinalJoinProject(
      const std::string& job_name, std::vector<analytics::BindingTable> tables,
      const std::vector<std::string>& input_files,
      const std::vector<sparql::SelectItem>& items);

  /// Reads a result table into a BindingTable.
  StatusOr<analytics::BindingTable> ReadTable(const TableRef& table);

  /// Deletes every temp file created so far (best effort).
  void Cleanup();

  mr::Cluster* cluster() { return cluster_; }
  Dataset* dataset() { return dataset_; }

  /// Reserves a fresh temp file name (cleaned up by Cleanup()).
  std::string NextTmp(const std::string& hint);

  /// Exact stored bytes `table`'s flat equivalent would occupy (flat
  /// tables: the file's stored bytes; factorized tables: arithmetic over
  /// the group records — no enumeration). Driver-side scan, no MR jobs.
  StatusOr<uint64_t> FlatStoredBytes(const TableRef& table) const;

 private:
  mr::Cluster* cluster_;
  Dataset* dataset_;
  uint64_t map_join_threshold_bytes_;
  std::string tmp_prefix_;
  int counter_ = 0;
  std::vector<std::string> temp_files_;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_RELATIONAL_OPS_H_
