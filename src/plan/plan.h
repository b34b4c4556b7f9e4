#ifndef RAPIDA_PLAN_PLAN_H_
#define RAPIDA_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace rapida::plan {

struct ExecContext;  // executor.h

/// Physical operator kinds of the plan IR. One node is one physical
/// operator instance; `est_cycles` says how many MR cycles it costs (0 for
/// operators folded into a neighboring cycle or executed driver-side).
enum class OpKind {
  kVpScan,          // scan of one vertically-partitioned property table
  kTripleGroupLoad, // scan of the triplegroup files covering a star
  kStarJoin,        // multi-way same-subject join of VP inputs (one star)
  kMapJoin,         // a join statically selected to broadcast (map-join)
  kReduceJoin,      // repartition join (inter-star join cycle)
  kLeftMapJoin,     // OPTIONAL left star-join selected to broadcast
  kLeftReduceJoin,  // OPTIONAL left star-join as a repartition cycle
  kUnion,           // UNION ALL concatenation of branch tables (map-only)
  kExpandBindings,  // NTGA bindings expanded to a relational table
  kNSplitAlphaJoin, // NTGA TG_OptGrpFilter + TG_AlphaJoin cycle
  kAggJoin,         // NTGA TG Agg-Join (one grouping-aggregation)
  kGroupAggregate,  // relational GROUP BY cycle
  kDistinctExtract, // MQO DISTINCT extraction from the materialized Q_OPT
  kMaterialize,     // driver-side step / empty-table short circuit
  kFinalJoin,       // final map-only join of grouping results
  kParallelRegion,  // independent siblings evaluated in one parallel cycle
  kDecompress,      // flat-tuple boundary: enumerate factorized groups
                    // (cost-0; folded into the consuming reader)
};

const char* OpKindName(OpKind kind);

struct PlanNode;
using NodeExec = std::function<Status(ExecContext*, const PlanNode&)>;
using AttrList = std::vector<std::pair<std::string, std::string>>;

/// One operator of a physical plan.
///
/// `attrs` is the node's *identity*: everything that distinguishes this
/// operator structurally (properties scanned, join variables, aggregate
/// specs, pushed filters). It is covered by PhysicalPlan::Fingerprint.
/// `info` is display-only context (DFS file names, stored byte sizes) that
/// depends on the concrete dataset and is excluded from the fingerprint.
struct PlanNode {
  int id = 0;
  OpKind kind = OpKind::kMaterialize;
  std::string label;     // engine-local stage label, e.g. "g0" / "qopt"
  std::string describe;  // one-line human description of the cycle/step
  std::vector<int> inputs;  // producing node ids, in consumption order
  AttrList attrs;
  AttrList info;
  int est_cycles = 1;
  uint64_t est_bytes = 0;  // statically-known input bytes (0 = unknown)
  /// Planner's shuffle-placement estimate, set by the partial-evaluation
  /// pass. For nodes it classifies `peval=local` this is exactly 0 — no
  /// byte may cross a shard boundary, and the executor enforces that the
  /// executed cross-shard counters match under the locality scheme. For
  /// residual nodes it is a display-only upper bound (the node's known
  /// input bytes). Excluded from Fingerprint, like est_bytes.
  uint64_t est_shuffle_bytes = 0;
  bool map_only = false;
  /// Runs exactly this node's `est_cycles` job(s), driven by its kind,
  /// attrs and its inputs' outputs (ExecContext::outputs), and writes its
  /// own output. The planners bind it when they emit the node; the nodes
  /// a pass inserts (Decompress, a parallel region) are bound after the
  /// passes. A cost-0 node's exec runs no job: a triplegroup load
  /// resolves its chain, an Agg-Join folded into a parallel region
  /// publishes its grouping. Null on every node of a dataset-free plan;
  /// the executor rejects a node with `est_cycles > 0` and no exec.
  NodeExec exec;

  PlanNode& Attr(const std::string& key, const std::string& value) {
    attrs.emplace_back(key, value);
    return *this;
  }
  PlanNode& Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
    return *this;
  }
};

/// An explicit physical plan: the operator DAG one engine will run for one
/// AnalyticalQuery (or, for the shared-scan batch path, for a whole batch).
/// Nodes are stored in execution order (a valid topological order); the
/// generic executor walks them front to back.
struct PhysicalPlan {
  std::string engine;   // display name, e.g. "RAPIDAnalytics"
  std::string tmp_tag;  // intermediate-file tag, e.g. "tmp:hive"
  bool needs_vp = false;
  bool needs_tg = false;
  /// Non-empty when the planner fell back to the engine's baseline shape
  /// (MQO -> naive, RAPIDAnalytics -> RAPID+).
  std::string fallback_reason;
  std::vector<std::string> notes;
  std::vector<std::string> passes;  // pass names, "(off)"-suffixed if gated
  std::vector<PlanNode> nodes;
  /// Result slots the plan fills (1, or the batch size for shared scans).
  int num_results = 1;

  /// Appends a node (id assigned) and returns a reference valid until the
  /// next AddNode call.
  PlanNode& AddNode(OpKind kind, std::string label, std::string describe,
                    int est_cycles);

  PlanNode* FindById(int id);
  const PlanNode* FindById(int id) const;

  int EstimatedCycles() const;
  uint64_t EstimatedBytes() const;

  /// Deterministic human-readable rendering (EXPLAIN).
  std::string ExplainText() const;
  /// Deterministic JSON rendering (EXPLAIN FORMAT=JSON).
  std::string ExplainJson() const;

  /// Canonical structural serialization: engine, node kinds, labels,
  /// cycle counts, attrs and edges — no dataset-dependent info fields.
  std::string Fingerprint() const;
  /// 16-hex-digit FNV-1a hash of Fingerprint().
  std::string FingerprintHash() const;

 private:
  int next_id_ = 0;
};

/// The value of the first `key` entry of `list` (a node's attrs or info),
/// or null when it has none.
const std::string* FindEntry(const AttrList& list, const std::string& key);

/// FNV-1a 64-bit over a string, as 16 lowercase hex digits.
std::string Fnv1aHex(const std::string& data);

/// Minimal JSON string escaping (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);

}  // namespace rapida::plan

#endif  // RAPIDA_PLAN_PLAN_H_
