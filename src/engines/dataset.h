#ifndef RAPIDA_ENGINES_DATASET_H_
#define RAPIDA_ENGINES_DATASET_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <utility>

#include "mapreduce/dfs.h"
#include "ntga/triplegroup.h"
#include "rdf/graph.h"
#include "util/status.h"

namespace rapida::engine {

/// A loaded dataset plus its DFS materializations — the shared context the
/// four engines execute against. Pre-processing mirrors the paper (§5.1):
///
///  * Hive engines read vertically-partitioned two-column tables, one per
///    property, with per-object partitions for rdf:type, stored ORC-style
///    compressed ("vp:p:<id>", "vp:t:<id>").
///  * NTGA engines read subject triplegroups partitioned by equivalence
///    class — the set of properties of the subject ("tg:ec:<n>").
///
/// Both layouts are derived lazily from the same Graph, so all engines see
/// identical data.
///
/// Concurrency: materialization (EnsureVpTables / EnsureTripleGroups) and
/// layout lookups are mutex-protected, so many queries can share one
/// Dataset. Mutation (AddTriples) is NOT safe while queries execute — the
/// serving layer serializes it behind an exclusive dataset lock.
class Dataset {
 public:
  struct Options {
    /// ORC-style compression ratio for Hive VP tables (0 < r <= 1).
    double orc_ratio = 0.15;
    /// Store VP tables compressed. Turning this off is the bench_ablation
    /// knob for the paper's ORC discussion.
    bool vp_compressed = true;
    /// DFS capacity in bytes (0 = unlimited) — reproduces the paper's
    /// MG13 disk-space failure when set.
    uint64_t dfs_capacity = 0;
    /// Partition subject triplegroups into one file per equivalence class
    /// (the paper's §5.1 pre-processing). When false, all triplegroups
    /// land in one file and every NTGA star scan reads the whole dataset
    /// — the ablation knob for this design choice.
    bool tg_partition_by_ec = true;
  };

  explicit Dataset(rdf::Graph graph) : Dataset(std::move(graph), Options()) {}
  Dataset(rdf::Graph graph, const Options& options);

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  rdf::Graph& graph() { return graph_; }
  const rdf::Graph& graph() const { return graph_; }
  rdf::Dictionary& dict() { return graph_.dict(); }
  mr::Dfs& dfs() { return dfs_; }
  const Options& options() const { return options_; }
  rdf::TermId type_id() const { return type_id_; }

  /// Materializes the VP layout (idempotent).
  Status EnsureVpTables();
  /// Materializes the triplegroup layout (idempotent).
  Status EnsureTripleGroups();

  /// Monotonic dataset epoch, bumped by every mutation. Result caches key
  /// on (query fingerprint, dataset, version): a bump is what makes every
  /// previously cached answer unreachable — principled invalidation
  /// instead of pointer identity.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Order-independent 64-bit hash of the graph's triple *set*, folded
  /// over rendered terms (not TermIds), so two processes loading the same
  /// data agree — the dataset half of a materialization-store artifact
  /// key. Unlike version(), which is a process-local epoch, the content
  /// hash survives restarts. Computed lazily, then maintained
  /// incrementally by AddTriples (XOR-fold: each actually-added triple
  /// folds in; duplicate inserts change nothing).
  uint64_t ContentHash() const;

  /// One triple of a mutation batch (decoded form, like the loaders take).
  struct TripleUpdate {
    rdf::Term s, p, o;
  };

  /// Appends triples to the graph, bumps version() and drops both
  /// materialized layouts (they are rebuilt lazily on the next query).
  /// Callers must ensure no query is executing against this dataset.
  /// When `added` is non-null it receives the dictionary-encoded triples
  /// that were actually new (the graph is a set — duplicates of existing
  /// triples are excluded), i.e. the delta partition of this mutation.
  Status AddTriples(const std::vector<TripleUpdate>& triples,
                    std::vector<rdf::Triple>* added = nullptr);

  /// DFS file for a property / type partition ("" when the partition is
  /// empty — no subject has it).
  std::string VpFile(rdf::TermId property) const;
  std::string VpTypeFile(rdf::TermId type_object) const;
  /// Stored size of a VP file (0 when absent) — map-join decisions.
  uint64_t VpFileBytes(const std::string& file) const;

  /// Triplegroup files whose equivalence class contains all of the given
  /// properties (property-level; the type object is checked at scan time).
  /// The empty set selects every triplegroup file.
  std::vector<std::string> TgFilesCovering(
      const std::set<rdf::TermId>& properties) const;

 private:
  rdf::Graph graph_;
  Options options_;
  mr::Dfs dfs_;
  rdf::TermId type_id_ = rdf::kInvalidTermId;
  std::atomic<uint64_t> version_{0};

  /// Guards the lazily-built layout state below (concurrent queries may
  /// race to materialize / look up layout files).
  mutable std::mutex layout_mu_;
  mutable bool content_hash_valid_ = false;
  mutable uint64_t content_hash_ = 0;
  bool vp_loaded_ = false;
  bool tg_loaded_ = false;
  std::map<rdf::TermId, std::string> vp_files_;
  std::map<rdf::TermId, std::string> vp_type_files_;
  /// EC file name -> property set of that class.
  std::map<std::string, std::set<rdf::TermId>> tg_files_;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_DATASET_H_
