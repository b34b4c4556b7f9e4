#ifndef RAPIDA_STORAGE_ARTIFACT_STORE_H_
#define RAPIDA_STORAGE_ARTIFACT_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "mapreduce/record.h"
#include "rdf/dictionary.h"
#include "util/statusor.h"

namespace rapida::storage {

/// Identity and provenance of one materialized artifact.
///
/// The key is (plan_fingerprint, content_hash): the *structural* plan
/// fingerprint (canonical under variable renaming) and the order-independent
/// content hash of the dataset the result was computed against. Everything
/// else is payload: `dataset` and `canonical_query` make the artifact
/// self-describing after a restart (the canonical text is re-parseable
/// SPARQL — the printer round-trips — so the service can re-analyze it for
/// incremental maintenance without the original session), `ivm_class` is
/// the maintainability classification frozen at publish time, and `columns`
/// are the canonical result column names in SELECT order (queries sharing
/// the plan fingerprint differ only in variable names, so serving renames
/// positionally).
struct ArtifactMeta {
  std::string plan_fingerprint;
  uint64_t content_hash = 0;
  std::string dataset;
  std::string canonical_query;
  std::string ivm_class;  // IvmClassName() of the classification
  std::vector<std::string> columns;
  /// Layout of the rows section. Empty = flat (one record per result row,
  /// SerializeTable encoding). Non-empty = d-representation: a spec like
  /// "b:0|f:1|f:2" naming which output columns are group-base cells vs
  /// per-group factor vectors; the rows section then holds one "g" record
  /// (base cells) per group followed by one "f<j>" record per factor-j
  /// value. DeserializeArtifact re-enumerates the cross product, so
  /// readers always see flat rows — only the bytes on disk shrink.
  std::string factorization;
};

/// One artifact: meta + the result rows as a record batch (one
/// record per row; the value holds the self-describing cell encoding
/// produced by SerializeTable).
struct Artifact {
  ArtifactMeta meta;
  mr::RecordBatch rows;
};

/// Serializes a binding table into a record batch of explicit terms
/// (kind / text / datatype per cell) — TermId-free, so the payload is
/// meaningful in any process. Unbound cells round-trip.
mr::RecordBatch SerializeTable(const analytics::BindingTable& table,
                               const rdf::Dictionary& dict);

/// Inverse of SerializeTable: decodes rows against `columns` (the output
/// schema), re-interning every term into `dict`. Malformed cell encodings
/// return DataLoss.
StatusOr<analytics::BindingTable> DeserializeTable(
    const mr::RecordBatch& rows, const std::vector<std::string>& columns,
    rdf::Dictionary* dict);

/// Attempts to re-encode `table` as d-representation groups: maximal runs
/// of equal column-0 values whose remaining columns form an exact cross
/// product (the shape factorized star-join results decompress to). On
/// success fills `rows` + `spec` (ArtifactMeta::factorization) and returns
/// true — but only when the factorized serialization is strictly smaller
/// than the flat one, so group-of-1 aggregate results never bloat. On any
/// non-product run (or no byte win) returns false and leaves the outputs
/// untouched; callers fall back to SerializeTable.
bool FactorizeTable(const analytics::BindingTable& table,
                    const rdf::Dictionary& dict, mr::RecordBatch* rows,
                    std::string* spec);

/// Decodes an artifact's rows section against its meta, dispatching on
/// meta.factorization: flat artifacts go through DeserializeTable, and
/// factorized ones re-enumerate every group's cross product (factor 0
/// outermost) back into flat rows. Malformed specs or group records
/// return DataLoss.
StatusOr<analytics::BindingTable> DeserializeArtifact(const Artifact& artifact,
                                                      rdf::Dictionary* dict);

/// Disk-backed, content-addressed store of materialized query results.
///
/// One file per artifact under `dir`, named by the artifact key. On-disk
/// format (integers little-endian):
///
///   bytes 0-7    magic "RAPSTOR1" (trailing digit = container version)
///   u32          format_version (payload schema version, currently 1)
///   u32 meta_len   u32 meta_crc    (CRC-32C of the meta section)
///   u32 rows_len   u32 rows_crc    (CRC-32C of the rows section)
///   meta section   (ArtifactMeta, length-prefixed fields)
///   rows section   (mr::AppendRecordBatch payload)
///
/// Durability: Put serializes to `<name>.tmp` and atomically renames into
/// place, so readers (and crashes) only ever observe complete files.
/// Integrity: every section is CRC-checked on read; a truncated or
/// bit-flipped artifact returns DataLoss and is quarantined (renamed to
/// `<name>.quarantine`) so it stops being offered. A magic/format version
/// from the future returns Unimplemented and leaves the file alone.
/// Capacity: an optional byte budget, LRU-evicted on Put (access order is
/// in-memory; a restart seeds recency from file mtimes).
///
/// Thread-safe.
class ArtifactStore {
 public:
  struct Options {
    std::string dir;
    /// 0 = unlimited.
    uint64_t byte_budget = 256ull * 1024 * 1024;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t puts = 0;
    uint64_t evictions = 0;
    uint64_t corrupt = 0;       // artifacts quarantined (open or read time)
    uint64_t bytes_read = 0;    // artifact file bytes read on hits
    uint64_t bytes_written = 0; // artifact file bytes written by Put
    uint64_t artifacts = 0;     // currently indexed
    uint64_t bytes_used = 0;    // sum of indexed file sizes
    /// Currently indexed artifacts stored in d-representation. Their
    /// `bytes_used` contribution (and LRU charge) is the factorized file
    /// size, not the flat row count they decompress to.
    uint64_t factorized = 0;
  };

  /// Opens (creating `dir` if needed) and indexes every artifact in it.
  /// Corrupt files are quarantined and counted, never fatal.
  static StatusOr<std::unique_ptr<ArtifactStore>> Open(const Options& options);

  /// "store/<plan_fingerprint>-<content_hash hex>.rapart" basename.
  static std::string ArtifactName(const std::string& plan_fingerprint,
                                  uint64_t content_hash);

  /// Loads an artifact. NotFound on miss; DataLoss (and quarantine) on
  /// corruption; Unimplemented on format version skew.
  StatusOr<Artifact> Get(const std::string& plan_fingerprint,
                         uint64_t content_hash);

  /// Publishes (or replaces) an artifact atomically, then enforces the
  /// byte budget by evicting least-recently-used artifacts.
  Status Put(const Artifact& artifact);

  /// Deletes an artifact if present (idempotent).
  void Remove(const std::string& plan_fingerprint, uint64_t content_hash);

  /// Metas of every artifact recorded for `dataset` at `content_hash` —
  /// the scan set incremental maintenance walks after a mutation.
  std::vector<ArtifactMeta> ListForDataset(const std::string& dataset,
                                           uint64_t content_hash) const;

  Stats stats() const;
  std::string StatsJson() const;
  const Options& options() const { return options_; }

 private:
  struct Indexed {
    std::string path;
    uint64_t file_bytes = 0;
    ArtifactMeta meta;
  };

  explicit ArtifactStore(const Options& options) : options_(options) {}

  Status IndexDirLocked();
  void TouchLocked(const std::string& name);
  void EvictToFitLocked(const std::string& keep);
  void QuarantineLocked(const std::string& name);

  const Options options_;
  mutable std::mutex mu_;
  /// name (ArtifactName) -> index entry.
  std::map<std::string, Indexed> index_;
  /// Front = most recently used artifact name.
  std::list<std::string> lru_;
  Stats stats_;
};

}  // namespace rapida::storage

#endif  // RAPIDA_STORAGE_ARTIFACT_STORE_H_
