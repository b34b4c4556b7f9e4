#ifndef RAPIDA_MAPREDUCE_DFS_H_
#define RAPIDA_MAPREDUCE_DFS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapreduce/record.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rapida::mr {

/// Options controlling how a file is stored.
struct FileOptions {
  /// Columnar-compressed storage (models Hive's ORC): stored bytes are
  /// `compression_ratio` * logical bytes, and the cluster spawns mappers
  /// based on the *stored* size — the effect the paper observes ("less
  /// number of mappers based on compressed file sizes", §5.2).
  bool compressed = false;
  double compression_ratio = 0.15;
};

/// An HDFS-model distributed file system: named record files with byte
/// accounting and an optional capacity limit.
///
/// The capacity limit reproduces the paper's Table 4 footnote: naive Hive
/// on MG13 "eventually failed due to insufficient HDFS disk space" while
/// materializing a 190 GB star-join output twice. Engines surface the
/// ResourceExhausted status exactly like the paper's failed run.
///
/// Thread-safe for concurrent jobs: the namespace and byte accounting are
/// mutex-protected, and File nodes are stable (unordered_map node
/// stability), so a pointer returned by Open stays valid while other jobs
/// write *different* files. Concurrent queries must keep to disjoint
/// intermediate-file namespaces (EngineOptions::tmp_namespace) — replacing
/// or deleting a file another job is reading remains a logic error, just
/// as in HDFS.
class Dfs {
 public:
  struct File {
    /// Exactly one 32-byte view per record.
    std::vector<Record> records;
    /// Arenas owning the key‖value bytes the records view; they live as
    /// long as the file, so readers holding the pointer Open() returned
    /// see stable bytes.
    std::vector<std::unique_ptr<util::Arena>> arenas;
    uint64_t logical_bytes = 0;  // sum of record footprints
    uint64_t stored_bytes = 0;   // after compression
    FileOptions options;
  };

  Dfs() = default;
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Writes (replaces) a file from an owning batch: the file adopts the
  /// batch's record views and arenas as they are. Fails with
  /// ResourceExhausted if the write would push total stored bytes beyond
  /// the capacity limit.
  Status Write(const std::string& name, RecordBatch batch,
               const FileOptions& options = {});

  /// Opens an existing file for reading.
  StatusOr<const File*> Open(const std::string& name) const;

  bool Exists(const std::string& name) const;
  Status Delete(const std::string& name);

  /// Sum of stored bytes across all files.
  uint64_t TotalStoredBytes() const;

  /// High-water mark of TotalStoredBytes() — the workflow's peak disk
  /// demand (what decides whether a capacity-limited run survives).
  uint64_t PeakStoredBytes() const;
  void ResetPeak();

  /// 0 = unlimited.
  void SetCapacityLimit(uint64_t bytes);

  /// Lifetime write counter (includes overwritten/deleted data) — the
  /// "materialization volume" a workflow caused.
  uint64_t LifetimeBytesWritten() const;

  std::vector<std::string> ListFiles() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, File> files_;
  uint64_t total_stored_bytes_ = 0;
  uint64_t peak_stored_bytes_ = 0;
  uint64_t lifetime_bytes_written_ = 0;
  uint64_t capacity_limit_ = 0;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_DFS_H_
