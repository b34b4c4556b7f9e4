#ifndef RAPIDA_MAPREDUCE_DFS_H_
#define RAPIDA_MAPREDUCE_DFS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mapreduce/record.h"
#include "util/logging.h"
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
  /// A file at rest is its bytes, as a Hadoop SequenceFile is: the records
  /// in file order, packed as a RecordBatch packs them (PackRecord), in one
  /// exactly sized buffer, plus a sparse index holding the byte offset of
  /// every kIndexStride-th record. No 32-byte view is kept per record:
  /// readers decode one stamped Record at a time (ForRange).
  class File {
   public:
    /// Records per index entry: a seek decodes fewer than this many
    /// records past its entry.
    static constexpr uint64_t kIndexStride = 64;

    /// Number of records.
    uint64_t size() const { return num_records_; }
    bool empty() const { return num_records_ == 0; }

    /// Calls fn(const Record&) on records [begin, end) in file order;
    /// requires begin <= end <= size(). Each Record is decoded on the spot
    /// with its key_prefix and key_hash stamped from its key, and lives for
    /// the call; its key and value views point into the file's bytes,
    /// which stay valid (at a stable address) for the file's lifetime.
    template <typename Fn>
    void ForRange(uint64_t begin, uint64_t end, Fn&& fn) const {
      RAPIDA_CHECK(begin <= end && end <= num_records_)
          << "record range [" << begin << ", " << end << ") of a "
          << num_records_ << "-record file";
      if (begin == end) return;
      const char* p = bytes_.get() + index_[begin / kIndexStride];
      Record r;
      for (uint64_t i = begin - begin % kIndexStride; i < begin; ++i) {
        p = UnpackRecord(p, &r);
      }
      for (uint64_t i = begin; i < end; ++i) {
        p = UnpackRecord(p, &r);
        r.key_prefix = KeyPrefix(r.key());
        r.key_hash = HashKey(r.key());
        fn(static_cast<const Record&>(r));
      }
    }

    /// ForRange over the whole file.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      ForRange(0, num_records_, fn);
    }

    uint64_t logical_bytes = 0;  // sum of record footprints
    uint64_t stored_bytes = 0;   // after compression
    FileOptions options;

   private:
    friend class Dfs;

    std::unique_ptr<char[]> bytes_;
    uint64_t num_records_ = 0;
    std::vector<uint64_t> index_;  // byte offset of record k * kIndexStride
  };

  Dfs() = default;
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Writes (replaces) a file from owning batches: each part's chunks are
  /// copied in order, part after part, into the file's exactly sized
  /// buffer, and each part is freed as soon as it is copied, outside the
  /// namespace lock; the index is built over the copy. Fails with
  /// ResourceExhausted if the write would push total stored bytes beyond
  /// the capacity limit.
  Status Write(const std::string& name, std::vector<RecordBatch> parts,
               const FileOptions& options = {});
  /// Write of a single part.
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
