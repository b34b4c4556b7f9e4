#ifndef RAPIDA_SERVICE_METRICS_H_
#define RAPIDA_SERVICE_METRICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rapida::service {

/// Fixed-boundary latency histogram (log-spaced buckets) with exact
/// streaming quantile support via the recorded sample list — the service
/// workloads are small enough (thousands of queries) that keeping the
/// samples beats approximating. Thread-safe.
class LatencyHistogram {
 public:
  void Record(double seconds);

  uint64_t count() const;
  double Quantile(double q) const;  // q in [0,1]; 0 when empty
  double Mean() const;
  double Max() const;

  /// {"count":N,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  double sum_ = 0;
  double max_ = 0;
};

/// Monotonic counter / gauge set for the service, snapshot as JSON.
/// Thread-safe.
class ServiceMetrics {
 public:
  LatencyHistogram& latency() { return latency_; }
  LatencyHistogram& queue_wait() { return queue_wait_; }

  void IncrAdmitted() { Add(&admitted_); }
  void IncrRejected() { Add(&rejected_); }
  void IncrCompleted() { Add(&completed_); }
  void IncrFailed() { Add(&failed_); }
  void IncrDeadlineExceeded() { Add(&deadline_exceeded_); }
  void IncrBatches(uint64_t queries_in_batch);
  void IncrSharedScanFallback() { Add(&shared_scan_fallback_); }
  void RecordQueueDepth(int depth);
  /// One mutation's wholesale result-cache invalidation: how many cached
  /// entries (and bytes) it dropped.
  void RecordInvalidation(uint64_t entries, uint64_t bytes);
  /// Query answered from the materialization store (zero MapReduce jobs).
  void IncrStoreHit() { Add(&store_hits_); }
  /// Artifact patched algebraically from a mutation delta.
  void IncrStorePatched() { Add(&store_patched_); }
  /// Artifact dropped to recompute (non-incrementalizable or patch failed).
  void IncrStoreRecompute() { Add(&store_recomputes_); }
  /// Shuffle placement of one finished workflow: bytes that stayed on
  /// the shard they were emitted from vs bytes that crossed to their
  /// key's owner, plus each shard's share of the output bytes
  /// (per_shard index = shard id; shorter vectors extend the tracked
  /// width).
  void RecordShuffle(uint64_t local_bytes, uint64_t cross_bytes,
                     const std::vector<uint64_t>& per_shard_output_bytes);
  /// Factorized (d-representation) intermediates of one finished workflow:
  /// groups emitted and the flat rows those groups stand for
  /// (WorkflowStats::TotalFactorizedGroups/-FlatRows).
  void RecordFactorization(uint64_t groups, uint64_t flat_rows);

  uint64_t admitted() const { return Get(&admitted_); }
  uint64_t rejected() const { return Get(&rejected_); }
  uint64_t completed() const { return Get(&completed_); }
  uint64_t failed() const { return Get(&failed_); }
  uint64_t deadline_exceeded() const { return Get(&deadline_exceeded_); }
  uint64_t batches() const { return Get(&batches_); }
  uint64_t batched_queries() const { return Get(&batched_queries_); }
  uint64_t invalidations() const { return Get(&invalidations_); }
  uint64_t invalidated_entries() const { return Get(&invalidated_entries_); }
  uint64_t invalidated_bytes() const { return Get(&invalidated_bytes_); }
  uint64_t store_hits() const { return Get(&store_hits_); }
  uint64_t store_patched() const { return Get(&store_patched_); }
  uint64_t store_recomputes() const { return Get(&store_recomputes_); }
  uint64_t shuffle_local_bytes() const { return Get(&shuffle_local_bytes_); }
  uint64_t shuffle_cross_bytes() const { return Get(&shuffle_cross_bytes_); }
  uint64_t factorized_groups() const { return Get(&factorized_groups_); }
  uint64_t factorized_flat_rows() const {
    return Get(&factorized_flat_rows_);
  }

  /// One JSON object with counters, queue stats, and both histograms
  /// (cache stats are appended by the service, which owns the caches).
  std::string ToJson() const;

 private:
  void Add(uint64_t* counter, uint64_t n = 1);
  uint64_t Get(const uint64_t* counter) const;

  mutable std::mutex mu_;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t batches_ = 0;
  uint64_t batched_queries_ = 0;
  uint64_t shared_scan_fallback_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t invalidated_entries_ = 0;
  uint64_t invalidated_bytes_ = 0;
  uint64_t store_hits_ = 0;
  uint64_t store_patched_ = 0;
  uint64_t store_recomputes_ = 0;
  uint64_t shuffle_local_bytes_ = 0;
  uint64_t shuffle_cross_bytes_ = 0;
  uint64_t factorized_groups_ = 0;
  uint64_t factorized_flat_rows_ = 0;
  std::vector<uint64_t> shard_output_bytes_;
  int max_queue_depth_ = 0;
  LatencyHistogram latency_;
  LatencyHistogram queue_wait_;
};

}  // namespace rapida::service

#endif  // RAPIDA_SERVICE_METRICS_H_
