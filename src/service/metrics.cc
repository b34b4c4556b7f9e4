#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rapida::service {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(seconds);
  sum_ += seconds;
  max_ = std::max(max_, seconds);
}

uint64_t LatencyHistogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

double LatencyHistogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double LatencyHistogram::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.empty() ? 0 : sum_ / static_cast<double>(samples_.size());
}

double LatencyHistogram::Max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

std::string LatencyHistogram::ToJson() const {
  uint64_t n = count();
  return "{\"count\":" + std::to_string(n) + ",\"mean\":" + Num(Mean()) +
         ",\"p50\":" + Num(Quantile(0.5)) + ",\"p90\":" + Num(Quantile(0.9)) +
         ",\"p99\":" + Num(Quantile(0.99)) + ",\"max\":" + Num(Max()) + "}";
}

void ServiceMetrics::Add(uint64_t* counter, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  *counter += n;
}

uint64_t ServiceMetrics::Get(const uint64_t* counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  return *counter;
}

void ServiceMetrics::IncrBatches(uint64_t queries_in_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  batches_++;
  batched_queries_ += queries_in_batch;
}

void ServiceMetrics::RecordInvalidation(uint64_t entries, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_++;
  invalidated_entries_ += entries;
  invalidated_bytes_ += bytes;
}

void ServiceMetrics::RecordQueueDepth(int depth) {
  std::lock_guard<std::mutex> lock(mu_);
  max_queue_depth_ = std::max(max_queue_depth_, depth);
}

void ServiceMetrics::RecordShuffle(
    uint64_t local_bytes, uint64_t cross_bytes,
    const std::vector<uint64_t>& per_shard_output_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  shuffle_local_bytes_ += local_bytes;
  shuffle_cross_bytes_ += cross_bytes;
  if (shard_output_bytes_.size() < per_shard_output_bytes.size()) {
    shard_output_bytes_.resize(per_shard_output_bytes.size(), 0);
  }
  for (size_t s = 0; s < per_shard_output_bytes.size(); ++s) {
    shard_output_bytes_[s] += per_shard_output_bytes[s];
  }
}

void ServiceMetrics::RecordFactorization(uint64_t groups,
                                         uint64_t flat_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  factorized_groups_ += groups;
  factorized_flat_rows_ += flat_rows;
}

std::string ServiceMetrics::ToJson() const {
  std::string json = "{";
  {
    std::lock_guard<std::mutex> lock(mu_);
    json += "\"admitted\":" + std::to_string(admitted_);
    json += ",\"rejected\":" + std::to_string(rejected_);
    json += ",\"completed\":" + std::to_string(completed_);
    json += ",\"failed\":" + std::to_string(failed_);
    json += ",\"deadline_exceeded\":" + std::to_string(deadline_exceeded_);
    json += ",\"batches\":" + std::to_string(batches_);
    json += ",\"batched_queries\":" + std::to_string(batched_queries_);
    json += ",\"shared_scan_fallback\":" + std::to_string(shared_scan_fallback_);
    json += ",\"invalidations\":" + std::to_string(invalidations_);
    json += ",\"invalidated_entries\":" + std::to_string(invalidated_entries_);
    json += ",\"invalidated_bytes\":" + std::to_string(invalidated_bytes_);
    json += ",\"store_hits\":" + std::to_string(store_hits_);
    json += ",\"store_patched\":" + std::to_string(store_patched_);
    json += ",\"store_recomputes\":" + std::to_string(store_recomputes_);
    json += ",\"shuffle_local_bytes\":" + std::to_string(shuffle_local_bytes_);
    json += ",\"shuffle_cross_bytes\":" + std::to_string(shuffle_cross_bytes_);
    json += ",\"factorized_groups\":" + std::to_string(factorized_groups_);
    json +=
        ",\"factorized_flat_rows\":" + std::to_string(factorized_flat_rows_);
    json += ",\"factorization_factor\":" +
            Num(factorized_groups_ == 0
                    ? 1.0
                    : static_cast<double>(factorized_flat_rows_) /
                          static_cast<double>(factorized_groups_));
    json += ",\"shard_output_bytes\":[";
    for (size_t s = 0; s < shard_output_bytes_.size(); ++s) {
      if (s > 0) json += ",";
      json += std::to_string(shard_output_bytes_[s]);
    }
    json += "]";
    json += ",\"max_queue_depth\":" + std::to_string(max_queue_depth_);
  }
  json += ",\"latency\":" + latency_.ToJson();
  json += ",\"queue_wait\":" + queue_wait_.ToJson();
  json += "}";
  return json;
}

}  // namespace rapida::service
