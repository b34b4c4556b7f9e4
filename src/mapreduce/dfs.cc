#include "mapreduce/dfs.h"

#include <algorithm>

#include "util/string_util.h"

namespace rapida::mr {

Status Dfs::Write(const std::string& name, RecordBatch batch,
                  const FileOptions& options) {
  // A file holds exactly one view per record: drop the growth slack of
  // the producer's view array before the file adopts it.
  batch.records.shrink_to_fit();
  const uint64_t logical = batch.LogicalBytes();
  uint64_t stored =
      options.compressed
          ? static_cast<uint64_t>(static_cast<double>(logical) *
                                  options.compression_ratio)
          : logical;

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t existing = 0;
  auto it = files_.find(name);
  if (it != files_.end()) existing = it->second.stored_bytes;

  if (capacity_limit_ > 0 &&
      total_stored_bytes_ - existing + stored > capacity_limit_) {
    return Status::ResourceExhausted(
        "DFS capacity exceeded writing '" + name + "': need " +
        FormatBytes(total_stored_bytes_ - existing + stored) + " of " +
        FormatBytes(capacity_limit_));
  }

  total_stored_bytes_ = total_stored_bytes_ - existing + stored;
  if (total_stored_bytes_ > peak_stored_bytes_) {
    peak_stored_bytes_ = total_stored_bytes_;
  }
  lifetime_bytes_written_ += stored;
  File& f = files_[name];
  f.records = std::move(batch.records);
  f.arenas = std::move(batch.arenas);
  f.logical_bytes = logical;
  f.stored_bytes = stored;
  f.options = options;
  return Status::OK();
}

StatusOr<const Dfs::File*> Dfs::Open(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("DFS file not found: " + name);
  }
  return &it->second;
}

bool Dfs::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(name) > 0;
}

Status Dfs::Delete(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("DFS file not found: " + name);
  }
  total_stored_bytes_ -= it->second.stored_bytes;
  files_.erase(it);
  return Status::OK();
}

uint64_t Dfs::TotalStoredBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_stored_bytes_;
}

uint64_t Dfs::PeakStoredBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_stored_bytes_;
}

void Dfs::ResetPeak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_stored_bytes_ = total_stored_bytes_;
}

void Dfs::SetCapacityLimit(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_limit_ = bytes;
}

uint64_t Dfs::capacity_limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_limit_;
}

uint64_t Dfs::LifetimeBytesWritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_bytes_written_;
}

std::vector<std::string> Dfs::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rapida::mr
