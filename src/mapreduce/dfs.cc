#include "mapreduce/dfs.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace rapida::mr {

Status Dfs::Write(const std::string& name, RecordBatch batch,
                  const FileOptions& options) {
  std::vector<RecordBatch> parts;
  parts.push_back(std::move(batch));
  return Write(name, std::move(parts), options);
}

Status Dfs::Write(const std::string& name, std::vector<RecordBatch> parts,
                  const FileOptions& options) {
  // Copy outside the lock: size the buffer exactly, copy each part's
  // chunks in and free the part, then index the copy.
  File f;
  uint64_t packed = 0;
  for (const RecordBatch& part : parts) {
    f.num_records_ += part.size();
    f.logical_bytes += part.LogicalBytes();
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      packed += part.chunk(c).size();
    }
  }
  if (packed > 0) f.bytes_.reset(new char[packed]);
  char* const base = f.bytes_.get();
  char* out = base;
  for (RecordBatch& part : parts) {
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      const std::string_view chunk = part.chunk(c);
      std::memcpy(out, chunk.data(), chunk.size());
      out += chunk.size();
    }
    part = RecordBatch();
  }
  RAPIDA_DCHECK(static_cast<uint64_t>(out - base) == packed);
  f.index_.reserve((f.num_records_ + File::kIndexStride - 1) /
                   File::kIndexStride);
  const char* p = base;
  Record r;
  for (uint64_t i = 0; i < f.num_records_; ++i) {
    if (i % File::kIndexStride == 0) {
      f.index_.push_back(static_cast<uint64_t>(p - base));
    }
    p = UnpackRecord(p, &r);
  }
  RAPIDA_DCHECK(p == out);
  f.stored_bytes = options.compressed
                       ? static_cast<uint64_t>(
                             static_cast<double>(f.logical_bytes) *
                             options.compression_ratio)
                       : f.logical_bytes;
  f.options = options;
  const uint64_t stored = f.stored_bytes;

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
  files_[name] = std::move(f);
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
