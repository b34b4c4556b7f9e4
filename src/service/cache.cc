#include "service/cache.h"

#include <utility>

#include "plan/planner.h"
#include "sparql/parser.h"
#include "util/logging.h"

namespace rapida::service {

StatusOr<std::string> CanonicalFingerprint(const std::string& query_text) {
  RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<sparql::SelectQuery> parsed,
                          sparql::ParseQuery(query_text));
  return parsed->ToString();
}

StatusOr<PlanCache::Entry> PlanCache::GetOrAnalyze(
    const std::string& query_text) {
  RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<sparql::SelectQuery> parsed,
                          sparql::ParseQuery(query_text));
  std::string fingerprint = parsed->ToString();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_text_.find(fingerprint);
    if (it != by_text_.end()) {
      hits_++;
      return it->second;
    }
  }
  // Analyze and plan outside the lock; concurrent misses on the same
  // fingerprint do redundant work once but reach the same immutable
  // analysis.
  RAPIDA_ASSIGN_OR_RETURN(analytics::AnalyticalQuery analyzed,
                          analytics::AnalyzeQuery(*parsed));
  Entry entry;
  entry.fingerprint = fingerprint;
  StatusOr<plan::PhysicalPlan> canonical =
      plan::CanonicalOptimizedPlan(analyzed);
  entry.plan_fingerprint = canonical.ok()
                               ? canonical->FingerprintHash()
                               : plan::CanonicalPlanFingerprint(analyzed);
  entry.query = std::make_shared<const analytics::AnalyticalQuery>(
      std::move(analyzed));
  std::lock_guard<std::mutex> lock(mu_);
  misses_++;
  auto plan_it = by_plan_.find(entry.plan_fingerprint);
  if (plan_it != by_plan_.end()) {
    // New surface text, known optimized plan: share it.
    plan_hits_++;
    entry.optimized = plan_it->second;
  } else {
    if (canonical.ok()) {
      entry.optimized = std::make_shared<const plan::PhysicalPlan>(
          std::move(*canonical));
    }
    by_plan_.emplace(entry.plan_fingerprint, entry.optimized);
  }
  auto [it, inserted] = by_text_.emplace(fingerprint, entry);
  return it->second;
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t PlanCache::plan_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_hits_;
}

uint64_t PlanCache::distinct_plans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_plan_.size();
}

std::string ResultCache::Key(const std::string& fingerprint,
                             const std::string& dataset, uint64_t version) {
  return dataset + "@v" + std::to_string(version) + "\n" + fingerprint;
}

uint64_t ResultCache::TableBytes(const analytics::BindingTable& table) {
  uint64_t bytes = 0;
  for (const std::string& v : table.vars()) {
    bytes += sizeof(std::string) + v.size();
  }
  return bytes + table.CellBytes() + 64;
}

std::shared_ptr<const analytics::BindingTable> ResultCache::Get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_++;
    return nullptr;
  }
  hits_++;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->table;
}

void ResultCache::Put(const std::string& key, analytics::BindingTable table) {
  const uint64_t bytes = TableBytes(table);
  if (bytes > byte_budget_) return;
  // Key layout is "<dataset>@v<version>\n<fingerprint>".
  std::string dataset = key.substr(0, key.find('@'));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_used_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  Entry entry;
  entry.key = key;
  entry.dataset = std::move(dataset);
  entry.table =
      std::make_shared<const analytics::BindingTable>(std::move(table));
  entry.bytes = bytes;
  bytes_used_ += bytes;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  EvictToFitLocked();
}

void ResultCache::EvictToFitLocked() {
  while (bytes_used_ > byte_budget_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_used_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_++;
  }
}

ResultCache::Invalidated ResultCache::InvalidateDataset(
    const std::string& dataset) {
  Invalidated dropped;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->dataset == dataset) {
      dropped.entries++;
      dropped.bytes += it->bytes;
      bytes_used_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t ResultCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

}  // namespace rapida::service
