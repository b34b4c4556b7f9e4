#ifndef RAPIDA_SERVICE_CACHE_H_
#define RAPIDA_SERVICE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analytics/analytical_query.h"
#include "analytics/binding.h"
#include "plan/plan.h"
#include "util/statusor.h"

namespace rapida::service {

/// Normalizes a query text to its canonical fingerprint: parse, then
/// pretty-print the AST. The printer is a total function of the parsed
/// structure, so whitespace, comments, and prefix spelling differences
/// all map to one fingerprint while semantically different queries never
/// collide (the round-trip property ParseQuery(q.ToString()) == q).
StatusOr<std::string> CanonicalFingerprint(const std::string& query_text);

/// Two-level plan cache keyed on canonical *optimized plans*.
///
/// Level 1 (text): canonical text fingerprint → analyzed query. Catches
/// resubmissions that differ only in whitespace / comments / prefix
/// spelling.
/// Level 2 (structure): fingerprint of the canonical optimized plan
/// (variable names normalized, passes applied) → one shared
/// plan::PhysicalPlan. Queries whose surface text differs — different
/// variable names, reordered prefixes — but whose optimized operator DAGs
/// are identical share a single cached plan; a new text over a known
/// structure is a `plan_hit` (it still pays one parse + analysis, since
/// its SELECT column names are its own, but planning work is shared).
///
/// Entries are immutable and shared; analysis and planning are pure, so
/// the cache never needs invalidation and has no size budget (plans are
/// tiny next to results). Thread-safe.
class PlanCache {
 public:
  struct Entry {
    std::string fingerprint;       // canonical text form
    std::string plan_fingerprint;  // canonical optimized-plan hash
    std::shared_ptr<const analytics::AnalyticalQuery> query;
    /// The canonical optimized plan, shared by every structurally-equal
    /// text. Null when the query's shape defeats the structural planner
    /// (plan_fingerprint then hashes a canonical serialization instead).
    std::shared_ptr<const plan::PhysicalPlan> optimized;
  };

  /// Returns the cached analysis of `query_text`, parsing, analyzing and
  /// planning on miss. Parse/analysis failures are returned, not cached
  /// (a malformed query is cheap to re-reject).
  StatusOr<Entry> GetOrAnalyze(const std::string& query_text);

  uint64_t hits() const;
  uint64_t misses() const;
  /// Text misses that matched an already-cached optimized plan.
  uint64_t plan_hits() const;
  uint64_t distinct_plans() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> by_text_;
  std::unordered_map<std::string, std::shared_ptr<const plan::PhysicalPlan>>
      by_plan_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t plan_hits_ = 0;
};

/// Result cache: (canonical fingerprint, dataset name, dataset version) →
/// final BindingTable, LRU-evicted under a byte budget.
///
/// The dataset version in the key is what makes invalidation principled:
/// a mutation bumps engine::Dataset::version(), so every entry cached
/// against the old version simply stops being reachable (and ages out of
/// the LRU) — there is no explicit flush to forget. Cached tables store
/// TermIds; the dictionary is append-only under mutation, so ids in a
/// table cached at any version render identically forever.
///
/// An entry is billed what it keeps alive (TableBytes): its column names
/// and its cell array. Tables share cells with their copies, so a hit
/// copied into a response adds only that copy's column names.
/// Thread-safe.
class ResultCache {
 public:
  explicit ResultCache(uint64_t byte_budget) : byte_budget_(byte_budget) {}

  static std::string Key(const std::string& fingerprint,
                         const std::string& dataset, uint64_t version);

  /// Returns the cached table (shared with the cache, immutable), or
  /// nullptr on miss.
  std::shared_ptr<const analytics::BindingTable> Get(const std::string& key);

  /// Inserts (or refreshes) `table` under `key`, billed TableBytes(table).
  /// A table larger than the whole budget is not cached.
  void Put(const std::string& key, analytics::BindingTable table);

  /// What an entry holding `table` keeps alive: its column names (string
  /// headers and text), its cell array's capacity (shared cells included),
  /// and a fixed 64 B for the entry itself.
  static uint64_t TableBytes(const analytics::BindingTable& table);

  /// What a wholesale invalidation actually dropped — surfaced in the
  /// service metrics so mutation cost is observable, not silent.
  struct Invalidated {
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// Drops every entry of `dataset` regardless of version — used on
  /// mutation so stale bytes free immediately instead of aging out.
  /// Returns how many entries (and bytes) were dropped.
  Invalidated InvalidateDataset(const std::string& dataset);

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t bytes_used() const;
  uint64_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::string key;
    std::string dataset;
    std::shared_ptr<const analytics::BindingTable> table;
    uint64_t bytes = 0;
  };

  void EvictToFitLocked();

  const uint64_t byte_budget_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t bytes_used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace rapida::service

#endif  // RAPIDA_SERVICE_CACHE_H_
