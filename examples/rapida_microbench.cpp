// Microbenchmarks for the operator kernels (mapreduce/kernels.h): each
// compares a kernel primitive against the std:: structure the operators
// used before, verifies both produce identical results, and reports wall
// time plus speedup. Rows are appendable to BENCH_mapreduce.json (JSON
// lines).
//
// Usage:
//   rapida_microbench [--rows=N] [--repeat=K] [--json[=PATH]]
//
// Benches:
//   hash-join probe   util::HashIndex + CSR groups vs
//                     std::unordered_map<TermId, vector<vector<TermId>>>
//   batch aggregate   insertion-ordered HashIndex aggregation table vs
//                     std::map<std::string, vector<Aggregator>>
//
// With --json, one row per bench is appended (default BENCH_mapreduce.json,
// overridable via the RAPIDA_BENCH_JSON environment variable or =PATH).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/aggregates.h"
#include "analytics/value.h"
#include "engines/relational_ops.h"
#include "mapreduce/kernels.h"
#include "mapreduce/record.h"
#include "rdf/dictionary.h"
#include "util/hash_index.h"

namespace {

using rapida::analytics::Aggregator;
using rapida::engine::AppendRow;
namespace kernels = rapida::mr::kernels;
namespace util = rapida::util;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic xorshift so runs are comparable.
uint64_t g_rng = 0x2545f4914f6cdd1dull;
uint64_t NextRand() {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  return g_rng;
}

struct BenchResult {
  std::string name;
  double scalar_seconds = 0;
  double batch_seconds = 0;
  size_t rows = 0;
  bool verified = false;

  double Speedup() const {
    return batch_seconds > 0 ? scalar_seconds / batch_seconds : 0;
  }
};

/// Runs `fn` `repeat` times and returns the best wall time (the usual
/// microbench convention: best-of filters scheduler noise).
template <typename Fn>
double BestOf(int repeat, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < repeat; ++i) {
    double t0 = NowSeconds();
    fn();
    double dt = NowSeconds() - t0;
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

// ---------------------------------------------------------------------------
// hash-join probe: build a side table of rows grouped by key, then probe
// every input key and sum the matched cells (the map-join inner loop).

BenchResult BenchHashJoinProbe(size_t rows, int repeat) {
  const size_t kDistinct = rows / 4 + 1;
  std::vector<uint32_t> build_keys(rows / 2), probe_keys(rows);
  for (auto& k : build_keys) k = static_cast<uint32_t>(NextRand() % kDistinct);
  for (auto& k : probe_keys) k = static_cast<uint32_t>(NextRand() % kDistinct);

  uint64_t scalar_sum = 0, batch_sum = 0;

  double scalar_s = BestOf(repeat, [&] {
    std::unordered_map<uint32_t, std::vector<std::vector<uint32_t>>> table;
    for (uint32_t k : build_keys) table[k].push_back({k, k + 1, k + 2});
    uint64_t sum = 0;
    for (uint32_t k : probe_keys) {
      auto it = table.find(k);
      if (it == table.end()) continue;
      for (const auto& row : it->second) {
        for (uint32_t c : row) sum += c;
      }
    }
    scalar_sum = sum;
  });

  double batch_s = BestOf(repeat, [&] {
    util::HashIndex index;
    index.Reserve(build_keys.size());
    std::vector<uint32_t> keys;
    std::vector<std::vector<uint32_t>> cells_of;  // grouped build rows
    for (uint32_t k : build_keys) {
      auto [id, inserted] = index.FindOrInsert(
          util::MixId(k), static_cast<uint32_t>(keys.size()),
          [&](uint32_t cand) { return keys[cand] == k; });
      if (inserted) {
        keys.push_back(k);
        cells_of.emplace_back();
      }
      cells_of[id].insert(cells_of[id].end(), {k, k + 1, k + 2});
    }
    uint64_t sum = 0;
    for (uint32_t k : probe_keys) {
      uint32_t id = index.Find(util::MixId(k), [&](uint32_t cand) {
        return keys[cand] == k;
      });
      if (id == util::HashIndex::kNotFound) continue;
      for (uint32_t c : cells_of[id]) sum += c;
    }
    batch_sum = sum;
  });

  return BenchResult{"hash-join probe", scalar_s, batch_s, rows,
                     scalar_sum == batch_sum};
}

// ---------------------------------------------------------------------------
// batch aggregate: COUNT(*) + SUM(v) grouped by an encoded key string —
// the GroupBy / TG_AggJoin partial-aggregation table.

BenchResult BenchBatchAggregate(size_t rows, int repeat) {
  const size_t kGroups = 512;
  rapida::rdf::Dictionary dict;
  std::vector<uint32_t> group_of(rows);
  std::vector<rapida::rdf::TermId> value_of(rows);
  for (size_t i = 0; i < rows; ++i) {
    group_of[i] = static_cast<uint32_t>(NextRand() % kGroups);
    value_of[i] = rapida::analytics::InternNumber(
        &dict, static_cast<double>(NextRand() % 100));
  }
  auto make_aggs = [] {
    std::vector<Aggregator> aggs;
    aggs.emplace_back(rapida::sparql::AggFunc::kCount, false, " ");
    aggs.emplace_back(rapida::sparql::AggFunc::kSum, false, " ");
    return aggs;
  };

  std::string scalar_flush, batch_flush;

  double scalar_s = BestOf(repeat, [&] {
    std::map<std::string, std::vector<Aggregator>> table;
    for (size_t i = 0; i < rows; ++i) {
      std::vector<rapida::rdf::TermId> key{group_of[i]};
      auto [it, inserted] =
          table.emplace(rapida::engine::EncodeRow(key), make_aggs());
      it->second[0].AddRow();
      it->second[1].AddTerm(value_of[i], dict);
    }
    scalar_flush.clear();
    for (auto& [key, aggs] : table) {
      scalar_flush += key;
      for (const Aggregator& a : aggs) {
        scalar_flush += '|';
        scalar_flush += a.SerializePartial();
      }
      scalar_flush += '\n';
    }
  });

  double batch_s = BestOf(repeat, [&] {
    util::HashIndex index;
    std::vector<std::string> keys;
    std::vector<std::vector<Aggregator>> agg_rows;
    std::string key_buf;
    for (size_t i = 0; i < rows; ++i) {
      key_buf.clear();
      kernels::AppendDecimal(&key_buf, group_of[i]);
      auto [id, inserted] = index.FindOrInsert(
          rapida::mr::HashKey(key_buf),
          static_cast<uint32_t>(keys.size()),
          [&](uint32_t cand) { return keys[cand] == key_buf; });
      if (inserted) {
        keys.push_back(key_buf);
        agg_rows.push_back(make_aggs());
      }
      agg_rows[id][0].AddRow();
      agg_rows[id][1].AddTerm(value_of[i], dict);
    }
    // Flush sorted so the verification against std::map order passes; the
    // real operators flush insertion-ordered (the shuffle sorts anyway).
    std::vector<uint32_t> order(keys.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    batch_flush.clear();
    for (uint32_t id : order) {
      batch_flush += keys[id];
      for (const Aggregator& a : agg_rows[id]) {
        batch_flush += '|';
        batch_flush += a.SerializePartial();
      }
      batch_flush += '\n';
    }
  });

  return BenchResult{"batch aggregate", scalar_s, batch_s, rows,
                     scalar_flush == batch_flush};
}

// ---------------------------------------------------------------------------

std::string GitRevision() {
  std::string rev = "unknown";
  FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (p != nullptr) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (!s.empty()) rev = s;
    }
    ::pclose(p);
  }
  return rev;
}

void AppendJson(const std::string& path,
                const std::vector<BenchResult>& results) {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to %s\n", path.c_str());
    return;
  }
  std::string rev = GitRevision();
  for (const BenchResult& r : results) {
    std::fprintf(f,
                 "{\"bench\":\"microbench %s\",\"git_rev\":\"%s\","
                 "\"rows\":%zu,\"scalar_seconds\":%.6f,"
                 "\"batch_seconds\":%.6f,\"speedup\":%.2f,"
                 "\"verified\":%s}\n",
                 r.name.c_str(), rev.c_str(), r.rows, r.scalar_seconds,
                 r.batch_seconds, r.Speedup(),
                 r.verified ? "true" : "false");
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 1 << 20;
  int repeat = 3;
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--rows=", 0) == 0) {
      rows = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows=N] [--repeat=K] [--json[=PATH]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<BenchResult> results;
  results.push_back(BenchHashJoinProbe(rows, repeat));
  results.push_back(BenchBatchAggregate(rows / 4, repeat));

  std::printf("%-18s %12s %12s %9s %s\n", "bench", "scalar(s)", "batch(s)",
              "speedup", "verified");
  bool all_ok = true;
  for (const BenchResult& r : results) {
    std::printf("%-18s %12.4f %12.4f %8.2fx %s\n", r.name.c_str(),
                r.scalar_seconds, r.batch_seconds, r.Speedup(),
                r.verified ? "yes" : "MISMATCH");
    all_ok = all_ok && r.verified;
  }

  if (json) {
    if (json_path.empty()) {
      const char* env = std::getenv("RAPIDA_BENCH_JSON");
      json_path = (env != nullptr && *env != '\0') ? env
                                                   : "BENCH_mapreduce.json";
    }
    AppendJson(json_path, results);
    std::printf("(json appended to %s)\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
