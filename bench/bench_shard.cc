// Shard scale-out sweep on the Fig. 8 multi-grouping workloads: MG1-MG4
// on BSBM-small (the Fig. 8a setup) and BSBM-large (Fig. 8b), executed by
// RAPIDAnalytics on the sharded data plane at 1 / 2 / 4 / 8 shards
// (hash-by-subject placement), against the single-node unsharded
// baseline.
//
// Two things are on trial, both recorded per row in BENCH_shard.json
// (one JSON object per line; path overridable via RAPIDA_SHARD_JSON):
//  - byte identity: every sharded configuration must produce exactly the
//    unsharded result (compared via the sorted rendered rows' hash) — a
//    violation makes this binary exit nonzero;
//  - scale-out: sim_seconds shrink as shards are added, because the
//    shards are the cost model's nodes (speedup column, baseline / row;
//    scripts/check.sh asserts >= 3x at 8 shards on fig8a from the JSON).
// Each row also records its shard-local and cross-shard shuffle bytes.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "bench/bench_common.h"
#include "sparql/parser.h"
#include "workload/catalog.h"

namespace {

using rapida::bench::GetDataset;
using rapida::bench::Scale;

struct ShardRun {
  bool ok = false;
  std::string error;
  double sim_seconds = 0;
  int cycles = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t local_bytes = 0;
  uint64_t cross_bytes = 0;
  size_t result_rows = 0;
  uint64_t result_hash = 0;
};

/// FNV-1a over the engine-comparison form (sorted rendered rows), so two
/// runs hash equal iff their result multisets are identical.
uint64_t HashResult(const rapida::analytics::BindingTable& table,
                    rapida::rdf::Dictionary& dict) {
  uint64_t h = 14695981039346656037ull;
  for (const std::string& row : table.ToSortedStrings(dict)) {
    for (char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1E;  // row separator
    h *= 1099511628211ull;
  }
  return h;
}

ShardRun RunConfig(const std::string& query_id, const std::string& workload,
                   Scale scale, int shards) {
  ShardRun out;
  auto cq = rapida::workload::FindQuery(query_id);
  if (!cq.ok()) {
    out.error = cq.status().ToString();
    return out;
  }
  auto parsed = rapida::sparql::ParseQuery((*cq)->sparql);
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  auto query = rapida::analytics::AnalyzeQuery(**parsed);
  if (!query.ok()) {
    out.error = query.status().ToString();
    return out;
  }

  rapida::engine::Dataset* dataset = GetDataset(workload, scale);

  // Single-node cost model: the unsharded baseline runs on one node, and
  // each added shard contributes one node's worth of slots — the scale-out
  // the sweep measures. The sample is scaled to the paper's dataset sizes
  // so byte-bound costs dominate, as on the testbed.
  rapida::mr::ClusterConfig cluster_cfg =
      rapida::bench::ClusterModel(workload, scale, /*num_nodes=*/1);
  cluster_cfg.exec_threads = 8;
  cluster_cfg.num_shards = shards;

  rapida::engine::EngineOptions options;
  options.map_join_threshold_bytes = 8 * 1024;  // as in the fig8 benches
  auto eng = rapida::bench::MakeEngine("RAPIDAnalytics", options);

  rapida::mr::Cluster cluster(cluster_cfg, &dataset->dfs());
  rapida::engine::ExecStats stats;
  auto result = eng->Execute(*query, dataset, &cluster, &stats);
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.sim_seconds = stats.workflow.TotalSimSeconds();
  out.cycles = stats.workflow.NumCycles();
  out.shuffle_bytes = stats.workflow.TotalShuffleBytes();
  out.local_bytes = stats.workflow.TotalLocalShuffleBytes();
  out.cross_bytes = stats.workflow.TotalCrossShardBytes();
  out.result_rows = result->NumRows();
  out.result_hash = HashResult(*result, dataset->dict());
  return out;
}

}  // namespace

int main() {
  const char* json_env = std::getenv("RAPIDA_SHARD_JSON");
  std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_shard.json";
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 2;
  }

  struct WorkloadSpec {
    const char* bench;
    const char* workload;
    Scale scale;
  };
  const std::vector<WorkloadSpec> workloads = {
      {"fig8a", "bsbm", Scale::kSmall},
      {"fig8b", "bsbm", Scale::kLarge},
  };
  const std::vector<std::string> queries = {"MG1", "MG2", "MG3", "MG4"};
  const std::vector<int> shard_counts = {1, 2, 4, 8};

  int violations = 0;
  for (const WorkloadSpec& w : workloads) {
    std::printf("=== %s: MG1-MG4, RAPIDAnalytics, shards 1/2/4/8 ===\n",
                w.bench);
    std::printf("%-5s %-7s %-13s %12s %14s %14s %9s %s\n", "query", "shards",
                "scheme", "sim_s", "local_bytes", "cross_bytes", "speedup",
                "identical");
    for (const std::string& q : queries) {
      ShardRun baseline;
      for (int shards : shard_counts) {
        ShardRun r = RunConfig(q, w.workload, w.scale, shards);
        if (!r.ok) {
          std::fprintf(stderr, "%s/%s shards=%d failed: %s\n", w.bench,
                       q.c_str(), shards, r.error.c_str());
          violations++;
          continue;
        }
        const char* scheme_name = shards <= 1 ? "none" : "hash-subject";
        bool identical = true;
        double speedup = 1.0;
        if (shards <= 1) {
          baseline = r;
        } else {
          identical = baseline.ok && r.result_hash == baseline.result_hash &&
                      r.result_rows == baseline.result_rows;
          if (r.sim_seconds > 0) {
            speedup = baseline.sim_seconds / r.sim_seconds;
          }
          if (!identical) violations++;
        }
        std::printf("%-5s %-7d %-13s %12.1f %14" PRIu64 " %14" PRIu64
                    " %8.2fx %s\n",
                    q.c_str(), shards, scheme_name, r.sim_seconds,
                    r.local_bytes, r.cross_bytes, speedup,
                    identical ? "yes" : "NO <-- VIOLATION");
        std::fprintf(
            json,
            "{\"bench\":\"%s\",\"query\":\"%s\",\"engine\":"
            "\"RAPIDAnalytics\",\"shards\":%d,\"scheme\":\"%s\","
            "\"sim_seconds\":%.2f,\"cycles\":%d,\"shuffle_bytes\":%" PRIu64
            ",\"local_bytes\":%" PRIu64 ",\"cross_bytes\":%" PRIu64
            ",\"result_rows\":%zu,\"result_hash\":\"%016" PRIx64
            "\",\"identical\":%d,\"speedup\":%.3f}\n",
            w.bench, q.c_str(), shards, scheme_name, r.sim_seconds, r.cycles,
            r.shuffle_bytes, r.local_bytes, r.cross_bytes, r.result_rows,
            r.result_hash, identical ? 1 : 0, speedup);
      }
    }
    std::printf("\n");
  }
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  if (violations > 0) {
    std::fprintf(stderr,
                 "%d violation(s): sharded results must be byte-identical "
                 "to the unsharded baseline\n",
                 violations);
    return 1;
  }
  return 0;
}
