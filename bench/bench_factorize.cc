// Factorized-intermediates (d-representation) sweep: every configuration
// runs twice — flat pipelines (factorized_intermediates off) vs the
// default factorized path — and the gap is what's on trial.
//
// Two parts, both at 1 and 8 shards:
//  - fig8: MG1-MG4 on BSBM-small under RAPIDAnalytics with the fig8 map
//    join threshold — the paper's multi-grouping setup, showing the
//    factorization factor the optimized engine sees;
//  - mg-pubmed: the MG-class PubMed catalog queries under Hive (Naive)
//    with map joins disabled, the paper's Table 4 shape: the multi-valued
//    star both shuffles and materializes its cross product, so flat vs
//    factorized shows up in every byte counter.
//
// Per row in BENCH_factorize.json (one JSON object per line; path
// overridable via RAPIDA_FACTORIZE_JSON): materialized bytes (Dfs lifetime
// writes), shuffled bytes, simulated seconds for both paths, and the
// factorized run's workflow factorization factor (flat rows / groups).
// scripts/check.sh gates on the mg-pubmed rows: factor > 1, factorized
// shuffle strictly below flat, and byte-identical results everywhere —
// a flat/factorized result mismatch makes this binary exit nonzero.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "bench/bench_common.h"
#include "sparql/parser.h"
#include "workload/catalog.h"

namespace {

using rapida::bench::GetDataset;
using rapida::bench::Scale;

struct FactRun {
  bool ok = false;
  std::string error;
  double sim_seconds = 0;
  uint64_t materialized_bytes = 0;
  uint64_t shuffle_bytes = 0;
  double factor = 1.0;
  size_t result_rows = 0;
  uint64_t result_hash = 0;
};

/// FNV-1a over the sorted rendered rows: two runs hash equal iff their
/// result multisets are identical.
uint64_t HashResult(const rapida::analytics::BindingTable& table,
                    rapida::rdf::Dictionary& dict) {
  uint64_t h = 14695981039346656037ull;
  for (const std::string& row : table.ToSortedStrings(dict)) {
    for (char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1E;
    h *= 1099511628211ull;
  }
  return h;
}

struct PartSpec {
  const char* bench;
  const char* workload;
  Scale scale;
  const char* engine;
  std::vector<std::string> queries;
  bool map_joins;
};

FactRun RunConfig(const PartSpec& part, const std::string& query_id,
                  int shards, bool factorize) {
  FactRun out;
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

  rapida::engine::Dataset* dataset = GetDataset(part.workload, part.scale);
  rapida::mr::ClusterConfig cluster_cfg =
      rapida::bench::ClusterModel(part.workload, part.scale, /*num_nodes=*/1);
  cluster_cfg.exec_threads = 8;
  cluster_cfg.num_shards = shards;

  rapida::engine::EngineOptions options;
  options.factorized_intermediates = factorize;
  if (part.map_joins) {
    options.map_join_threshold_bytes = 8 * 1024;  // as in the fig8 benches
  } else {
    options.enable_map_joins = false;  // Table 4's repartition-join shape
  }
  auto eng = rapida::bench::MakeEngine(part.engine, options);

  rapida::mr::Cluster cluster(cluster_cfg, &dataset->dfs());
  uint64_t written_before = dataset->dfs().LifetimeBytesWritten();
  rapida::engine::ExecStats stats;
  auto result = eng->Execute(*query, dataset, &cluster, &stats);
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.sim_seconds = stats.workflow.TotalSimSeconds();
  out.materialized_bytes =
      dataset->dfs().LifetimeBytesWritten() - written_before;
  out.shuffle_bytes = stats.workflow.TotalShuffleBytes();
  out.factor = stats.workflow.FactorizationFactor();
  out.result_rows = result->NumRows();
  out.result_hash = HashResult(*result, dataset->dict());
  return out;
}

}  // namespace

int main() {
  const char* json_env = std::getenv("RAPIDA_FACTORIZE_JSON");
  std::string json_path = json_env != nullptr && *json_env != '\0'
                              ? json_env
                              : "BENCH_factorize.json";
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 2;
  }

  // Every MG-class PubMed catalog query (MG11-MG18 plus the MG13F
  // overflow fixture) — the queries check.sh holds to factor > 1.
  std::vector<std::string> mg_queries;
  for (const std::string& id :
       rapida::workload::QueriesForDataset("pubmed")) {
    if (id.rfind("MG", 0) == 0) mg_queries.push_back(id);
  }

  const std::vector<PartSpec> parts = {
      {"fig8", "bsbm", Scale::kSmall, "RAPIDAnalytics",
       {"MG1", "MG2", "MG3", "MG4"}, /*map_joins=*/true},
      {"mg-pubmed", "pubmed", Scale::kSmall, "Hive (Naive)", mg_queries,
       /*map_joins=*/false},
  };
  const std::vector<int> shard_counts = {1, 8};

  int violations = 0;
  for (const PartSpec& part : parts) {
    std::printf("=== %s: %s on %s, flat vs factorized, shards 1/8 ===\n",
                part.bench, part.engine, part.workload);
    std::printf("%-6s %-6s %13s %13s %13s %13s %7s %s\n", "query", "shards",
                "flat_mat", "fact_mat", "flat_shuf", "fact_shuf", "factor",
                "identical");
    // Warm-up pass: the first execution of each query materializes any
    // missing VP tables into the shared Dfs, which would otherwise be
    // charged to the first measured configuration's materialized bytes.
    for (const std::string& q : part.queries) {
      (void)RunConfig(part, q, /*shards=*/1, /*factorize=*/false);
    }
    for (const std::string& q : part.queries) {
      for (int shards : shard_counts) {
        FactRun flat = RunConfig(part, q, shards, /*factorize=*/false);
        FactRun fact = RunConfig(part, q, shards, /*factorize=*/true);
        if (!flat.ok || !fact.ok) {
          std::fprintf(stderr, "%s/%s shards=%d failed: %s\n", part.bench,
                       q.c_str(), shards,
                       (!flat.ok ? flat.error : fact.error).c_str());
          violations++;
          continue;
        }
        bool identical = flat.result_hash == fact.result_hash &&
                         flat.result_rows == fact.result_rows;
        if (!identical) violations++;
        std::printf("%-6s %-6d %13" PRIu64 " %13" PRIu64 " %13" PRIu64
                    " %13" PRIu64 " %6.2fx %s\n",
                    q.c_str(), shards, flat.materialized_bytes,
                    fact.materialized_bytes, flat.shuffle_bytes,
                    fact.shuffle_bytes, fact.factor,
                    identical ? "yes" : "NO <-- VIOLATION");
        std::fprintf(
            json,
            "{\"bench\":\"%s\",\"query\":\"%s\",\"engine\":\"%s\","
            "\"shards\":%d,\"flat_sim_seconds\":%.2f,"
            "\"fact_sim_seconds\":%.2f,\"flat_materialized_bytes\":%" PRIu64
            ",\"fact_materialized_bytes\":%" PRIu64
            ",\"flat_shuffle_bytes\":%" PRIu64
            ",\"fact_shuffle_bytes\":%" PRIu64
            ",\"factorization_factor\":%.3f,\"result_rows\":%zu,"
            "\"result_hash\":\"%016" PRIx64 "\",\"identical\":%d}\n",
            part.bench, q.c_str(), part.engine, shards, flat.sim_seconds,
            fact.sim_seconds, flat.materialized_bytes,
            fact.materialized_bytes, flat.shuffle_bytes, fact.shuffle_bytes,
            fact.factor, fact.result_rows, fact.result_hash,
            identical ? 1 : 0);
      }
    }
    std::printf("\n");
  }
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  if (violations > 0) {
    std::fprintf(stderr,
                 "%d violation(s): factorized results must be byte-identical "
                 "to flat\n",
                 violations);
    return 1;
  }
  return 0;
}
