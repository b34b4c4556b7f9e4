// rapida_serve — the concurrent query service over the workload catalog.
//
// Replays catalog queries from many concurrent sessions through
// service::QueryService (admission control, fair-share scheduling, plan /
// result caching, shared-scan batching) and reports service metrics.
//
// Usage:
//   rapida_serve                 bench mode: replays the catalog trace at
//                                1/8/32 sessions with caches on and off,
//                                runs the batched-vs-serial burst
//                                experiment, and appends one JSON object
//                                to BENCH_service.json
//   rapida_serve --smoke         correctness mode for scripts/check.sh:
//                                serves every catalog query cold, hot and
//                                from 32 concurrent sessions, and
//                                cross-checks every result byte-for-byte
//                                against direct RAPIDAnalytics execution;
//                                exit 1 on any mismatch
//   --store DIR                  persistent materialization store: every
//                                executed query publishes its result as a
//                                content-addressed artifact under DIR, and
//                                later queries (same plan, same dataset
//                                content) are answered from disk with zero
//                                MapReduce jobs — across process restarts.
//                                In smoke mode this also runs a simulated
//                                warm restart (fresh datasets, second
//                                service over the same DIR) plus an
//                                incremental-view-maintenance check
//                                (mutate, then patched vs recomputed)
//   --expect-warm                with --smoke --store: require the cold
//                                pass itself to be served from the store
//                                (>= 29 of the catalog) — the cross-
//                                process warm-restart gate
//   --bench-store                mutate-heavy replay over the patchable
//                                bsbm queries, incremental maintenance vs
//                                full recompute; appends to BENCH_store.json
//   --passes N                   trace passes per session in bench mode
//   --shards N                   with --smoke: run the service's data
//                                plane across N shards (results must
//                                still match the unsharded oracle)
//   --out FILE                   bench output (default BENCH_service.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/rapid_analytics.h"
#include "rdf/term.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "storage/ivm.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace {

using rapida::engine::Dataset;
using rapida::service::QueryService;
using rapida::service::QuerySpec;
using rapida::service::Response;
using rapida::service::ServiceOptions;

struct Datasets {
  std::map<std::string, std::unique_ptr<Dataset>> by_name;
};

Datasets BuildDatasets() {
  Datasets d;
  d.by_name["bsbm"] = std::make_unique<Dataset>(
      rapida::workload::GenerateBsbm(rapida::workload::BsbmConfig{}));
  d.by_name["chem"] = std::make_unique<Dataset>(
      rapida::workload::GenerateChem2Bio(rapida::workload::ChemConfig{}));
  d.by_name["pubmed"] = std::make_unique<Dataset>(
      rapida::workload::GeneratePubmed(rapida::workload::PubmedConfig{}));
  return d;
}

ServiceOptions BaseOptions(int workers, bool caches, bool batching) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.max_queue_depth = 4096;
  opts.enable_plan_cache = caches;
  opts.enable_result_cache = caches;
  opts.enable_batching = batching;
  opts.batch_window_ms = batching ? 2.0 : 0.0;
  return opts;
}

void RegisterAll(QueryService* svc, Datasets* data) {
  for (auto& [name, ds] : data->by_name) svc->RegisterDataset(name, ds.get());
}

/// Direct (service-free) execution on a private cluster — the oracle the
/// smoke mode compares against.
rapida::StatusOr<std::vector<std::string>> DirectSortedResult(
    const std::string& sparql, Dataset* dataset) {
  RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<rapida::sparql::SelectQuery> parsed,
                          rapida::sparql::ParseQuery(sparql));
  RAPIDA_ASSIGN_OR_RETURN(rapida::analytics::AnalyticalQuery query,
                          rapida::analytics::AnalyzeQuery(*parsed));
  rapida::mr::Cluster cluster(rapida::mr::ClusterConfig{}, &dataset->dfs());
  rapida::engine::RapidAnalyticsEngine engine;
  RAPIDA_ASSIGN_OR_RETURN(
      rapida::analytics::BindingTable table,
      engine.Execute(query, dataset, &cluster, nullptr));
  return table.ToSortedStrings(dataset->dict());
}

/// A batch of fresh BSBM offers (all-new subjects, so every triple is an
/// insert) — the mutation workload for the IVM paths. Deterministic in
/// `round` so replays are reproducible.
std::vector<Dataset::TripleUpdate> NewOffers(int round, int count) {
  using rapida::rdf::Term;
  const std::string ns(rapida::workload::kBsbmNs);
  std::vector<Dataset::TripleUpdate> ups;
  for (int i = 0; i < count; ++i) {
    std::string offer =
        ns + "OfferNew" + std::to_string(round) + "x" + std::to_string(i);
    int64_t k = static_cast<int64_t>(round) * 97 + i * 13;
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "product"),
                   Term::Iri(ns + "Product" + std::to_string(1 + k % 1000))});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "price"),
                   Term::Literal(std::to_string(50 + (k * 17) % 9950),
                                 rapida::rdf::kXsdInteger)});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "vendor"),
                   Term::Iri(ns + "Vendor" + std::to_string(1 + k % 25))});
  }
  return ups;
}

/// Simulated restart: fresh datasets (fresh dictionaries — no TermId from
/// the publishing service survives) and a new service over the same store
/// directory. Every catalog query must come back byte-identical to the
/// oracle, with at least 29 of the 31 served straight from disk at zero
/// simulated MapReduce cost.
int WarmRestartCheck(
    const std::string& store_dir,
    const std::map<std::string, std::vector<std::string>>& expected) {
  Datasets data = BuildDatasets();
  ServiceOptions opts =
      BaseOptions(/*workers=*/4, /*caches=*/true, /*batching=*/true);
  opts.store_dir = store_dir;
  QueryService svc(opts);
  RegisterAll(&svc, &data);
  int session = svc.OpenSession("warm");

  int failures = 0;
  uint64_t store_hits = 0;
  for (const auto& q : rapida::workload::Catalog()) {
    Response r = svc.Execute(session, QuerySpec{q.sparql, q.dataset});
    if (!r.result.ok() ||
        r.result->ToSortedStrings(data.by_name[q.dataset]->dict()) !=
            expected.at(q.id)) {
      std::fprintf(stderr, "FAIL %s (warm): differs from direct\n",
                   q.id.c_str());
      failures++;
      continue;
    }
    if (r.store_hit) {
      store_hits++;
      if (r.sim_seconds != 0 || r.sched_sim_seconds != 0) {
        std::fprintf(stderr, "FAIL %s (warm): store hit cost %.3f sim s\n",
                     q.id.c_str(), r.sim_seconds);
        failures++;
      }
    }
  }
  size_t total = rapida::workload::Catalog().size();
  std::printf("warm restart: %llu/%zu catalog queries served from store\n",
              static_cast<unsigned long long>(store_hits), total);
  if (store_hits + 2 < total) {
    std::fprintf(stderr, "FAIL: only %llu/%zu warm queries hit the store\n",
                 static_cast<unsigned long long>(store_hits), total);
    failures++;
  }
  return failures;
}

/// Incremental-maintenance check in a private throwaway store: seed the
/// bsbm catalog, mutate, then require (a) at least one artifact was
/// patched rather than recomputed and (b) every post-mutation answer —
/// patched or not — matches a direct recompute on the mutated data.
int IvmMutateCheck(const std::string& scratch_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);

  Datasets data = BuildDatasets();
  ServiceOptions opts =
      BaseOptions(/*workers=*/4, /*caches=*/true, /*batching=*/true);
  opts.store_dir = scratch_dir;
  QueryService svc(opts);
  RegisterAll(&svc, &data);
  int session = svc.OpenSession("ivm");

  int failures = 0;
  std::vector<const rapida::workload::CatalogQuery*> bsbm;
  for (const auto& q : rapida::workload::Catalog()) {
    if (q.dataset != "bsbm") continue;
    bsbm.push_back(&q);
    Response r = svc.Execute(session, QuerySpec{q.sparql, q.dataset});
    if (!r.result.ok()) {
      std::fprintf(stderr, "FAIL %s (ivm seed): %s\n", q.id.c_str(),
                   r.result.status().ToString().c_str());
      failures++;
    }
  }

  rapida::Status mutated = svc.Mutate("bsbm", NewOffers(/*round=*/0, 5));
  if (!mutated.ok()) {
    std::fprintf(stderr, "FAIL: mutate: %s\n", mutated.ToString().c_str());
    failures++;
  }
  if (svc.metrics().store_patched() == 0) {
    std::fprintf(stderr, "FAIL: mutation patched no artifact "
                         "(expected incremental maintenance)\n");
    failures++;
  }

  Dataset* ds = data.by_name["bsbm"].get();
  for (const auto* q : bsbm) {
    auto direct = DirectSortedResult(q->sparql, ds);
    Response r = svc.Execute(session, QuerySpec{q->sparql, q->dataset});
    if (!direct.ok() || !r.result.ok() ||
        r.result->ToSortedStrings(ds->dict()) != *direct) {
      std::fprintf(stderr, "FAIL %s (ivm): post-mutation result differs "
                           "from direct recompute\n",
                   q->id.c_str());
      failures++;
    }
  }
  std::printf(
      "ivm: %llu artifacts patched, %llu recomputed after mutation\n",
      static_cast<unsigned long long>(svc.metrics().store_patched()),
      static_cast<unsigned long long>(svc.metrics().store_recomputes()));
  fs::remove_all(scratch_dir, ec);
  return failures;
}

int Smoke(const std::string& store_dir, bool expect_warm, int shards) {
  Datasets data = BuildDatasets();

  // Oracle results, computed before the service touches anything.
  std::map<std::string, std::vector<std::string>> expected;
  for (const auto& q : rapida::workload::Catalog()) {
    auto direct = DirectSortedResult(q.sparql, data.by_name[q.dataset].get());
    if (!direct.ok()) {
      std::fprintf(stderr, "direct %s: %s\n", q.id.c_str(),
                   direct.status().ToString().c_str());
      return 1;
    }
    expected[q.id] = *direct;
  }

  ServiceOptions smoke_opts = BaseOptions(/*workers=*/4, /*caches=*/true,
                                          /*batching=*/true);
  smoke_opts.store_dir = store_dir;
  // Sharded smoke: the service runs its data plane across N shards; every
  // result must still match the unsharded direct oracle byte-for-byte.
  smoke_opts.cluster.num_shards = shards;
  QueryService svc(smoke_opts);
  RegisterAll(&svc, &data);
  int session = svc.OpenSession("smoke");

  int failures = 0;
  auto check = [&](const rapida::workload::CatalogQuery& q, Response r,
                   const char* mode) {
    if (!r.result.ok()) {
      std::fprintf(stderr, "FAIL %s (%s): %s\n", q.id.c_str(), mode,
                   r.result.status().ToString().c_str());
      failures++;
      return;
    }
    std::vector<std::string> got =
        r.result->ToSortedStrings(data.by_name[q.dataset]->dict());
    if (got != expected[q.id]) {
      std::fprintf(stderr, "FAIL %s (%s): %zu rows differ from direct\n",
                   q.id.c_str(), mode, got.size());
      failures++;
    }
  };

  // Cold, then hot (the second round must be served by the result cache
  // and still be byte-identical). The cold pass also collects each query's
  // structural plan fingerprint for the metrics report.
  std::map<std::string, std::string> plan_fingerprints;
  uint64_t cold_store_hits = 0;
  for (const auto& q : rapida::workload::Catalog()) {
    Response r = svc.Execute(session, QuerySpec{q.sparql, q.dataset});
    plan_fingerprints[q.id] = r.plan_fingerprint;
    if (r.store_hit) {
      cold_store_hits++;
      if (r.sim_seconds != 0) {
        std::fprintf(stderr, "FAIL %s (cold): store hit cost %.3f sim s\n",
                     q.id.c_str(), r.sim_seconds);
        failures++;
      }
    }
    check(q, std::move(r), "cold");
  }
  if (expect_warm &&
      cold_store_hits + 2 < rapida::workload::Catalog().size()) {
    std::fprintf(stderr,
                 "FAIL: --expect-warm but only %llu/%zu cold queries were "
                 "served from the store\n",
                 static_cast<unsigned long long>(cold_store_hits),
                 rapida::workload::Catalog().size());
    failures++;
  }
  uint64_t hits_before = svc.result_cache().hits();
  for (const auto& q : rapida::workload::Catalog()) {
    check(q, svc.Execute(session, QuerySpec{q.sparql, q.dataset}), "hot");
  }
  if (svc.result_cache().hits() == hits_before) {
    std::fprintf(stderr, "FAIL: hot pass produced no result-cache hits\n");
    failures++;
  }

  // 32 concurrent sessions replaying the whole catalog.
  std::vector<int> sessions;
  for (int s = 0; s < 32; ++s) {
    sessions.push_back(svc.OpenSession("s" + std::to_string(s)));
  }
  std::atomic<int> concurrent_failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 32; ++s) {
    threads.emplace_back([&, s] {
      for (const auto& q : rapida::workload::Catalog()) {
        Response r = svc.Execute(sessions[static_cast<size_t>(s)],
                                 QuerySpec{q.sparql, q.dataset});
        if (!r.result.ok() ||
            r.result->ToSortedStrings(data.by_name[q.dataset]->dict()) !=
                expected[q.id]) {
          concurrent_failures++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  failures += concurrent_failures.load();

  std::printf("%s\n", svc.MetricsJson().c_str());
  std::string fps = "{\"plan_fingerprints\":{";
  bool first = true;
  for (const auto& [id, fp] : plan_fingerprints) {
    fps += std::string(first ? "" : ",") + "\"" + id + "\":\"" + fp + "\"";
    first = false;
  }
  fps += "}}";
  std::printf("%s\n", fps.c_str());

  if (!store_dir.empty()) {
    if (!expect_warm) failures += WarmRestartCheck(store_dir, expected);
    failures += IvmMutateCheck(store_dir + ".ivm-scratch");
  }

  if (failures == 0) {
    std::printf("smoke OK: %zu catalog queries cold+hot+32-way concurrent, "
                "all byte-identical to direct execution\n",
                rapida::workload::Catalog().size());
    return 0;
  }
  std::fprintf(stderr, "smoke FAILED: %d mismatches\n", failures);
  return 1;
}

struct ScenarioResult {
  int sessions = 0;
  bool caches = false;
  uint64_t queries = 0;
  double wall_s = 0;
  double throughput_qps = 0;
  double p50_s = 0;
  double p99_s = 0;
  uint64_t result_cache_hits = 0;
};

/// Replays `passes` passes over the catalog from `num_sessions` concurrent
/// sessions.
ScenarioResult RunScenario(Datasets* data, int num_sessions, bool caches,
                           int passes) {
  QueryService svc(
      BaseOptions(/*workers=*/4, caches, /*batching=*/true));
  RegisterAll(&svc, data);

  std::vector<int> sessions;
  for (int s = 0; s < num_sessions; ++s) {
    sessions.push_back(svc.OpenSession("s" + std::to_string(s)));
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::atomic<uint64_t> served{0};
  for (int s = 0; s < num_sessions; ++s) {
    threads.emplace_back([&, s] {
      for (int pass = 0; pass < passes; ++pass) {
        for (const auto& q : rapida::workload::Catalog()) {
          Response r = svc.Execute(sessions[static_cast<size_t>(s)],
                                   QuerySpec{q.sparql, q.dataset});
          if (r.result.ok()) served++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult r;
  r.sessions = num_sessions;
  r.caches = caches;
  r.queries = served.load();
  r.wall_s = wall;
  r.throughput_qps = wall > 0 ? static_cast<double>(r.queries) / wall : 0;
  r.p50_s = svc.metrics().latency().Quantile(0.5);
  r.p99_s = svc.metrics().latency().Quantile(0.99);
  r.result_cache_hits = svc.result_cache().hits();
  return r;
}

/// The MQO experiment: 8 sessions fire the same overlapping bsbm burst at
/// once. Batched, the composite cycles are shared (and duplicates served
/// once); serial, every query pays its full workflow. Caches are off in
/// both runs so the comparison isolates the shared scan.
void RunBurst(Datasets* data, double* batched_sim, double* serial_sim,
              uint64_t* batches) {
  std::vector<std::string> burst =
      rapida::workload::QueriesForDataset("bsbm");
  for (int variant = 0; variant < 2; ++variant) {
    bool batching = variant == 0;
    QueryService svc(BaseOptions(/*workers=*/2, /*caches=*/false, batching));
    RegisterAll(&svc, data);
    std::vector<std::future<Response>> futures;
    for (int s = 0; s < 8; ++s) {
      int session = svc.OpenSession("burst" + std::to_string(s));
      for (const std::string& id : burst) {
        auto q = rapida::workload::FindQuery(id);
        auto f = svc.Submit(session, QuerySpec{(*q)->sparql, "bsbm"});
        if (f.ok()) futures.push_back(std::move(*f));
      }
    }
    for (auto& f : futures) f.get();
    double total = svc.scheduler().TotalDemandSimSeconds();
    if (batching) {
      *batched_sim = total;
      *batches = svc.metrics().batches();
    } else {
      *serial_sim = total;
    }
  }
}

int Bench(int passes, const std::string& out_path) {
  Datasets data = BuildDatasets();

  std::string json = "{\"bench\":\"service\",\"scenarios\":[";
  bool first = true;
  for (int sessions : {1, 8, 32}) {
    for (bool caches : {false, true}) {
      ScenarioResult r = RunScenario(&data, sessions, caches, passes);
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"sessions\":%d,\"caches\":%s,\"queries\":%llu,"
          "\"wall_s\":%.4f,\"throughput_qps\":%.2f,\"p50_s\":%.5f,"
          "\"p99_s\":%.5f,\"result_cache_hits\":%llu}",
          first ? "" : ",", r.sessions, r.caches ? "true" : "false",
          static_cast<unsigned long long>(r.queries), r.wall_s,
          r.throughput_qps, r.p50_s, r.p99_s,
          static_cast<unsigned long long>(r.result_cache_hits));
      json += buf;
      first = false;
      std::printf(
          "sessions=%2d caches=%-5s  %5llu queries  %7.2f q/s  "
          "p50=%.4fs p99=%.4fs\n",
          r.sessions, r.caches ? "on" : "off",
          static_cast<unsigned long long>(r.queries), r.throughput_qps,
          r.p50_s, r.p99_s);
    }
  }
  json += "]";

  double batched_sim = 0, serial_sim = 0;
  uint64_t batches = 0;
  RunBurst(&data, &batched_sim, &serial_sim, &batches);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"burst\":{\"batched_sim_s\":%.2f,\"serial_sim_s\":%.2f,"
                "\"batches\":%llu}}",
                batched_sim, serial_sim,
                static_cast<unsigned long long>(batches));
  json += buf;
  std::printf("burst (8 sessions x bsbm catalog): batched %.1f sim s vs "
              "serial %.1f sim s (%llu shared batches)\n",
              batched_sim, serial_sim,
              static_cast<unsigned long long>(batches));

  std::ofstream out(out_path, std::ios::app);
  out << json << "\n";
  std::printf("appended to %s\n", out_path.c_str());
  return 0;
}

/// Mutate-heavy replay over the incrementally-maintainable bsbm queries:
/// the same trace (seed, then rounds of mutate + full replay) runs once
/// with incremental view maintenance and once with full recompute. The
/// measured quantity is simulated MapReduce demand during the replay
/// rounds — incremental maintenance answers every round from patched
/// artifacts without launching a single job.
int BenchStore(const std::string& out_path) {
  namespace fs = std::filesystem;
  const int kRounds = 10;
  const int kOffersPerRound = 5;

  // The replay set: bsbm catalog queries whose algebra admits patching.
  std::vector<const rapida::workload::CatalogQuery*> queries;
  for (const auto& q : rapida::workload::Catalog()) {
    if (q.dataset != "bsbm") continue;
    auto parsed = rapida::sparql::ParseQuery(q.sparql);
    if (!parsed.ok()) continue;
    auto analyzed = rapida::analytics::AnalyzeQuery(**parsed);
    if (!analyzed.ok()) continue;
    if (rapida::storage::ClassifyMaintainability(*analyzed).cls !=
        rapida::storage::IvmClass::kNone) {
      queries.push_back(&q);
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "bench-store: no patchable bsbm queries\n");
    return 1;
  }

  double replay_sim[2] = {0, 0};  // [0]=ivm, [1]=recompute
  uint64_t patched = 0, recomputed = 0;
  for (int variant = 0; variant < 2; ++variant) {
    bool ivm = variant == 0;
    std::string dir =
        ivm ? "store_bench.ivm-scratch" : "store_bench.full-scratch";
    std::error_code ec;
    fs::remove_all(dir, ec);

    Datasets data = BuildDatasets();
    ServiceOptions opts =
        BaseOptions(/*workers=*/2, /*caches=*/true, /*batching=*/false);
    opts.store_dir = dir;
    opts.enable_ivm = ivm;
    QueryService svc(opts);
    RegisterAll(&svc, &data);
    int session = svc.OpenSession("bench-store");

    for (const auto* q : queries) {
      svc.Execute(session, QuerySpec{q->sparql, q->dataset});
    }
    double seed_sim = svc.scheduler().TotalDemandSimSeconds();

    for (int round = 0; round < kRounds; ++round) {
      rapida::Status st =
          svc.Mutate("bsbm", NewOffers(round, kOffersPerRound));
      if (!st.ok()) {
        std::fprintf(stderr, "bench-store mutate: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      for (const auto* q : queries) {
        Response r = svc.Execute(session, QuerySpec{q->sparql, q->dataset});
        if (!r.result.ok()) {
          std::fprintf(stderr, "bench-store %s: %s\n", q->id.c_str(),
                       r.result.status().ToString().c_str());
          return 1;
        }
      }
    }
    replay_sim[variant] =
        svc.scheduler().TotalDemandSimSeconds() - seed_sim;
    if (ivm) {
      patched = svc.metrics().store_patched();
    } else {
      recomputed = svc.metrics().store_recomputes();
    }
    fs::remove_all(dir, ec);
  }

  // An all-patched replay legitimately costs zero simulated seconds;
  // floor the denominator so the reported ratio stays finite.
  double speedup = replay_sim[1] / std::max(replay_sim[0], 1e-3);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"store\",\"queries\":%zu,\"rounds\":%d,"
      "\"offers_per_round\":%d,\"ivm_replay_sim_s\":%.3f,"
      "\"recompute_replay_sim_s\":%.3f,\"speedup\":%.1f,"
      "\"artifacts_patched\":%llu,\"artifacts_recomputed\":%llu}",
      queries.size(), kRounds, kOffersPerRound, replay_sim[0],
      replay_sim[1], speedup, static_cast<unsigned long long>(patched),
      static_cast<unsigned long long>(recomputed));
  std::printf("%s\n", buf);
  std::printf("store replay (%zu patchable queries x %d mutate rounds): "
              "incremental %.2f sim s vs recompute %.2f sim s (%.0fx)\n",
              queries.size(), kRounds, replay_sim[0], replay_sim[1],
              speedup);
  std::ofstream out(out_path, std::ios::app);
  out << buf << "\n";
  std::printf("appended to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool bench_store = false;
  bool expect_warm = false;
  int passes = 2;
  int shards = 0;
  std::string out_path;
  std::string store_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--bench-store") == 0) {
      bench_store = true;
    } else if (std::strcmp(argv[i], "--expect-warm") == 0) {
      expect_warm = true;
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
      store_dir = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
      passes = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--store DIR] [--expect-warm] "
                   "[--bench-store] [--passes N] [--shards N] "
                   "[--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (bench_store) {
    return BenchStore(out_path.empty() ? "BENCH_store.json" : out_path);
  }
  if (smoke) return Smoke(store_dir, expect_warm, shards);
  return Bench(passes, out_path.empty() ? "BENCH_service.json" : out_path);
}
