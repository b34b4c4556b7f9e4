#include "service/query_service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/rapid_analytics.h"
#include "service/cache.h"
#include "service/scheduler.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace rapida::service {
namespace {

/// The engines_test mini-graph, trimmed: typed products with features,
/// offers with prices.
rdf::Graph BuildMiniGraph() {
  rdf::Graph g;
  const char* products[] = {"p1", "p2", "p3"};
  for (const char* p : products) {
    g.AddIri(p, rdf::kRdfType, "PT1");
    g.AddLit(p, "label", std::string("label-") + p);
  }
  g.AddIri("p1", "feature", "f1");
  g.AddIri("p2", "feature", "f1");
  g.AddIri("p3", "feature", "f2");
  struct Offer {
    const char* id;
    const char* product;
    int price;
  };
  for (const Offer& o : std::initializer_list<Offer>{
           {"o1", "p1", 100}, {"o2", "p2", 80}, {"o3", "p3", 300}}) {
    g.AddIri(o.id, "product", o.product);
    g.AddInt(o.id, "price", o.price);
  }
  return g;
}

constexpr char kSumByFeature[] = R"(
  SELECT ?f (SUM(?pr) AS ?total) (COUNT(?pr) AS ?cnt) {
    ?p a <PT1> . ?p <feature> ?f .
    ?off <product> ?p . ?off <price> ?pr .
  } GROUP BY ?f
)";

/// Same query, different spelling — must share one fingerprint.
constexpr char kSumByFeatureReformatted[] =
    "SELECT ?f (SUM(?pr) AS ?total)   (COUNT(?pr) AS ?cnt)\n"
    "WHERE { ?p a <PT1> . ?p <feature> ?f .\n"
    "        ?off <product> ?p . ?off <price> ?pr . }\n"
    "GROUP BY ?f";

std::vector<std::string> DirectResult(const std::string& sparql,
                                      engine::Dataset* dataset) {
  auto parsed = sparql::ParseQuery(sparql);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  EXPECT_TRUE(query.ok()) << query.status();
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset->dfs());
  engine::RapidAnalyticsEngine engine;
  auto result = engine.Execute(*query, dataset, &cluster, nullptr);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->ToSortedStrings(dataset->dict());
}

ServiceOptions SmallOptions() {
  ServiceOptions opts;
  opts.workers = 2;
  return opts;
}

TEST(CanonicalFingerprintTest, NormalizesFormattingOnly) {
  auto a = CanonicalFingerprint(kSumByFeature);
  auto b = CanonicalFingerprint(kSumByFeatureReformatted);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);

  auto c = CanonicalFingerprint(
      "SELECT ?f (SUM(?pr) AS ?total) { ?p a <PT1> . ?p <feature> ?f . "
      "?off <product> ?p . ?off <price> ?pr . } GROUP BY ?f");
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_NE(*a, *c);  // different query, different fingerprint

  EXPECT_FALSE(CanonicalFingerprint("SELECT WHERE {").ok());
}

TEST(ServiceTest, ServesQueryAndHitsCachesWhenHot) {
  engine::Dataset dataset(BuildMiniGraph());
  std::vector<std::string> expected = DirectResult(kSumByFeature, &dataset);

  QueryService svc(SmallOptions());
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");

  Response cold = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_TRUE(cold.result.ok()) << cold.result.status();
  EXPECT_EQ(cold.result->ToSortedStrings(dataset.dict()), expected);
  EXPECT_FALSE(cold.result_cache_hit);
  EXPECT_GT(cold.sim_seconds, 0);

  // Different spelling of the same query: plan-cache hit (shared
  // fingerprint), result-cache hit, identical rows.
  Response hot =
      svc.Execute(session, QuerySpec{kSumByFeatureReformatted, "mini"});
  ASSERT_TRUE(hot.result.ok()) << hot.result.status();
  EXPECT_TRUE(hot.result_cache_hit);
  EXPECT_EQ(hot.result->ToSortedStrings(dataset.dict()), expected);
  EXPECT_EQ(hot.fingerprint, cold.fingerprint);
  EXPECT_GE(svc.plan_cache().hits(), 1u);
  EXPECT_GE(svc.result_cache().hits(), 1u);
}

TEST(ServiceTest, TypedAdmissionRejections) {
  engine::Dataset dataset(BuildMiniGraph());
  ServiceOptions opts = SmallOptions();
  opts.max_queue_depth = 0;  // reject everything: pure backpressure path
  QueryService svc(opts);
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");

  auto full = svc.Submit(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), Code::kResourceExhausted);

  auto bad_session = svc.Submit(99, QuerySpec{kSumByFeature, "mini"});
  ASSERT_FALSE(bad_session.ok());
  EXPECT_EQ(bad_session.status().code(), Code::kInvalidArgument);

  auto bad_dataset = svc.Submit(session, QuerySpec{kSumByFeature, "nope"});
  ASSERT_FALSE(bad_dataset.ok());
  EXPECT_EQ(bad_dataset.status().code(), Code::kNotFound);

  auto bad_query = svc.Submit(session, QuerySpec{"SELECT WHERE {", "mini"});
  ASSERT_FALSE(bad_query.ok());

  svc.Shutdown();
  auto after_shutdown = svc.Submit(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_FALSE(after_shutdown.ok());
  EXPECT_EQ(after_shutdown.status().code(), Code::kUnavailable);

  EXPECT_GE(svc.metrics().rejected(), 3u);
}

TEST(ServiceTest, ResultCacheInvalidatedByMutation) {
  engine::Dataset dataset(BuildMiniGraph());
  QueryService svc(SmallOptions());
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");

  Response before = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_TRUE(before.result.ok()) << before.result.status();
  Response hit = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  EXPECT_TRUE(hit.result_cache_hit);

  // A new offer on p1 changes f1's SUM and COUNT.
  uint64_t version_before = dataset.version();
  ASSERT_TRUE(svc.Mutate("mini", {{rdf::Term::Iri("o9"),
                                   rdf::Term::Iri("product"),
                                   rdf::Term::Iri("p1")},
                                  {rdf::Term::Iri("o9"),
                                   rdf::Term::Iri("price"),
                                   rdf::Term::Literal("1000",
                                                      rdf::kXsdInteger)}})
                  .ok());
  EXPECT_GT(dataset.version(), version_before);

  Response after = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_FALSE(after.result_cache_hit);  // stale entry unreachable
  EXPECT_NE(after.result->ToSortedStrings(dataset.dict()),
            before.result->ToSortedStrings(dataset.dict()));
  // The mutated dataset answers match a fresh direct execution.
  EXPECT_EQ(after.result->ToSortedStrings(dataset.dict()),
            DirectResult(kSumByFeature, &dataset));

  // Unknown dataset: typed error.
  EXPECT_EQ(svc.Mutate("nope", {}).code(), Code::kNotFound);
}

analytics::BindingTable MakeTable(int rows) {
  analytics::BindingTable t({"a", "b"});
  for (int i = 0; i < rows; ++i) {
    t.AddRow({static_cast<rdf::TermId>(i + 1), static_cast<rdf::TermId>(i + 2)});
  }
  return t;
}

/// Measures one MakeTable(rows) entry's charged bytes via a throwaway
/// unlimited cache (TableBytes is an implementation detail).
uint64_t OneEntryBytes(int rows) {
  ResultCache probe(/*byte_budget=*/1ull << 30);
  probe.Put("probe", MakeTable(rows));
  return probe.bytes_used();
}

TEST(ResultCacheTest, EntryLargerThanBudgetIsNotCached) {
  uint64_t one = OneEntryBytes(64);
  ResultCache cache(one / 2);
  cache.Put("big", MakeTable(64));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
  // Rejecting an oversized entry is not an eviction — nothing was evicted.
  EXPECT_EQ(cache.evictions(), 0u);

  // A smaller entry still fits afterwards: the oversize Put left no debris.
  ResultCache probe(1ull << 30);
  probe.Put("p", MakeTable(1));
  if (probe.bytes_used() <= one / 2) {
    cache.Put("small", MakeTable(1));
    EXPECT_NE(cache.Get("small"), nullptr);
  }
}

TEST(ResultCacheTest, ZeroBudgetCachesNothing) {
  ResultCache cache(0);
  cache.Put("k", MakeTable(1));
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ResultCacheTest, LruEvictionOrderAcrossMixedVersions) {
  // Same fingerprint cached under two dataset versions plus a second
  // fingerprint — three equal-size entries, budget for two.
  uint64_t one = OneEntryBytes(8);
  ResultCache cache(2 * one + one / 2);
  std::string a = ResultCache::Key("fp1", "ds", 0);
  std::string b = ResultCache::Key("fp1", "ds", 1);
  std::string c = ResultCache::Key("fp2", "ds", 1);
  cache.Put(a, MakeTable(8));
  cache.Put(b, MakeTable(8));
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch `a`: it becomes MRU, so the stale-version entry `b` is the
  // LRU victim when `c` arrives.
  EXPECT_NE(cache.Get(a), nullptr);
  cache.Put(c, MakeTable(8));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(b), nullptr);
  EXPECT_NE(cache.Get(a), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);
  EXPECT_LE(cache.bytes_used(), cache.byte_budget());
}

TEST(ResultCacheTest, InvalidateDatasetReportsWhatItDropped) {
  ResultCache cache(1ull << 30);
  cache.Put(ResultCache::Key("fp1", "ds", 0), MakeTable(4));
  cache.Put(ResultCache::Key("fp1", "ds", 1), MakeTable(4));
  cache.Put(ResultCache::Key("fp1", "other", 0), MakeTable(4));
  uint64_t before = cache.bytes_used();

  ResultCache::Invalidated dropped = cache.InvalidateDataset("ds");
  EXPECT_EQ(dropped.entries, 2u);
  EXPECT_GT(dropped.bytes, 0u);
  EXPECT_EQ(cache.bytes_used(), before - dropped.bytes);
  EXPECT_EQ(cache.Get(ResultCache::Key("fp1", "ds", 0)), nullptr);
  EXPECT_NE(cache.Get(ResultCache::Key("fp1", "other", 0)), nullptr);

  ResultCache::Invalidated none = cache.InvalidateDataset("ds");
  EXPECT_EQ(none.entries, 0u);
  EXPECT_EQ(none.bytes, 0u);
}

TEST(ServiceTest, MutationMetricsCountInvalidations) {
  engine::Dataset dataset(BuildMiniGraph());
  QueryService svc(SmallOptions());
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");

  ASSERT_TRUE(
      svc.Execute(session, QuerySpec{kSumByFeature, "mini"}).result.ok());
  ASSERT_TRUE(svc.Mutate("mini", {{rdf::Term::Iri("o9"),
                                   rdf::Term::Iri("product"),
                                   rdf::Term::Iri("p1")}})
                  .ok());
  EXPECT_EQ(svc.metrics().invalidations(), 1u);
  EXPECT_GE(svc.metrics().invalidated_entries(), 1u);
  EXPECT_GT(svc.metrics().invalidated_bytes(), 0u);
  EXPECT_NE(svc.MetricsJson().find("\"invalidated_entries\""),
            std::string::npos);
}

std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "rapida_service_store_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

TEST(ServiceTest, StoreServesAcrossServiceInstances) {
  ServiceOptions opts = SmallOptions();
  opts.store_dir = StoreDir("restart");

  std::vector<std::string> expected;
  {
    engine::Dataset dataset(BuildMiniGraph());
    QueryService svc(opts);
    svc.RegisterDataset("mini", &dataset);
    int session = svc.OpenSession("t");
    Response cold = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
    ASSERT_TRUE(cold.result.ok()) << cold.result.status();
    EXPECT_FALSE(cold.store_hit);
    expected = cold.result->ToSortedStrings(dataset.dict());
    ASSERT_NE(svc.store(), nullptr);
    EXPECT_GE(svc.store()->stats().puts, 1u);
  }

  // A new service over a *fresh* dataset built from the same triples: the
  // content hash matches, so the artifact serves with zero MapReduce jobs.
  engine::Dataset dataset(BuildMiniGraph());
  QueryService svc(opts);
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");
  Response warm = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_TRUE(warm.result.ok()) << warm.result.status();
  EXPECT_TRUE(warm.store_hit);
  EXPECT_EQ(warm.sim_seconds, 0);
  EXPECT_EQ(warm.result->ToSortedStrings(dataset.dict()), expected);
  EXPECT_GE(svc.metrics().store_hits(), 1u);
}

TEST(ServiceTest, MutateMaintainsStoreArtifactsIncrementally) {
  ServiceOptions opts = SmallOptions();
  opts.store_dir = StoreDir("ivm");

  std::vector<engine::Dataset::TripleUpdate> delta = {
      {rdf::Term::Iri("o9"), rdf::Term::Iri("product"), rdf::Term::Iri("p1")},
      {rdf::Term::Iri("o9"), rdf::Term::Iri("price"),
       rdf::Term::Literal("1000", rdf::kXsdInteger)}};

  {
    engine::Dataset dataset(BuildMiniGraph());
    QueryService svc(opts);
    svc.RegisterDataset("mini", &dataset);
    int session = svc.OpenSession("t");
    ASSERT_TRUE(
        svc.Execute(session, QuerySpec{kSumByFeature, "mini"}).result.ok());

    // The mutation patches the group-aggregate artifact in place (COUNT and
    // SUM merge) instead of recomputing, and the patched rows answer the
    // next execution without a cluster.
    ASSERT_TRUE(svc.Mutate("mini", delta).ok());
    EXPECT_GE(svc.metrics().store_patched(), 1u);
    Response after = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
    ASSERT_TRUE(after.result.ok()) << after.result.status();
    EXPECT_TRUE(after.result_cache_hit || after.store_hit);
    EXPECT_EQ(after.result->ToSortedStrings(dataset.dict()),
              DirectResult(kSumByFeature, &dataset));
  }

  // Cross-restart: a fresh dataset with the delta already applied lands on
  // the *patched* artifact's content hash and serves from the store.
  rdf::Graph mutated = BuildMiniGraph();
  mutated.AddIri("o9", "product", "p1");
  mutated.AddInt("o9", "price", 1000);
  engine::Dataset dataset(std::move(mutated));
  QueryService svc(opts);
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");
  Response warm = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  ASSERT_TRUE(warm.result.ok()) << warm.result.status();
  EXPECT_TRUE(warm.store_hit);
  EXPECT_EQ(warm.result->ToSortedStrings(dataset.dict()),
            DirectResult(kSumByFeature, &dataset));
}

TEST(ServiceTest, DeadlineExceededCancelsMidJob) {
  engine::Dataset dataset(BuildMiniGraph());
  QueryService svc(SmallOptions());
  svc.RegisterDataset("mini", &dataset);
  int session = svc.OpenSession("t");

  QuerySpec spec{kSumByFeature, "mini"};
  spec.deadline_s = 1e-9;  // expires before the first job phase
  Response r = svc.Execute(session, spec);
  ASSERT_FALSE(r.result.ok());
  EXPECT_EQ(r.result.status().code(), Code::kDeadlineExceeded);
  // Cancellation comes from inside the running workflow (a job phase), not
  // from a pre-execution queue check.
  EXPECT_NE(r.result.status().message().find("phase"), std::string::npos)
      << r.result.status();
  EXPECT_EQ(svc.metrics().deadline_exceeded(), 1u);

  // The same query without a deadline still completes.
  Response ok = svc.Execute(session, QuerySpec{kSumByFeature, "mini"});
  EXPECT_TRUE(ok.result.ok()) << ok.result.status();
}

TEST(SchedulerTest, LightSessionIsNotStarvedByHeavyOne) {
  JobScheduler sched((mr::ClusterConfig()));
  int heavy = sched.OpenSession("heavy");
  int light = sched.OpenSession("light");

  // Heavy session owns the cluster first: a 100-simulated-second job.
  mr::JobStats big;
  big.sim_seconds = 100;
  sched.Account(heavy, &big);
  EXPECT_DOUBLE_EQ(big.sched_sim_seconds, 100);  // no contention yet
  EXPECT_DOUBLE_EQ(big.sched_stretch, 1.0);

  // A 1-second query arriving under contention is stretched by its share
  // (2 sessions, equal weight -> 2x), NOT queued behind the heavy query
  // (FIFO would charge it 100 + 1 seconds).
  mr::JobStats small;
  small.sim_seconds = 1;
  sched.Account(light, &small);
  EXPECT_DOUBLE_EQ(small.sched_sim_seconds, 2);
  EXPECT_DOUBLE_EQ(small.sched_stretch, 2.0);

  // Neither starves: both sessions' work completes.
  EXPECT_DOUBLE_EQ(sched.Stats(heavy).busy_until_sim_s, 100);
  EXPECT_DOUBLE_EQ(sched.Stats(light).busy_until_sim_s, 2);
  EXPECT_DOUBLE_EQ(sched.TotalDemandSimSeconds(), 101);
}

TEST(SchedulerTest, WeightsSkewTheShare) {
  JobScheduler sched((mr::ClusterConfig()));
  int heavy = sched.OpenSession("heavy", 1.0);
  int vip = sched.OpenSession("vip", 3.0);

  mr::JobStats big;
  big.sim_seconds = 100;
  sched.Account(heavy, &big);

  // Weight 3 against weight 1: the vip runs at 3/4 of the cluster, so a
  // 3-second demand takes 4 scheduled seconds.
  mr::JobStats job;
  job.sim_seconds = 3;
  sched.Account(vip, &job);
  EXPECT_DOUBLE_EQ(job.sched_sim_seconds, 4);
}

TEST(SchedulerTest, IntegratesAcrossBusyBoundaries) {
  JobScheduler sched((mr::ClusterConfig()));
  int a = sched.OpenSession("a");
  int b = sched.OpenSession("b");

  mr::JobStats ja;
  ja.sim_seconds = 10;
  sched.Account(a, &ja);  // a busy on [0, 10]

  // b demands 20: shares the cluster on [0, 10] at rate 1/2 (progress 5),
  // then runs alone for the remaining 15 -> finishes at 25.
  mr::JobStats jb;
  jb.sim_seconds = 20;
  sched.Account(b, &jb);
  EXPECT_DOUBLE_EQ(jb.sched_sim_seconds, 25);
  EXPECT_DOUBLE_EQ(sched.Stats(b).busy_until_sim_s, 25);
}

TEST(ServiceTest, BatchingSharesWorkAcrossSessions) {
  engine::Dataset solo_dataset(BuildMiniGraph());
  // Solo baseline demand.
  double solo_demand = 0;
  {
    QueryService svc(SmallOptions());
    svc.RegisterDataset("mini", &solo_dataset);
    Response r = svc.Execute(svc.OpenSession("solo"),
                             QuerySpec{kSumByFeature, "mini"});
    ASSERT_TRUE(r.result.ok()) << r.result.status();
    solo_demand = r.sim_seconds;
    ASSERT_GT(solo_demand, 0);
  }

  // Two sessions fire the same query concurrently with caching off: the
  // batch dedups to one execution whose cost is split between them.
  engine::Dataset dataset(BuildMiniGraph());
  std::vector<std::string> expected = DirectResult(kSumByFeature, &dataset);
  ServiceOptions opts = SmallOptions();
  opts.workers = 1;
  opts.enable_result_cache = false;
  opts.batch_window_ms = 100;  // generous window: no submission race
  QueryService svc(opts);
  svc.RegisterDataset("mini", &dataset);
  int s1 = svc.OpenSession("s1");
  int s2 = svc.OpenSession("s2");

  auto f1 = svc.Submit(s1, QuerySpec{kSumByFeature, "mini"});
  auto f2 = svc.Submit(s2, QuerySpec{kSumByFeatureReformatted, "mini"});
  ASSERT_TRUE(f1.ok()) << f1.status();
  ASSERT_TRUE(f2.ok()) << f2.status();
  Response r1 = f1->get();
  Response r2 = f2->get();
  ASSERT_TRUE(r1.result.ok()) << r1.result.status();
  ASSERT_TRUE(r2.result.ok()) << r2.result.status();
  EXPECT_EQ(r1.result->ToSortedStrings(dataset.dict()), expected);
  EXPECT_EQ(r2.result->ToSortedStrings(dataset.dict()), expected);

  // Both served from one batch; total demand ~ one solo execution, not
  // two.
  EXPECT_EQ(r1.batch_size, 2u);
  EXPECT_EQ(r2.batch_size, 2u);
  double total_demand = svc.scheduler().TotalDemandSimSeconds();
  EXPECT_LT(total_demand, 1.5 * solo_demand);
  EXPECT_GE(svc.metrics().batches(), 1u);
}

TEST(ServiceTest, CatalogMatchesDirectExecution) {
  std::map<std::string, std::unique_ptr<engine::Dataset>> datasets;
  datasets["bsbm"] = std::make_unique<engine::Dataset>(
      workload::GenerateBsbm(workload::BsbmConfig{}));
  datasets["chem"] = std::make_unique<engine::Dataset>(
      workload::GenerateChem2Bio(workload::ChemConfig{}));
  datasets["pubmed"] = std::make_unique<engine::Dataset>(
      workload::GeneratePubmed(workload::PubmedConfig{}));

  std::map<std::string, std::vector<std::string>> expected;
  for (const auto& q : workload::Catalog()) {
    expected[q.id] = DirectResult(q.sparql, datasets[q.dataset].get());
  }

  ServiceOptions opts;
  opts.workers = 4;
  QueryService svc(opts);
  for (auto& [name, ds] : datasets) svc.RegisterDataset(name, ds.get());
  int session = svc.OpenSession("catalog");

  for (const auto& q : workload::Catalog()) {
    Response cold = svc.Execute(session, QuerySpec{q.sparql, q.dataset});
    ASSERT_TRUE(cold.result.ok()) << q.id << ": " << cold.result.status();
    EXPECT_EQ(cold.result->ToSortedStrings(datasets[q.dataset]->dict()),
              expected[q.id])
        << q.id << " (cold)";
    Response hot = svc.Execute(session, QuerySpec{q.sparql, q.dataset});
    ASSERT_TRUE(hot.result.ok()) << q.id << ": " << hot.result.status();
    EXPECT_TRUE(hot.result_cache_hit) << q.id;
    EXPECT_EQ(hot.result->ToSortedStrings(datasets[q.dataset]->dict()),
              expected[q.id])
        << q.id << " (hot)";
  }

  // Every catalog query ran twice (cold + hot).
  std::string json = svc.MetricsJson();
  std::string want =
      "\"completed\":" + std::to_string(2 * workload::Catalog().size());
  EXPECT_NE(json.find(want), std::string::npos) << json;
}

}  // namespace
}  // namespace rapida::service
