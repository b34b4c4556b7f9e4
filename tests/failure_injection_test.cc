// Failure-injection coverage: capacity exhaustion mid-workflow, corrupted
// DFS records, unsatisfiable constants, and query shapes outside the
// engine subset. Engines must fail with the right Status (never crash) and
// leave the DFS clean.
#include <gtest/gtest.h>

#include "analytics/analytical_query.h"
#include "engines/engines.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "records_of.h"

namespace rapida::engine {
namespace {

std::unique_ptr<analytics::AnalyticalQuery> MustAnalyze(
    const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  EXPECT_TRUE(query.ok()) << query.status();
  return std::make_unique<analytics::AnalyticalQuery>(std::move(*query));
}

TEST(FailureInjectionTest, CapacityExhaustionFailsCleanlyOnEveryEngine) {
  workload::BsbmConfig cfg;
  cfg.num_products = 400;
  auto cq = workload::FindQuery("MG3");
  auto query = MustAnalyze((*cq)->sparql);

  for (const auto& eng : MakeAllEngines()) {
    Dataset dataset(workload::GenerateBsbm(cfg));
    mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());
    // Load the base layouts first, then squeeze the capacity so the
    // engine's own intermediates blow the limit.
    ASSERT_TRUE(dataset.EnsureVpTables().ok());
    ASSERT_TRUE(dataset.EnsureTripleGroups().ok());
    uint64_t base = dataset.dfs().TotalStoredBytes();
    dataset.dfs().SetCapacityLimit(base + 2048);

    ExecStats stats;
    auto result = eng->Execute(*query, &dataset, &cluster, &stats);
    ASSERT_FALSE(result.ok()) << eng->name();
    EXPECT_EQ(result.status().code(), Code::kResourceExhausted)
        << eng->name() << ": " << result.status();

    // Cleanup must have removed the temp files (the failed write itself
    // never landed), so only base layouts remain.
    for (const std::string& f : dataset.dfs().ListFiles()) {
      EXPECT_TRUE(f.rfind("vp:", 0) == 0 || f.rfind("tg:", 0) == 0)
          << eng->name() << " leaked " << f;
    }
  }
}

TEST(FailureInjectionTest, CorruptTriplegroupRecordsAreSkipped) {
  workload::BsbmConfig cfg;
  cfg.num_products = 100;
  Dataset dataset(workload::GenerateBsbm(cfg));
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());
  ASSERT_TRUE(dataset.EnsureTripleGroups().ok());

  // Baseline run.
  auto cq = workload::FindQuery("MG1");
  auto query = MustAnalyze((*cq)->sparql);
  RapidAnalyticsEngine engine;
  ExecStats stats;
  auto baseline = engine.Execute(*query, &dataset, &cluster, &stats);
  ASSERT_TRUE(baseline.ok());

  // Inject garbage records into every triplegroup file: the NTGA map
  // functions must skip them without crashing or changing valid rows.
  for (const std::string& f : dataset.dfs().ListFiles()) {
    if (f.rfind("tg:", 0) != 0) continue;
    auto file = dataset.dfs().Open(f);
    ASSERT_TRUE(file.ok());
    // Copy the bytes out via the batch before Write replaces the file (and
    // frees the bytes the old records point into).
    mr::RecordBatch batch;
    for (const auto& [key, value] : RecordsOf(**file)) batch.Add(key, value);
    batch.Add("junk", "not-a-triplegroup");
    batch.Add("", "");
    ASSERT_TRUE(dataset.dfs().Write(f, std::move(batch)).ok());
  }
  auto corrupted = engine.Execute(*query, &dataset, &cluster, &stats);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status();
  EXPECT_EQ(corrupted->ToSortedStrings(dataset.dict()),
            baseline->ToSortedStrings(dataset.dict()));
}

TEST(FailureInjectionTest, UnknownConstantsYieldEmptyNotError) {
  workload::BsbmConfig cfg;
  cfg.num_products = 50;
  Dataset dataset(workload::GenerateBsbm(cfg));
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());
  auto query = MustAnalyze(
      "PREFIX : <http://bsbm.example/> "
      "SELECT ?f (COUNT(?pr) AS ?n) { "
      "?p a :NoSuchTypeAnywhere . ?p :productFeature ?f . "
      "?o :product ?p . ?o :price ?pr . } GROUP BY ?f");
  for (const auto& eng : MakeAllEngines()) {
    ExecStats stats;
    auto result = eng->Execute(*query, &dataset, &cluster, &stats);
    ASSERT_TRUE(result.ok()) << eng->name() << ": " << result.status();
    EXPECT_EQ(result->NumRows(), 0u) << eng->name();
  }
}

TEST(FailureInjectionTest, DisconnectedPatternRejected) {
  // Two stars with no shared variable: not an analytical-subset shape the
  // engines can join (would need a cross product). The analyzer rejects it
  // up front so no engine can diverge on it at runtime (differential
  // fuzzing found Hive shortcutting to empty results on empty scans while
  // the NTGA engines errored).
  auto parsed = sparql::ParseQuery(
      "PREFIX : <http://bsbm.example/> "
      "SELECT (COUNT(?pr) AS ?n) { "
      "?p a :ProductType1 . ?p :label ?l . "
      "?o :price ?pr . ?o :vendor ?v . }");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), Code::kInvalidArgument);
}

TEST(FailureInjectionTest, AnalyzerRejectsOutOfScopeShapes) {
  auto reject = [](const char* text, Code code) {
    auto parsed = sparql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto query = analytics::AnalyzeQuery(**parsed);
    ASSERT_FALSE(query.ok()) << text;
    EXPECT_EQ(query.status().code(), code) << query.status();
  };
  // DISTINCT aggregates are non-algebraic.
  reject("SELECT (COUNT(DISTINCT ?x) AS ?n) { ?s <p> ?x . }",
         Code::kUnimplemented);
  // Single-star OPTIONAL is in scope now, but nesting is not.
  reject("SELECT (COUNT(?x) AS ?n) { ?s <p> ?x . "
         "OPTIONAL { ?s <q> ?y . OPTIONAL { ?y <r> ?z . } } }",
         Code::kInvalidArgument);
  // Unbound property.
  reject("SELECT (COUNT(?o) AS ?n) { ?s ?p ?o . }", Code::kInvalidArgument);
  // Aggregate over an expression.
  reject("SELECT (SUM(?x + 1) AS ?n) { ?s <p> ?x . }",
         Code::kInvalidArgument);
  // Projected variable not grouped.
  reject("SELECT ?s (COUNT(?x) AS ?n) { ?s <p> ?x . }",
         Code::kInvalidArgument);
  // Top-level aggregate over subqueries.
  reject("SELECT (SUM(?n) AS ?total) { "
         "{ SELECT ?s (COUNT(?x) AS ?n) { ?s <p> ?x . } GROUP BY ?s } }",
         Code::kInvalidArgument);
  // Mixed triples and subqueries at the top level.
  reject("SELECT ?n { ?a <q> ?b . "
         "{ SELECT (COUNT(?x) AS ?n) { ?s <p> ?x . } } }",
         Code::kInvalidArgument);
}

TEST(FailureInjectionTest, CapacityFailureDuringPreprocessing) {
  workload::BsbmConfig cfg;
  cfg.num_products = 200;
  Dataset::Options opts;
  opts.dfs_capacity = 1024;  // not even the VP tables fit
  Dataset dataset(workload::GenerateBsbm(cfg), opts);
  Status s = dataset.EnsureVpTables();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kResourceExhausted);
}

}  // namespace
}  // namespace rapida::engine
