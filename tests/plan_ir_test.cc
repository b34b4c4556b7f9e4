// The physical-plan IR: node/DAG mechanics, EXPLAIN determinism, the
// optimizer pass toggles, canonical fingerprints under variable renaming,
// the service PlanCache's structural (level-2) hits, the executor's
// per-node cycle gate, that every costed node owns an exec, and that the
// NTGA and relational execs follow the plan rather than the execution
// options.
#include "plan/plan.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "plan/executor.h"
#include "plan/passes.h"
#include "plan/planner.h"
#include "service/cache.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"
#include "rows_of.h"

namespace rapida::plan {
namespace {

/// MG1 with every variable (pattern vars and aggregate aliases) renamed:
/// structurally identical, different surface text.
constexpr char kRenamedMg1[] = R"(PREFIX : <http://bsbm.example/>
SELECT ?feat ?a ?b ?c ?d {
  { SELECT ?feat (COUNT(?price) AS ?a) (SUM(?price) AS ?b) {
      ?prod a :ProductType1 . ?prod :label ?lbl .
      ?prod :productFeature ?feat .
      ?o :product ?prod . ?o :price ?price .
    } GROUP BY ?feat }
  { SELECT (COUNT(?w) AS ?c) (SUM(?w) AS ?d) {
      ?q1 a :ProductType1 . ?q1 :label ?q2 .
      ?q3 :product ?q1 . ?q3 :price ?w .
    } }
})";

analytics::AnalyticalQuery Analyze(const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  EXPECT_TRUE(query.ok()) << query.status();
  return std::move(*query);
}

std::string CatalogText(const std::string& id) {
  auto cq = workload::FindQuery(id);
  EXPECT_TRUE(cq.ok());
  return (*cq)->sparql;
}

TEST(PlanIrTest, NodeAndDagBasics) {
  PhysicalPlan plan;
  plan.engine = "RAPIDAnalytics";
  PlanNode& scan = plan.AddNode(OpKind::kVpScan, "g0", "g0: VP scan", 0);
  scan.Attr("prop", "p");
  const int scan_id = scan.id;
  PlanNode& join = plan.AddNode(OpKind::kStarJoin, "g0", "g0: star-join", 1);
  join.inputs = {scan_id};

  EXPECT_EQ(plan.EstimatedCycles(), 1);
  EXPECT_EQ(plan.FindById(scan_id)->attrs[0].second, "p");

  std::string text = plan.ExplainText();
  EXPECT_NE(text.find("RAPIDAnalytics: 1 MR cycles (estimated)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("#0 VpScan"), std::string::npos) << text;
  EXPECT_NE(text.find("inputs: #0"), std::string::npos) << text;
}

TEST(PlanIrTest, ExplainIsDeterministic) {
  analytics::AnalyticalQuery query = Analyze(CatalogText("MG3"));
  for (const char* engine : {"Hive (Naive)", "Hive (MQO)", "RAPID+ (Naive)",
                             "RAPIDAnalytics"}) {
    auto a = PlanForEngine(engine, query, nullptr, engine::EngineOptions());
    auto b = PlanForEngine(engine, query, nullptr, engine::EngineOptions());
    ASSERT_TRUE(a.ok() && b.ok()) << engine;
    EXPECT_EQ(a->ExplainText(), b->ExplainText()) << engine;
    EXPECT_EQ(a->ExplainJson(), b->ExplainJson()) << engine;
    EXPECT_EQ(a->FingerprintHash(), b->FingerprintHash()) << engine;
  }
}

TEST(PlanIrTest, UnknownEngineIsRejected) {
  analytics::AnalyticalQuery query = Analyze(CatalogText("G1"));
  auto plan = PlanForEngine("Spark", query, nullptr, engine::EngineOptions());
  EXPECT_FALSE(plan.ok());
}

TEST(PlanIrTest, PassTogglesAreRecordedAndChangeThePlan) {
  analytics::AnalyticalQuery query = Analyze(CatalogText("MG1"));

  engine::EngineOptions on;
  auto parallel = PlanRapidAnalytics(query, nullptr, on);
  ASSERT_TRUE(parallel.ok());
  engine::EngineOptions off = on;
  off.parallel_agg_join = false;
  auto sequential = PlanRapidAnalytics(query, nullptr, off);
  ASSERT_TRUE(sequential.ok());

  // The parallel-agg-join pass folds both Agg-Joins into one cycle.
  EXPECT_EQ(parallel->EstimatedCycles(), sequential->EstimatedCycles() - 1);
  bool parallel_logged = false, off_logged = false;
  for (const std::string& p : parallel->passes) {
    if (p == "parallel-agg-join") parallel_logged = true;
  }
  for (const std::string& p : sequential->passes) {
    if (p == "parallel-agg-join (off)") off_logged = true;
  }
  EXPECT_TRUE(parallel_logged);
  EXPECT_TRUE(off_logged);

  // Greedy join ordering: cycle-neutral, but recorded on the join nodes.
  engine::EngineOptions greedy = on;
  greedy.greedy_join_order = true;
  auto ordered = PlanHiveNaive(query, nullptr, greedy);
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered->EstimatedCycles(),
            PlanHiveNaive(query, nullptr, on)->EstimatedCycles());
}

TEST(PlanIrTest, FingerprintInvariantUnderVariableRenaming) {
  analytics::AnalyticalQuery original = Analyze(CatalogText("MG1"));
  analytics::AnalyticalQuery renamed = Analyze(kRenamedMg1);
  analytics::AnalyticalQuery different = Analyze(CatalogText("MG2"));

  EXPECT_EQ(CanonicalPlanFingerprint(original),
            CanonicalPlanFingerprint(renamed));
  // MG2 differs only in a constant (ProductType10) — constants are part
  // of the structure, so the fingerprints must differ.
  EXPECT_NE(CanonicalPlanFingerprint(original),
            CanonicalPlanFingerprint(different));
}

TEST(PlanIrTest, PlanCacheHitsOnStructurallyEqualQueries) {
  service::PlanCache cache;
  auto a = cache.GetOrAnalyze(CatalogText("MG1"));
  ASSERT_TRUE(a.ok());
  auto b = cache.GetOrAnalyze(kRenamedMg1);
  ASSERT_TRUE(b.ok());

  // Different surface text: a level-1 (text) miss...
  EXPECT_NE(a->fingerprint, b->fingerprint);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  // ...but the same optimized plan: a level-2 (structural) hit sharing
  // one cached plan object.
  EXPECT_EQ(a->plan_fingerprint, b->plan_fingerprint);
  EXPECT_EQ(cache.plan_hits(), 1u);
  EXPECT_EQ(cache.distinct_plans(), 1u);
  ASSERT_NE(a->optimized, nullptr);
  EXPECT_EQ(a->optimized.get(), b->optimized.get());

  // Resubmitting either text is a plain level-1 hit.
  auto again = cache.GetOrAnalyze(kRenamedMg1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.hits(), 1u);

  // A structurally different query gets its own plan.
  auto other = cache.GetOrAnalyze(CatalogText("MG2"));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache.distinct_plans(), 2u);
  EXPECT_NE(other->plan_fingerprint, a->plan_fingerprint);
}

TEST(PlanIrTest, FallbackPlansCarryTheReason) {
  // R1/R2 are single-grouping; the MQO baseline only rewrites exactly two
  // grouping patterns, so its plan is the naive shape with a reason.
  analytics::AnalyticalQuery query = Analyze(CatalogText("G1"));
  auto plan = PlanHiveMqo(query, nullptr, engine::EngineOptions());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->engine, "Hive (MQO)");
  EXPECT_FALSE(plan->fallback_reason.empty());
  EXPECT_NE(plan->ExplainText().find("fallback:"), std::string::npos);
}

/// An exec running `jobs` trivial map-only jobs over a one-record file,
/// then filling result slot 0 with an empty table.
NodeExec TrivialJobs(int jobs) {
  return [jobs](ExecContext* ctx, const PlanNode& node) -> Status {
    for (int j = 0; j < jobs; ++j) {
      mr::JobConfig job;
      job.name = "n" + std::to_string(node.id) + ":job" + std::to_string(j);
      job.inputs = {"gate:in"};
      job.output = "gate:out" + std::to_string(j);
      job.map = [](const mr::Record& r, int, mr::MapContext* mc) {
        mc->Emit(r.key(), r.value());
      };
      RAPIDA_RETURN_IF_ERROR(ctx->cluster->Run(job).status());
    }
    (*ctx->results)[0] = analytics::BindingTable();
    return Status::OK();
  };
}

StatusOr<analytics::BindingTable> RunHandBuilt(const PhysicalPlan& plan) {
  rdf::Graph graph;
  graph.AddIri("s", "p", "o");
  engine::Dataset dataset(std::move(graph));
  mr::RecordBatch batch;
  batch.Add("k", "v");
  EXPECT_TRUE(dataset.dfs().Write("gate:in", std::move(batch)).ok());
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());
  return ExecutePlan(plan, &dataset, &cluster, engine::EngineOptions());
}

TEST(PlanIrTest, CycleGateRejectsANodeRunningMoreJobsThanItEstimates) {
  PhysicalPlan plan;
  plan.engine = "hand-built";
  PlanNode& node = plan.AddNode(OpKind::kStarJoin, "g0", "g0: one cycle", 1);
  node.exec = TrivialJobs(2);

  auto result = RunHandBuilt(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kInternal);
  EXPECT_NE(result.status().message().find("#0"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("StarJoin"), std::string::npos)
      << result.status();
}

TEST(PlanIrTest, CycleGateRejectsACostedNodeWithoutAnExec) {
  PhysicalPlan plan;
  plan.engine = "hand-built";
  plan.AddNode(OpKind::kNSplitAlphaJoin, "g0", "g0: costed, no exec", 1);
  PlanNode& node = plan.AddNode(OpKind::kExpandBindings, "g0",
                                "g0: runs the cycle before it and its own", 1);
  node.inputs = {0};
  node.exec = TrivialJobs(2);

  auto result = RunHandBuilt(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kInternal);
  EXPECT_NE(result.status().message().find("#0"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("NSplitAlphaJoin"),
            std::string::npos)
      << result.status();
}

engine::Dataset* CatalogDataset(const std::string& name) {
  static auto* cache =
      new std::map<std::string, std::unique_ptr<engine::Dataset>>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second.get();
  rdf::Graph g;
  if (name == "bsbm") {
    workload::BsbmConfig cfg;
    cfg.num_products = 60;
    g = workload::GenerateBsbm(cfg);
  } else if (name == "chem") {
    workload::ChemConfig cfg;
    cfg.num_assays = 60;
    cfg.num_publications = 120;
    g = workload::GenerateChem2Bio(cfg);
  } else {
    workload::PubmedConfig cfg;
    cfg.num_publications = 60;
    g = workload::GeneratePubmed(cfg);
  }
  return cache->emplace(name, std::make_unique<engine::Dataset>(std::move(g)))
      .first->second.get();
}

TEST(PlanIrTest, EveryCostedNodeOwnsItsExec) {
  engine::EngineOptions sequential;
  sequential.parallel_agg_join = false;
  engine::EngineOptions greedy;
  greedy.greedy_join_order = true;
  for (const workload::CatalogQuery& cq : workload::Catalog()) {
    analytics::AnalyticalQuery query = Analyze(cq.sparql);
    engine::Dataset* dataset = CatalogDataset(cq.dataset);
    for (const char* engine : {"Hive (Naive)", "Hive (MQO)",
                               "RAPID+ (Naive)", "RAPIDAnalytics"}) {
      for (const engine::EngineOptions& options :
           {engine::EngineOptions(), sequential, greedy}) {
        auto plan = PlanForEngine(engine, query, dataset, options);
        ASSERT_TRUE(plan.ok()) << cq.id << " on " << engine << ": "
                               << plan.status();
        for (const PlanNode& n : plan->nodes) {
          EXPECT_TRUE(n.est_cycles == 0 || n.exec)
              << cq.id << " on " << engine << ": node #" << n.id << " ("
              << OpKindName(n.kind) << ") costs " << n.est_cycles
              << " cycle(s) but has no exec";
        }
      }
    }
  }
}

/// Plans each of `ids` (BSBM catalog queries) on each of `engines` with
/// default options, then executes every plan under the default options and
/// under `flipped`, whose toggles contradict the choices the plan records:
/// the execs must follow the nodes, so the rows and every job (name,
/// records, bytes, sim_seconds) must be the same under both.
void ExpectExecutionFollowsThePlan(const std::vector<const char*>& ids,
                                   const std::vector<const char*>& engines,
                                   const engine::EngineOptions& flipped) {
  engine::Dataset* dataset = CatalogDataset("bsbm");
  for (const char* id : ids) {
    analytics::AnalyticalQuery query = Analyze(CatalogText(id));
    for (const char* engine : engines) {
      std::vector<analytics::BindingTable> results;
      std::vector<std::vector<mr::JobStats>> jobs;
      for (const engine::EngineOptions& options :
           {engine::EngineOptions(), flipped}) {
        auto plan =
            PlanForEngine(engine, query, dataset, engine::EngineOptions());
        ASSERT_TRUE(plan.ok()) << plan.status();
        mr::Cluster cluster(mr::ClusterConfig{}, &dataset->dfs());
        auto result = ExecutePlan(*plan, dataset, &cluster, options);
        ASSERT_TRUE(result.ok()) << id << " on " << engine << ": "
                                 << result.status();
        results.push_back(std::move(*result));
        jobs.push_back(cluster.history());
      }
      EXPECT_EQ(results[0].vars(), results[1].vars()) << id << " " << engine;
      EXPECT_EQ(RowsOf(results[0]), RowsOf(results[1])) << id << " " << engine;
      ASSERT_EQ(jobs[0].size(), jobs[1].size()) << id << " " << engine;
      for (size_t j = 0; j < jobs[0].size(); ++j) {
        const mr::JobStats& a = jobs[0][j];
        const mr::JobStats& b = jobs[1][j];
        SCOPED_TRACE(std::string(id) + " on " + engine + ", job " + a.name);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.input_records, b.input_records);
        EXPECT_EQ(a.input_bytes, b.input_bytes);
        EXPECT_EQ(a.shuffle_records, b.shuffle_records);
        EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
        EXPECT_EQ(a.output_records, b.output_records);
        EXPECT_EQ(a.output_bytes, b.output_bytes);
        EXPECT_EQ(a.sim_seconds, b.sim_seconds);
      }
    }
  }
}

TEST(PlanIrTest, NtgaExecutionFollowsThePlanNotTheOptions) {
  // The NTGA execs must follow the nodes (parallel region, map_side_agg,
  // order), not these.
  engine::EngineOptions flipped;
  flipped.parallel_agg_join = false;
  flipped.partial_aggregation = false;
  flipped.greedy_join_order = true;
  ExpectExecutionFollowsThePlan({"MG1", "MG3"},
                                {"RAPID+ (Naive)", "RAPIDAnalytics"}, flipped);
}

TEST(PlanIrTest, RelationalExecutionFollowsThePlanNotTheOptions) {
  // The relational execs must follow the nodes (`join`, `map_side_agg`),
  // not these: MG1's star joins broadcast and its GroupBys pre-aggregate
  // as planned, and so do MG-OPT's OPTIONAL left joins.
  engine::EngineOptions flipped;
  flipped.enable_map_joins = false;
  flipped.partial_aggregation = false;
  ExpectExecutionFollowsThePlan({"MG1", "MG-OPT"},
                                {"Hive (Naive)", "Hive (MQO)"}, flipped);
}

}  // namespace
}  // namespace rapida::plan
