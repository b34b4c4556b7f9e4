// The dataset-free plan (what EXPLAIN and `rapida_cli --plan` show before
// any data is loaded) must agree with the engines' executed workflows: for
// EVERY catalog query and EVERY engine, its estimated cycle count ==
// executed cycle count.
#include <gtest/gtest.h>

#include "engines/engines.h"
#include "plan/planner.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace rapida::engine {
namespace {

Dataset* DatasetFor(const std::string& name) {
  static auto* cache = new std::map<std::string, std::unique_ptr<Dataset>>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second.get();
  rdf::Graph g;
  if (name == "bsbm") {
    workload::BsbmConfig cfg;
    cfg.num_products = 200;
    g = workload::GenerateBsbm(cfg);
  } else if (name == "chem") {
    workload::ChemConfig cfg;
    cfg.num_assays = 300;
    cfg.num_publications = 800;
    g = workload::GenerateChem2Bio(cfg);
  } else {
    workload::PubmedConfig cfg;
    cfg.num_publications = 300;
    g = workload::GeneratePubmed(cfg);
  }
  return cache->emplace(name, std::make_unique<Dataset>(std::move(g)))
      .first->second.get();
}

class PlanPreviewMatchesExecution
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanPreviewMatchesExecution, CyclesAgree) {
  auto cq = workload::FindQuery(GetParam());
  ASSERT_TRUE(cq.ok());
  auto parsed = sparql::ParseQuery((*cq)->sparql);
  ASSERT_TRUE(parsed.ok());
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok());
  Dataset* dataset = DatasetFor((*cq)->dataset);
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset->dfs());

  for (const auto& eng : MakeAllEngines()) {
    auto physical = plan::PlanForEngine(eng->name(), *query, nullptr, {});
    ASSERT_TRUE(physical.ok()) << eng->name() << ": " << physical.status();
    ExecStats stats;
    auto result = eng->Execute(*query, dataset, &cluster, &stats);
    ASSERT_TRUE(result.ok()) << eng->name() << ": " << result.status();
    EXPECT_EQ(physical->EstimatedCycles(), stats.workflow.NumCycles())
        << GetParam() << " on " << eng->name() << "\nplan:\n"
        << physical->ExplainText();
  }
}

std::vector<std::string> AllIds() {
  std::vector<std::string> out;
  for (const auto& q : workload::Catalog()) out.push_back(q.id);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Catalog, PlanPreviewMatchesExecution,
                         ::testing::ValuesIn(AllIds()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           // Test names must be identifiers: MG-OPT -> MG_OPT.
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// The dataset-free plan's per-cycle lines, as `rapida_cli --plan` prints
/// them.
std::string CycleLines(const plan::PhysicalPlan& physical) {
  std::string out;
  int cycle = 0;
  for (const plan::PlanNode& n : physical.nodes) {
    for (int c = 0; c < n.est_cycles; ++c) {
      out += "MR" + std::to_string(++cycle) + "  " + n.describe + "\n";
    }
  }
  return out;
}

TEST(PlanPreviewTest, CycleLinesNameTheParallelAggJoin) {
  auto cq = workload::FindQuery("MG1");
  auto parsed = sparql::ParseQuery((*cq)->sparql);
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok());
  auto physical = plan::PlanForEngine("RAPIDAnalytics", *query, nullptr, {});
  ASSERT_TRUE(physical.ok()) << physical.status();
  EXPECT_EQ(physical->EstimatedCycles(), 3);
  std::string s = CycleLines(*physical);
  EXPECT_NE(s.find("MR1"), std::string::npos) << s;
  EXPECT_NE(s.find("parallel TG Agg-Join"), std::string::npos) << s;
  EXPECT_NE(s.find("2 grouping-aggregations"), std::string::npos) << s;
}

TEST(PlanPreviewTest, CyclesOfAllFourEngines) {
  auto cq = workload::FindQuery("MG3");
  auto parsed = sparql::ParseQuery((*cq)->sparql);
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok());
  auto cycles = [&](const char* engine) {
    auto physical = plan::PlanForEngine(engine, *query, nullptr, {});
    EXPECT_TRUE(physical.ok()) << engine << ": " << physical.status();
    return physical.ok() ? physical->EstimatedCycles() : -1;
  };
  EXPECT_EQ(cycles("Hive (Naive)"), 11);
  EXPECT_EQ(cycles("RAPID+ (Naive)"), 7);
  EXPECT_EQ(cycles("RAPIDAnalytics"), 4);
}

}  // namespace
}  // namespace rapida::engine
