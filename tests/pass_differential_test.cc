// Pass on/off divergence gate: flipping any optimizer pass toggle must
// change the plan shape at most — never the results. Every configuration
// runs all four engines over a catalog cross-section and compares against
// the reference evaluator byte-for-byte.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace rapida::engine {
namespace {

rdf::Graph SmallGraphFor(const std::string& dataset) {
  if (dataset == "bsbm") {
    workload::BsbmConfig cfg;
    cfg.num_products = 300;
    cfg.offers_per_product = 2.5;
    return workload::GenerateBsbm(cfg);
  }
  if (dataset == "chem") {
    workload::ChemConfig cfg;
    cfg.num_assays = 500;
    cfg.num_publications = 1200;
    return workload::GenerateChem2Bio(cfg);
  }
  workload::PubmedConfig cfg;
  cfg.num_publications = 500;
  cfg.mesh_per_publication = 3.0;
  cfg.chemicals_per_publication = 2.0;
  return workload::GeneratePubmed(cfg);
}

Dataset* DatasetFor(const std::string& name) {
  static auto* cache = new std::map<std::string, std::unique_ptr<Dataset>>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name,
                        std::make_unique<Dataset>(SmallGraphFor(name)))
             .first;
  }
  return it->second.get();
}

struct PassConfig {
  std::string name;
  EngineOptions options;
};

std::vector<PassConfig> AllConfigs() {
  std::vector<PassConfig> configs;
  configs.push_back({"default", EngineOptions()});
  {
    EngineOptions o;
    o.enable_map_joins = false;
    configs.push_back({"no_map_joins", o});
  }
  {
    EngineOptions o;
    o.partial_aggregation = false;
    configs.push_back({"no_partial_agg", o});
  }
  {
    EngineOptions o;
    o.parallel_agg_join = false;
    configs.push_back({"no_parallel_agg_join", o});
  }
  {
    EngineOptions o;
    o.greedy_join_order = true;
    configs.push_back({"greedy_join_order", o});
  }
  {
    EngineOptions o;
    o.factorized_intermediates = false;
    configs.push_back({"no_factorize", o});
  }
  return configs;
}

/// Cross-section: single-grouping, multi-grouping on every dataset, the
/// analytical join, and both relational-operator queries.
const std::string kQueryIds[] = {"G1", "G3", "MG1", "MG3", "MG9",
                                 "AQ1", "R1", "R2"};

class PassDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PassDifferentialTest, AllTogglesPreserveResults) {
  auto cq = workload::FindQuery(GetParam());
  ASSERT_TRUE(cq.ok()) << cq.status();
  Dataset* dataset = DatasetFor((*cq)->dataset);

  auto parsed = sparql::ParseQuery((*cq)->sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok()) << query.status();

  analytics::ReferenceEvaluator ref(&dataset->graph());
  auto expected = ref.Evaluate(**parsed);
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::vector<std::string> expected_rows =
      expected->ToSortedStrings(dataset->dict());
  ASSERT_GT(expected_rows.size(), 0u) << GetParam();

  mr::Cluster cluster(mr::ClusterConfig{}, &dataset->dfs());
  for (const PassConfig& cfg : AllConfigs()) {
    for (const auto& eng : MakeAllEngines(cfg.options)) {
      ExecStats stats;
      auto result = eng->Execute(*query, dataset, &cluster, &stats);
      if (!result.ok()) {
        ADD_FAILURE() << GetParam() << " [" << cfg.name << "] on "
                      << eng->name() << ": " << result.status();
        continue;
      }
      EXPECT_EQ(result->ToSortedStrings(dataset->dict()), expected_rows)
          << GetParam() << " diverged on " << eng->name()
          << " with passes=" << cfg.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CrossSection, PassDifferentialTest,
                         ::testing::ValuesIn(kQueryIds),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace rapida::engine
