// Property-style invariant sweeps (parameterized over seeds / shapes):
//
//  * composite + n-split ≡ direct evaluation of the original patterns,
//  * the four engines agree with the reference on randomized datasets,
//  * map-side pre-aggregation and combiners never change answers,
//  * partial aggregate merging is order-insensitive.
#include <gtest/gtest.h>

#include <span>

#include "analytics/aggregates.h"
#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "ntga/operators.h"
#include "sparql/parser.h"
#include "util/random.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"

namespace rapida {
namespace {

// ---------------------------------------------------------------------------
// Invariant 1: evaluating the composite pattern and extracting per-pattern
// answers (α + binding expansion) equals evaluating each original pattern
// directly, on randomized graphs.
// ---------------------------------------------------------------------------

class CompositeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompositeEquivalenceTest, CompositeMatchesDirectEvaluation) {
  // Random small product/offer graph.
  Random rng(GetParam());
  rdf::Graph graph;
  int n_products = 5 + static_cast<int>(rng.Uniform(15));
  for (int p = 0; p < n_products; ++p) {
    std::string prod = "p" + std::to_string(p);
    graph.AddIri(prod, rdf::kRdfType, rng.Bernoulli(0.7) ? "T1" : "T2");
    if (rng.Bernoulli(0.8)) graph.AddLit(prod, "label", "l" + prod);
    int feats = static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < feats; ++f) {
      graph.AddIri(prod, "feature",
                   "f" + std::to_string(rng.Uniform(4)));
    }
  }
  int n_offers = 10 + static_cast<int>(rng.Uniform(30));
  for (int o = 0; o < n_offers; ++o) {
    std::string off = "o" + std::to_string(o);
    graph.AddIri(off, "product",
                 "p" + std::to_string(rng.Uniform(n_products)));
    graph.AddInt(off, "price", 10 + static_cast<int64_t>(rng.Uniform(90)));
    if (rng.Bernoulli(0.5)) graph.AddIri(off, "seller", "s1");
  }

  const char* kGp1 =
      "SELECT ?f { ?p a <T1> ; <feature> ?f . "
      "?o <product> ?p ; <price> ?pr . }";
  const char* kGp2 =
      "SELECT ?pr { ?p a <T1> . ?o <product> ?p ; <price> ?pr ; "
      "<seller> ?s . }";

  auto q1 = sparql::ParseQuery(kGp1);
  auto q2 = sparql::ParseQuery(kGp2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto gp1 = ntga::DecomposeToStars((*q1)->where.triples);
  auto gp2 = ntga::DecomposeToStars((*q2)->where.triples);
  ASSERT_TRUE(gp1.ok() && gp2.ok());

  ntga::OverlapResult overlap = ntga::FindOverlap(*gp1, *gp2);
  ASSERT_TRUE(overlap.overlaps) << overlap.explanation;
  auto comp = ntga::BuildComposite(*gp1, *gp2, overlap);
  ASSERT_TRUE(comp.ok());
  ntga::ResolvedPattern resolved =
      ntga::ResolvePattern(*comp, graph.dict());

  // Composite evaluation with the in-memory operators.
  std::vector<ntga::NestedTripleGroup> stars0, stars1;
  graph.ForEachSubject([&](rdf::TermId subject,
                           std::span<const rdf::Triple> triples) {
    ntga::TripleGroup tg;
    tg.subject = subject;
    tg.triples.assign(triples.begin(), triples.end());
    for (int s = 0; s < 2; ++s) {
      auto filtered =
          ntga::FilterStar(tg, resolved.stars[s], resolved.type_id);
      if (!filtered.has_value()) continue;
      ntga::NestedTripleGroup ntg;
      ntg.stars.resize(2);
      ntg.stars[s] = std::move(*filtered);
      (s == 0 ? stars0 : stars1).push_back(std::move(ntg));
    }
  });
  std::vector<ntga::NestedTripleGroup> joined = ntga::AlphaJoin(
      stars1, stars0, resolved.joins[0], {}, resolved.type_id);

  // Extract per-pattern bindings and compare with the reference.
  analytics::ReferenceEvaluator ref(&graph);
  for (int pattern = 0; pattern < 2; ++pattern) {
    ntga::AlphaCondition alpha;
    for (const auto& [star, keys] : resolved.pattern_secondary[pattern]) {
      for (const ntga::DataPropKey& k : keys) {
        alpha.push_back({star, k, true});
      }
    }
    std::vector<std::string> vars;
    for (const auto& [orig, comp_var] : comp->var_map[pattern]) {
      if (std::find(vars.begin(), vars.end(), comp_var) == vars.end()) {
        vars.push_back(comp_var);
      }
    }
    std::multiset<std::vector<rdf::TermId>> composite_rows;
    for (const ntga::NestedTripleGroup& ntg : joined) {
      if (!ntga::SatisfiesAlpha(ntg, alpha, resolved.type_id)) continue;
      for (auto& row :
           ntga::ExpandBindings(ntg, resolved, vars, true)) {
        composite_rows.insert(row);
      }
    }
    // Direct evaluation of the original pattern, projected through the
    // var map onto the same composite variable order.
    auto& original = pattern == 0 ? *q1 : *q2;
    auto direct = ref.EvaluatePattern(original->where);
    ASSERT_TRUE(direct.ok());
    std::multiset<std::vector<rdf::TermId>> direct_rows;
    std::vector<int> cols;
    for (const std::string& comp_var : vars) {
      std::string orig_var;
      for (const auto& [o, c] : comp->var_map[pattern]) {
        if (c == comp_var) orig_var = o;
      }
      cols.push_back(direct->VarIndex(orig_var));
    }
    for (const auto& row : direct->rows()) {
      std::vector<rdf::TermId> projected;
      for (int c : cols) {
        projected.push_back(c < 0 ? rdf::kInvalidTermId : row[c]);
      }
      direct_rows.insert(std::move(projected));
    }
    EXPECT_EQ(composite_rows, direct_rows)
        << "pattern " << pattern << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// Invariant 2: all four engines match the reference on randomized BSBM
// datasets and a rotating catalog query.
// ---------------------------------------------------------------------------

struct EngineSweepCase {
  uint64_t seed;
  const char* query;
};

class EngineAgreementSweep
    : public ::testing::TestWithParam<EngineSweepCase> {};

TEST_P(EngineAgreementSweep, EnginesMatchReference) {
  workload::BsbmConfig cfg;
  cfg.seed = GetParam().seed;
  cfg.num_products = 120 + (GetParam().seed % 5) * 60;
  cfg.num_features = 10 + (GetParam().seed % 3) * 10;
  engine::Dataset dataset(workload::GenerateBsbm(cfg));
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());

  auto cq = workload::FindQuery(GetParam().query);
  ASSERT_TRUE(cq.ok());
  auto parsed = sparql::ParseQuery((*cq)->sparql);
  ASSERT_TRUE(parsed.ok());
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok());

  analytics::ReferenceEvaluator ref(&dataset.graph());
  auto expected = ref.Evaluate(**parsed);
  ASSERT_TRUE(expected.ok());
  auto expected_rows = expected->ToSortedStrings(dataset.dict());

  for (const auto& eng : engine::MakeAllEngines()) {
    engine::ExecStats stats;
    auto result = eng->Execute(*query, &dataset, &cluster, &stats);
    if (!result.ok()) {
      ADD_FAILURE() << eng->name() << ": " << result.status();
      continue;
    }
    EXPECT_EQ(result->ToSortedStrings(dataset.dict()), expected_rows)
        << eng->name() << " seed " << GetParam().seed << " query "
        << GetParam().query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementSweep,
    ::testing::Values(EngineSweepCase{101, "G1"}, EngineSweepCase{102, "G3"},
                      EngineSweepCase{103, "MG1"},
                      EngineSweepCase{104, "MG3"},
                      EngineSweepCase{105, "AQ1"},
                      EngineSweepCase{106, "R1"},
                      EngineSweepCase{107, "MG2"},
                      EngineSweepCase{108, "MG4"}),
    [](const ::testing::TestParamInfo<EngineSweepCase>& info) {
      return std::string(info.param.query) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Invariant 3: optimization knobs never change answers.
// ---------------------------------------------------------------------------

TEST(OptimizationInvarianceTest, KnobsNeverChangeAnswers) {
  workload::BsbmConfig cfg;
  cfg.num_products = 250;
  engine::Dataset dataset(workload::GenerateBsbm(cfg));
  mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());

  for (const char* qid : {"MG1", "MG3", "R1"}) {
    auto cq = workload::FindQuery(qid);
    auto parsed = sparql::ParseQuery((*cq)->sparql);
    auto query = analytics::AnalyzeQuery(**parsed);
    ASSERT_TRUE(query.ok());

    std::vector<engine::EngineOptions> variants;
    engine::EngineOptions base;
    variants.push_back(base);
    engine::EngineOptions no_partial = base;
    no_partial.partial_aggregation = false;
    variants.push_back(no_partial);
    engine::EngineOptions no_mapjoin = base;
    no_mapjoin.enable_map_joins = false;
    variants.push_back(no_mapjoin);
    engine::EngineOptions sequential = base;
    sequential.parallel_agg_join = false;
    variants.push_back(sequential);
    engine::EngineOptions big_threshold = base;
    big_threshold.map_join_threshold_bytes = 100 * 1024 * 1024;
    variants.push_back(big_threshold);
    engine::EngineOptions greedy = base;
    greedy.greedy_join_order = true;
    variants.push_back(greedy);

    std::vector<std::string> baseline;
    for (size_t v = 0; v < variants.size(); ++v) {
      for (const auto& eng : engine::MakeAllEngines(variants[v])) {
        engine::ExecStats stats;
        auto result = eng->Execute(*query, &dataset, &cluster, &stats);
        ASSERT_TRUE(result.ok())
            << qid << " variant " << v << " " << eng->name() << ": "
            << result.status();
        auto rows = result->ToSortedStrings(dataset.dict());
        if (baseline.empty()) {
          baseline = rows;
        } else {
          EXPECT_EQ(rows, baseline)
              << qid << " variant " << v << " on " << eng->name();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant 4: partial-aggregate merging is order- and split-insensitive.
// ---------------------------------------------------------------------------

class AggregatorMergeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatorMergeSweep, AnyPartitioningMergesToSameResult) {
  Random rng(GetParam());
  rdf::Dictionary dict;
  std::vector<rdf::TermId> values;
  int n = 1 + static_cast<int>(rng.Uniform(60));
  for (int i = 0; i < n; ++i) {
    values.push_back(dict.InternInt(rng.UniformRange(-50, 50)));
  }
  for (sparql::AggFunc f :
       {sparql::AggFunc::kCount, sparql::AggFunc::kSum,
        sparql::AggFunc::kAvg, sparql::AggFunc::kMin,
        sparql::AggFunc::kMax, sparql::AggFunc::kSample,
        sparql::AggFunc::kGroupConcat}) {
    analytics::Aggregator whole(f, false);
    for (rdf::TermId v : values) whole.AddTerm(v, dict);

    // Random partitioning into up to 5 parts, merged in random order,
    // with a serialization round trip in the middle.
    int parts = 1 + static_cast<int>(rng.Uniform(5));
    std::vector<analytics::Aggregator> partial(
        parts, analytics::Aggregator(f, false));
    // (GROUP_CONCAT's canonical sorted order makes it partition-
    // insensitive too.)
    for (rdf::TermId v : values) {
      partial[rng.Uniform(parts)].AddTerm(v, dict);
    }
    analytics::Aggregator merged(f, false);
    while (!partial.empty()) {
      size_t pick = rng.Uniform(partial.size());
      auto restored = analytics::Aggregator::DeserializePartial(
          f, partial[pick].SerializePartial());
      ASSERT_TRUE(restored.ok());
      merged.Merge(*restored, dict);
      partial.erase(partial.begin() + pick);
    }
    EXPECT_EQ(merged.Finalize(&dict), whole.Finalize(&dict))
        << "func " << static_cast<int>(f) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatorMergeSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace rapida
