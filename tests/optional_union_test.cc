// OPTIONAL / UNION end-to-end coverage: left star-join and union-arm
// semantics proven byte-identical across all four engines and the
// reference evaluator over the exec_threads x combine x shards matrix,
// the analyzer's typed rejections for every out-of-scope shape, the
// printer round-trip the shrinker depends on, the normalizer's
// unbound-vs-empty-literal distinction, and a biased differential fuzz
// smoke pass (`--grammar=opt-union` in miniature).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "plan/planner.h"
#include "sparql/parser.h"
#include "testing/differential.h"
#include "testing/normalize.h"
#include "testing/query_gen.h"
#include "util/random.h"

namespace rapida {
namespace {

using difftest::CompareNormalized;
using difftest::GenOptions;
using difftest::Normalize;
using difftest::NormalizedCell;
using difftest::NormalizedTable;

// ---------------------------------------------------------------------------
// Shared fixture graph. p5 has no feature and o3/o7 have prices below 100,
// so OPTIONAL tails genuinely leave cells unbound (the whole point).

rdf::Graph BuildGraph() {
  rdf::Graph g;
  const char* products[] = {"p1", "p2", "p3", "p4", "p5"};
  const char* types[] = {"PT1", "PT1", "PT1", "PT2", "PT2"};
  for (int i = 0; i < 5; ++i) {
    g.AddIri(products[i], rdf::kRdfType, types[i]);
    g.AddLit(products[i], "label", std::string("label") + products[i]);
  }
  g.AddIri("p1", "feature", "f1");
  g.AddIri("p1", "feature", "f2");
  g.AddIri("p2", "feature", "f1");
  g.AddIri("p3", "feature", "f3");
  g.AddIri("p4", "feature", "f2");
  // p5 has no feature.
  struct Offer {
    const char* id;
    const char* product;
    int price;
    const char* vendor;
  };
  Offer offers[] = {
      {"o1", "p1", 100, "v1"}, {"o2", "p1", 250, "v2"},
      {"o3", "p2", 80, "v1"},  {"o4", "p3", 300, "v3"},
      {"o5", "p4", 120, "v2"}, {"o6", "p5", 500, "v3"},
      {"o7", "p2", 90, "v2"},
  };
  for (const Offer& o : offers) {
    g.AddIri(o.id, "product", o.product);
    g.AddInt(o.id, "price", o.price);
    g.AddIri(o.id, "vendor", o.vendor);
  }
  g.AddIri("v1", "country", "DE");
  g.AddIri("v2", "country", "US");
  g.AddIri("v3", "country", "DE");
  return g;
}

// GROUP BY over an optionally-bound variable: p5's offers land in the
// unbound-feature group, so the result carries an UNBOUND group key.
constexpr char kOptGroupKey[] = R"(
  SELECT ?f (COUNT(?o) AS ?cnt) (SUM(?pr) AS ?total) {
    ?o <product> ?p . ?o <price> ?pr .
    OPTIONAL { ?p <feature> ?f }
  } GROUP BY ?f
)";

// Optional-local filter plus a post-filter over the optional variable:
// offers under 100 keep ?pr2 unbound, and the post-filter then drops them
// (comparison against unbound is an error, i.e. effective-false).
constexpr char kOptPostFilter[] = R"(
  SELECT ?p (COUNT(?o) AS ?cnt) {
    ?o <product> ?p . ?o <vendor> ?v .
    OPTIONAL { ?o <price> ?pr2 . FILTER(?pr2 >= 100) }
    FILTER(?pr2 <= 300)
  } GROUP BY ?p
)";

// Two OPTIONAL tails off different stars of the required pattern.
constexpr char kOptTwoTails[] = R"(
  SELECT ?v (COUNT(?o) AS ?cnt) (MIN(?pr) AS ?mn) {
    ?o <product> ?p . ?o <price> ?pr . ?o <vendor> ?v .
    OPTIONAL { ?p <feature> ?f }
    OPTIONAL { ?v <country> ?c }
  } GROUP BY ?v
)";

// Two constant-pinned union arms over the same star.
constexpr char kUnionTwoArms[] = R"(
  SELECT ?p (COUNT(?o) AS ?cnt) (SUM(?pr) AS ?total) {
    ?o <product> ?p . ?o <price> ?pr .
    { ?o <vendor> <v1> } UNION { ?o <vendor> <v2> }
  } GROUP BY ?p
)";

// Three arms: a fresh-variable arm, a star-extending arm with its own
// filter, and a constant-object arm; plus a group OPTIONAL that join
// distribution must replicate into every branch.
constexpr char kUnionThreeArms[] = R"(
  SELECT ?v (COUNT(?o) AS ?cnt) {
    ?o <product> ?p . ?o <vendor> ?v .
    OPTIONAL { ?p <feature> ?f }
    { ?p <label> ?l }
    UNION { ?o <price> ?pr . FILTER(?pr >= 100) }
    UNION { ?p <feature> <f1> }
  } GROUP BY ?v
)";

const char* AllQueries[] = {kOptGroupKey, kOptPostFilter, kOptTwoTails,
                            kUnionTwoArms, kUnionThreeArms};

NormalizedTable ReferenceResult(const std::string& query_text,
                                rdf::Graph* graph) {
  auto parsed = sparql::ParseQuery(query_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  analytics::ReferenceEvaluator ref(graph);
  auto expected = ref.Evaluate(**parsed);
  EXPECT_TRUE(expected.ok()) << expected.status();
  return Normalize(*expected, graph->dict());
}

// ---------------------------------------------------------------------------
// Semantics matrix: every engine must reproduce the reference multiset for
// every query at threads {1,4,8} x combine on/off x shards {1,4}.

TEST(OptionalUnionMatrixTest, AllEnginesMatchReferenceAcrossMatrix) {
  rdf::Graph ref_graph = BuildGraph();
  for (const char* query_text : AllQueries) {
    NormalizedTable expected = ReferenceResult(query_text, &ref_graph);
    ASSERT_FALSE(expected.rows.empty()) << query_text;

    auto parsed = sparql::ParseQuery(query_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto analyzed = analytics::AnalyzeQuery(**parsed);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();

    for (int shards : {1, 4}) {
      for (bool combine : {true, false}) {
        engine::EngineOptions options;
        options.partial_aggregation = combine;
        options.num_shards = shards;
        for (int threads : {1, 4, 8}) {
          engine::Dataset dataset(BuildGraph());
          mr::ClusterConfig config;
          config.exec_threads = threads;
          config.exec_split_bytes = 4 * 1024;
          config.num_shards = shards;
          mr::Cluster cluster(config, &dataset.dfs());
          for (const auto& eng : engine::MakeAllEngines(options)) {
            engine::ExecStats stats;
            auto result =
                eng->Execute(*analyzed, &dataset, &cluster, &stats);
            std::string label = eng->name() +
                                " threads=" + std::to_string(threads) +
                                " combine=" + (combine ? "on" : "off") +
                                " shards=" + std::to_string(shards);
            ASSERT_TRUE(result.ok()) << label << ": " << result.status();
            std::string diff = CompareNormalized(
                expected, Normalize(*result, dataset.dict()));
            EXPECT_EQ(diff, "") << label << " on:\n" << query_text;
          }
        }
      }
    }
  }
}

// The plan IR must promise exactly the cycles the engine then spends, on
// the new left-join / union node shapes too.
TEST(OptionalUnionMatrixTest, PlanCyclesEstimatedEqualsExecuted) {
  for (const char* query_text : AllQueries) {
    auto parsed = sparql::ParseQuery(query_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto analyzed = analytics::AnalyzeQuery(**parsed);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    for (int threads : {1, 8}) {
      engine::Dataset dataset(BuildGraph());
      mr::ClusterConfig config;
      config.exec_threads = threads;
      mr::Cluster cluster(config, &dataset.dfs());
      engine::EngineOptions options;
      for (const auto& eng : engine::MakeAllEngines(options)) {
        engine::ExecStats stats;
        auto result = eng->Execute(*analyzed, &dataset, &cluster, &stats);
        ASSERT_TRUE(result.ok()) << eng->name() << ": " << result.status();
        auto physical = plan::PlanForEngine(eng->name(), *analyzed,
                                            &dataset, options);
        ASSERT_TRUE(physical.ok()) << eng->name() << ": "
                                   << physical.status();
        EXPECT_EQ(physical->EstimatedCycles(), stats.workflow.NumCycles())
            << eng->name() << " threads=" << threads << " on:\n"
            << query_text;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Analyzer rejections: every out-of-scope OPTIONAL/UNION shape must fail
// with a Status naming the construct (satellite: typed rejection tests).

void ExpectReject(const std::string& query_text,
                  const std::string& substring) {
  auto parsed = sparql::ParseQuery(query_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << query_text;
  auto analyzed = analytics::AnalyzeQuery(**parsed);
  ASSERT_FALSE(analyzed.ok()) << "analyzer accepted:\n" << query_text;
  EXPECT_NE(analyzed.status().ToString().find(substring), std::string::npos)
      << "status was: " << analyzed.status().ToString()
      << "\nexpected to mention: " << substring;
}

TEST(OptionalUnionRejectTest, OptionalInsideOptional) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { ?p <feature> ?f . OPTIONAL { ?p <label> ?l } }
    } GROUP BY ?p
  )", "OPTIONAL nested inside OPTIONAL is outside the analytical subset");
}

TEST(OptionalUnionRejectTest, UnionInsideOptional) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { ?p <feature> ?f .
                 { ?p <label> ?l } UNION { ?p a ?t } }
    } GROUP BY ?p
  )", "UNION nested inside OPTIONAL is outside the analytical subset");
}

TEST(OptionalUnionRejectTest, SubqueryInsideOptional) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { { SELECT ?x (COUNT(?y) AS ?cy) { ?x <feature> ?y }
                   GROUP BY ?x } }
    } GROUP BY ?p
  )", "subqueries inside OPTIONAL are outside the analytical subset");
}

TEST(OptionalUnionRejectTest, EmptyOptional) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { }
    } GROUP BY ?p
  )", "an OPTIONAL block needs at least one triple pattern");
}

TEST(OptionalUnionRejectTest, OptionalMustBeSingleStar) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { ?p <feature> ?f . ?f <label> ?fl }
    } GROUP BY ?p
  )", "an OPTIONAL block must be a single subject-rooted star");
}

TEST(OptionalUnionRejectTest, OptionalSubjectMustBeBound) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      OPTIONAL { ?z <feature> ?f }
    } GROUP BY ?p
  )", "OPTIONAL subject ?z must be bound by the required graph pattern");
}

TEST(OptionalUnionRejectTest, OptionalObjectVarsMustBeFresh) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p . ?p <feature> ?f .
      OPTIONAL { ?p <label> ?f }
    } GROUP BY ?p
  )", "OPTIONAL variable ?f is already bound outside its OPTIONAL block");
}

TEST(OptionalUnionRejectTest, OptionalFilterMustBeLocal) {
  ExpectReject(R"(
    SELECT ?p (COUNT(?o) AS ?c) {
      ?o <product> ?p . ?o <price> ?pr .
      OPTIONAL { ?p <feature> ?f . FILTER(?pr >= 100) }
    } GROUP BY ?p
  )", "OPTIONAL FILTER variable ?pr is not bound inside the OPTIONAL block");
}

TEST(OptionalUnionRejectTest, EmptyUnionArm) {
  ExpectReject(R"(
    SELECT (COUNT(?x) AS ?c) {
      { } UNION { ?a <feature> ?x }
    }
  )", "a UNION arm (together with the required pattern) needs at least "
      "one triple pattern");
}

TEST(OptionalUnionRejectTest, SingleArmUnionAst) {
  // The parser can never produce a 1-arm union; build one by mutating a
  // parsed AST to prove the analyzer still guards the invariant.
  auto parsed = sparql::ParseQuery(R"(
    SELECT (COUNT(?x) AS ?c) {
      ?a <label> ?l .
      { ?a <feature> ?x } UNION { ?a a ?x }
    }
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  (*parsed)->where.unions.pop_back();
  auto analyzed = analytics::AnalyzeQuery(**parsed);
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().ToString().find(
                "a UNION needs at least two arms"),
            std::string::npos)
      << analyzed.status().ToString();
}

TEST(OptionalUnionRejectTest, UnionInsideUnionArm) {
  ExpectReject(R"(
    SELECT (COUNT(?x) AS ?c) {
      ?a <label> ?l .
      { { ?a <feature> ?x } UNION { ?a a ?x } } UNION { ?a <vendor> ?x }
    }
  )", "UNION nested inside a UNION arm is outside the analytical subset");
}

TEST(OptionalUnionRejectTest, SubqueryInsideUnionArm) {
  ExpectReject(R"(
    SELECT (COUNT(?x) AS ?c) {
      ?a <label> ?x .
      { { SELECT ?b (COUNT(?y) AS ?cy) { ?b <feature> ?y } GROUP BY ?b } }
      UNION { ?a a ?t }
    }
  )", "subqueries inside UNION arms are outside the analytical subset");
}

TEST(OptionalUnionRejectTest, AggregateArgBoundInEveryArm) {
  ExpectReject(R"(
    SELECT (SUM(?pr) AS ?s) {
      ?o <product> ?p .
      { ?o <price> ?pr } UNION { ?o <vendor> ?v }
    }
  )", "aggregate argument ?pr is not bound in every UNION arm");
}

TEST(OptionalUnionRejectTest, GroupKeyBoundInEveryArm) {
  ExpectReject(R"(
    SELECT ?v (COUNT(?o) AS ?c) {
      ?o <product> ?p .
      { ?o <vendor> ?v } UNION { ?o <price> ?pr }
    } GROUP BY ?v
  )", "GROUP BY variable ?v is not bound in every UNION arm");
}

TEST(OptionalUnionRejectTest, VariableTypeObject) {
  // Type objects live inside the triple-group property key, so `a ?t`
  // has no key to match — the engines would silently return nothing
  // while the reference evaluator answers. Reject at analysis instead.
  ExpectReject(R"(
    SELECT ?t (COUNT(?p) AS ?c) {
      ?p a ?t . ?p <label> ?l .
    } GROUP BY ?t
  )", "rdf:type with a variable object is outside the analytical subset");
}

TEST(OptionalUnionRejectTest, TopLevelOptionalBesideSubselects) {
  ExpectReject(R"(
    SELECT ?x ?c {
      { SELECT ?x (COUNT(?y) AS ?c) { ?x <feature> ?y } GROUP BY ?x }
      OPTIONAL { ?x <label> ?l }
    }
  )", "multi-grouping analytical queries must contain only sub-SELECTs");
}

TEST(OptionalUnionRejectTest, SecondUnionChainIsAParseError) {
  auto parsed = sparql::ParseQuery(R"(
    SELECT (COUNT(?x) AS ?c) {
      { ?a <p> ?x } UNION { ?a <q> ?x } .
      { ?a <r> ?x } UNION { ?a <s> ?x }
    }
  )");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find(
                "only one UNION group per graph pattern"),
            std::string::npos)
      << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// Printer round-trip: the shrinker clones queries through
// ToString/ParseQuery, so both constructs must survive the loop exactly.

TEST(OptionalUnionPrinterTest, HandwrittenQueriesRoundTrip) {
  for (const char* query_text : AllQueries) {
    auto parsed = sparql::ParseQuery(query_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    std::string printed = (*parsed)->ToString();
    auto reparsed = sparql::ParseQuery(printed);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
    EXPECT_EQ((*reparsed)->ToString(), printed);
  }
}

TEST(OptionalUnionPrinterTest, GeneratedOptUnionQueriesRoundTrip) {
  GenOptions gen;
  gen.optional_bias = 1.0;
  gen.union_bias = 1.0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    difftest::FuzzCase c = difftest::MakeFuzzCase(seed, gen);
    std::string printed = c.query->ToString();
    auto reparsed = sparql::ParseQuery(printed);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status() << "\n" << printed;
    EXPECT_EQ((*reparsed)->ToString(), printed) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Normalizer: unbound is a structural state, not the string "UNBOUND" or
// the empty literal (satellite: NULL-aware multiset compare).

TEST(UnboundNormalizeTest, UnboundDistinctFromEmptyLiteral) {
  rdf::Graph g;
  g.AddLit("s", "p", "");
  rdf::TermId empty_lit = g.triples()[0].o;
  ASSERT_NE(empty_lit, rdf::kInvalidTermId);

  analytics::BindingTable unbound_table({"x"});
  unbound_table.AddRow({rdf::kInvalidTermId});
  analytics::BindingTable empty_table({"x"});
  empty_table.AddRow({empty_lit});

  NormalizedTable nu = Normalize(unbound_table, g.dict());
  NormalizedTable ne = Normalize(empty_table, g.dict());
  ASSERT_EQ(nu.rows.size(), 1u);
  EXPECT_TRUE(nu.rows[0][0].is_unbound);
  EXPECT_FALSE(ne.rows[0][0].is_unbound);
  EXPECT_NE(CompareNormalized(nu, ne), "");
  EXPECT_NE(CompareNormalized(ne, nu), "");
  EXPECT_EQ(CompareNormalized(nu, nu), "");
}

TEST(UnboundNormalizeTest, UnboundDistinctFromUnboundStringLiteral) {
  // A literal whose text is "UNBOUND" must not collide with a real
  // unbound cell (the old normalizer represented unbound by that string).
  rdf::Graph g;
  g.AddLit("s", "p", "UNBOUND");
  rdf::TermId lit = g.triples()[0].o;

  analytics::BindingTable a({"x"});
  a.AddRow({rdf::kInvalidTermId});
  analytics::BindingTable b({"x"});
  b.AddRow({lit});
  EXPECT_NE(CompareNormalized(Normalize(a, g.dict()),
                              Normalize(b, g.dict())), "");
}

TEST(UnboundNormalizeTest, UnboundSortsFirstAndSerializesAsU) {
  rdf::Graph g;
  g.AddLit("s", "p", "zzz");
  g.AddInt("s", "q", 7);
  rdf::TermId text = g.triples()[0].o;
  rdf::TermId num = g.triples()[1].o;

  analytics::BindingTable t({"x"});
  t.AddRow({text});
  t.AddRow({num});
  t.AddRow({rdf::kInvalidTermId});
  NormalizedTable n = Normalize(t, g.dict());
  ASSERT_EQ(n.rows.size(), 3u);
  EXPECT_TRUE(n.rows[0][0].is_unbound);
  EXPECT_TRUE(n.rows[1][0].is_number);
  EXPECT_FALSE(n.rows[2][0].is_number);

  std::string serialized = difftest::SerializeNormalized(n);
  EXPECT_NE(serialized.find("\tU\n"), std::string::npos) << serialized;
  NormalizedTable back;
  ASSERT_TRUE(difftest::ParseNormalized(serialized, &back));
  EXPECT_EQ(CompareNormalized(n, back), "");
}

// ---------------------------------------------------------------------------
// Fuzz smoke: the biased grammar actually produces both constructs, and a
// slice of the opt-union corpus passes the full differential check (the
// 100-seed run lives in scripts/check.sh; this keeps a canary in ctest).

TEST(OptUnionFuzzSmokeTest, BiasedGrammarGeneratesBothConstructs) {
  GenOptions gen;
  gen.optional_bias = 1.0;
  gen.union_bias = 1.0;
  int with_optional = 0;
  int with_union = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    difftest::FuzzCase c = difftest::MakeFuzzCase(seed, gen);
    std::string text = c.query->ToString();
    if (text.find("OPTIONAL") != std::string::npos) ++with_optional;
    if (text.find("UNION") != std::string::npos) ++with_union;
  }
  EXPECT_GE(with_optional, 10);
  EXPECT_GE(with_union, 10);
}

TEST(OptUnionFuzzSmokeTest, GrammarKnobsLeaveDataStreamUnchanged) {
  // The dataset and triples for a seed must not depend on grammar knobs,
  // or `--grammar=opt-union --seed=N` repro lines would lie.
  GenOptions biased;
  biased.optional_bias = 1.0;
  biased.union_bias = 1.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    difftest::FuzzCase a = difftest::MakeFuzzCase(seed);
    difftest::FuzzCase b = difftest::MakeFuzzCase(seed, biased);
    EXPECT_EQ(a.dataset, b.dataset) << seed;
    EXPECT_EQ(a.triples, b.triples) << seed;
  }
}

TEST(OptUnionFuzzSmokeTest, OptUnionCorpusSliceIsGreen) {
  GenOptions gen;
  gen.optional_bias = 0.70;
  gen.union_bias = 0.50;
  difftest::DiffOptions opts;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    difftest::FuzzCase c = difftest::MakeFuzzCase(seed, gen);
    difftest::DiffFailure f = difftest::RunDifferential(c, opts);
    EXPECT_FALSE(f.failed) << "seed " << seed << ": " << f.ToString()
                           << "\n" << c.query->ToString();
  }
}

}  // namespace
}  // namespace rapida
