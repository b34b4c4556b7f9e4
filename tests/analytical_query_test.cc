#include "analytics/analytical_query.h"

#include <gtest/gtest.h>

#include "engines/relational_ops.h"
#include "engines/var_translate.h"
#include "ntga/resolved_pattern.h"
#include "sparql/parser.h"

namespace rapida::analytics {
namespace {

StatusOr<AnalyticalQuery> Analyze(const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return AnalyzeQuery(**parsed);
}

TEST(AnalyticalQueryTest, SingleGroupingShape) {
  auto q = Analyze(
      "SELECT ?f (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) "
      "{ ?p <feature> ?f . ?o <product> ?p ; <price> ?pr . } GROUP BY ?f");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->groupings.size(), 1u);
  const GroupingSubquery& g = q->groupings[0];
  EXPECT_EQ(g.pattern.stars.size(), 2u);
  EXPECT_EQ(g.group_by, (std::vector<std::string>{"f"}));
  ASSERT_EQ(g.aggs.size(), 2u);
  EXPECT_EQ(g.aggs[0].output_name, "cnt");
  EXPECT_EQ(g.aggs[0].var, "pr");
  EXPECT_EQ(g.aggs[1].func, sparql::AggFunc::kSum);
  EXPECT_EQ(g.columns, (std::vector<std::string>{"f", "cnt", "sum"}));
  // Identity top projection.
  EXPECT_EQ(q->TopColumnNames(), g.columns);
}

TEST(AnalyticalQueryTest, MultiGroupingShape) {
  auto q = Analyze(
      "SELECT ?f ?cntF ?cntT { "
      "{ SELECT ?f (COUNT(?x) AS ?cntF) { ?p <f> ?f ; <x> ?x . } GROUP BY ?f } "
      "{ SELECT (COUNT(?y) AS ?cntT) { ?p1 <y> ?y . } } }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->groupings.size(), 2u);
  EXPECT_TRUE(q->groupings[1].group_by.empty());
  EXPECT_EQ(q->TopColumnNames(),
            (std::vector<std::string>{"f", "cntF", "cntT"}));
}

TEST(AnalyticalQueryTest, TopLevelExpressionsValidated) {
  auto ok = Analyze(
      "SELECT ((?a / ?b) AS ?ratio) { "
      "{ SELECT (SUM(?x) AS ?a) (COUNT(?x) AS ?b) { ?s <p> ?x . } } }");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->top_items.size(), 1u);
  EXPECT_NE(ok->top_items[0].expr, nullptr);

  // Unknown column in the expression.
  auto bad = Analyze(
      "SELECT ((?a / ?zz) AS ?r) { "
      "{ SELECT (SUM(?x) AS ?a) { ?s <p> ?x . } } }");
  EXPECT_FALSE(bad.ok());
}

TEST(AnalyticalQueryTest, CountStarSupported) {
  auto q = Analyze("SELECT (COUNT(*) AS ?n) { ?s <p> ?x . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->groupings[0].aggs[0].count_star);
}

TEST(AnalyticalQueryTest, GroupByUnboundVarRejected) {
  EXPECT_FALSE(Analyze("SELECT ?z (COUNT(?x) AS ?n) { ?s <p> ?x . } "
                       "GROUP BY ?z")
                   .ok());
}

TEST(AnalyticalQueryTest, FiltersCarriedIntoGrouping) {
  auto q = Analyze(
      "SELECT (COUNT(?x) AS ?n) { ?s <p> ?x . FILTER(?x > 5) }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->groupings[0].filters.size(), 1u);
}

}  // namespace
}  // namespace rapida::analytics

namespace rapida::engine {
namespace {

TEST(VarTranslateTest, MapVarsAndExpr) {
  std::map<std::string, std::string> m = {{"a", "x"}, {"b", "y"}};
  EXPECT_EQ(MapVar("a", m), "x");
  EXPECT_EQ(MapVar("zzz", m), "zzz");
  EXPECT_EQ(MapVars({"a", "b", "c"}, m),
            (std::vector<std::string>{"x", "y", "c"}));

  auto parsed = sparql::ParseQuery(
      "SELECT ?s { ?s <p> ?a . FILTER(?a > 5 && regex(?b, \"z\")) }");
  ASSERT_TRUE(parsed.ok());
  sparql::ExprPtr mapped =
      MapExprVars(*(*parsed)->where.filters[0], m);
  std::vector<std::string> vars;
  mapped->CollectVars(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"x", "y"}));
}

TEST(ResolvedPatternTest, ResolvesConstantsAndVarSources) {
  rdf::Graph g;
  g.AddIri("p1", rdf::kRdfType, "T1");
  g.AddInt("p1", "price", 5);

  auto parsed = sparql::ParseQuery(
      "SELECT ?pr { ?p a <T1> ; <price> ?pr . }");
  ASSERT_TRUE(parsed.ok());
  auto sg = ntga::DecomposeToStars((*parsed)->where.triples);
  ASSERT_TRUE(sg.ok());
  ntga::CompositePattern comp = ntga::SinglePatternComposite(*sg);
  ntga::ResolvedPattern r = ntga::ResolvePattern(comp, g.dict());
  EXPECT_TRUE(r.satisfiable);
  ASSERT_EQ(r.stars.size(), 1u);
  EXPECT_EQ(r.stars[0].triples.size(), 2u);

  auto src = r.SourceOf("pr");
  EXPECT_EQ(src.star, 0);
  EXPECT_FALSE(src.is_subject);
  auto subj = r.SourceOf("p");
  EXPECT_TRUE(subj.is_subject);
  EXPECT_EQ(r.SourceOf("nope").star, -1);
}

TEST(ResolvedPatternTest, MissingPrimaryConstantMakesUnsatisfiable) {
  rdf::Graph g;
  g.AddInt("p1", "price", 5);
  auto parsed = sparql::ParseQuery(
      "SELECT ?pr { ?p a <NeverSeen> ; <price> ?pr . }");
  ASSERT_TRUE(parsed.ok());
  auto sg = ntga::DecomposeToStars((*parsed)->where.triples);
  ASSERT_TRUE(sg.ok());
  ntga::ResolvedPattern r = ntga::ResolvePattern(
      ntga::SinglePatternComposite(*sg), g.dict());
  EXPECT_FALSE(r.satisfiable);
}

TEST(RelationalRowCodecTest, RoundTrip) {
  std::vector<rdf::TermId> row = {1, 0, 42, 7};
  std::vector<rdf::TermId> decoded = {9};
  DecodeRowInto(EncodeRow(row), &decoded);
  EXPECT_EQ(decoded, row);
  DecodeRowInto("", &decoded);
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(EncodeRow({}), "");
}

TEST(RelationalPredicateTest, CompiledFilterOverColumns) {
  rdf::Dictionary dict;
  rdf::TermId five = dict.InternInt(5);
  rdf::TermId ten = dict.InternInt(10);
  auto parsed =
      sparql::ParseQuery("SELECT ?s { ?s <p> ?x . FILTER(?x > 7) }");
  ASSERT_TRUE(parsed.ok());
  RowPredicate pred = CompilePredicate(
      {(*parsed)->where.filters[0].get()}, {"s", "x"}, &dict);
  EXPECT_FALSE(pred({1, five}));
  EXPECT_TRUE(pred({1, ten}));
  // Unbound cell: error -> false.
  EXPECT_FALSE(pred({1, rdf::kInvalidTermId}));
  // No filters -> null predicate.
  EXPECT_EQ(CompilePredicate({}, {"s"}, &dict), nullptr);
}

}  // namespace
}  // namespace rapida::engine
