#include "analytics/reference_evaluator.h"

#include <gtest/gtest.h>

#include "sparql/parser.h"

namespace rapida::analytics {
namespace {

/// Small hand-built BSBM-flavoured graph used throughout.
///   products p1,p2 of type PT1; p3 of type PT2
///   p1 has features f1,f2; p2 has f1; p3 has f2
///   offers o1..o4 with prices, vendors v1 (DE), v2 (US)
class ReferenceEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [this](const char* s, const char* p, const char* o) {
      g_.AddIri(s, p, o);
    };
    add("p1", rdf::kRdfType, "PT1");
    add("p2", rdf::kRdfType, "PT1");
    add("p3", rdf::kRdfType, "PT2");
    add("p1", "feature", "f1");
    add("p1", "feature", "f2");
    add("p2", "feature", "f1");
    add("p3", "feature", "f2");
    add("o1", "product", "p1");
    add("o2", "product", "p1");
    add("o3", "product", "p2");
    add("o4", "product", "p3");
    g_.AddInt("o1", "price", 100);
    g_.AddInt("o2", "price", 200);
    g_.AddInt("o3", "price", 50);
    g_.AddInt("o4", "price", 400);
    add("o1", "vendor", "v1");
    add("o2", "vendor", "v2");
    add("o3", "vendor", "v1");
    add("o4", "vendor", "v2");
    add("v1", "country", "DE");
    add("v2", "country", "US");
    g_.AddLit("p1", "label", "alpha");
    g_.AddLit("p2", "label", "beta");
  }

  BindingTable Run(const std::string& query_text) {
    auto query = sparql::ParseQuery(query_text);
    EXPECT_TRUE(query.ok()) << query.status();
    ReferenceEvaluator eval(&g_);
    auto result = eval.Evaluate(**query);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : BindingTable{};
  }

  rdf::Graph g_;
};

TEST_F(ReferenceEvaluatorTest, SingleTriplePattern) {
  BindingTable t = Run("SELECT ?s { ?s a <PT1> . }");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(ReferenceEvaluatorTest, StarJoin) {
  BindingTable t = Run(
      "SELECT ?o ?pr ?v { ?o <product> ?p ; <price> ?pr ; <vendor> ?v . }");
  EXPECT_EQ(t.NumRows(), 4u);
}

TEST_F(ReferenceEvaluatorTest, PathJoinAcrossStars) {
  BindingTable t = Run(
      "SELECT ?p ?c { ?p a <PT1> . ?o <product> ?p ; <vendor> ?v . "
      "?v <country> ?c . }");
  // p1 via o1 (DE), o2 (US); p2 via o3 (DE).
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(ReferenceEvaluatorTest, NoMatchesForUnknownConstant) {
  BindingTable t = Run("SELECT ?s { ?s a <NoSuchType> . }");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(ReferenceEvaluatorTest, FilterOnPrice) {
  BindingTable t = Run(
      "SELECT ?o { ?o <price> ?pr . FILTER(?pr > 150) }");
  EXPECT_EQ(t.NumRows(), 2u);  // o2 (200), o4 (400)
}

TEST_F(ReferenceEvaluatorTest, OptionalKeepsUnmatched) {
  BindingTable t = Run(
      "SELECT ?p ?l { ?p <feature> ?f . OPTIONAL { ?p <label> ?l . } }");
  // p1 has 2 features, p2 and p3 one each -> 4 rows; p3 has no label.
  ASSERT_EQ(t.NumRows(), 4u);
  int unbound = 0;
  int li = t.VarIndex("l");
  for (const auto& row : t.rows()) {
    if (row[li] == rdf::kInvalidTermId) ++unbound;
  }
  EXPECT_EQ(unbound, 1);
}

TEST_F(ReferenceEvaluatorTest, GroupByWithCountAndSum) {
  BindingTable t = Run(
      "SELECT ?p (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) "
      "{ ?o <product> ?p ; <price> ?pr . } GROUP BY ?p");
  ASSERT_EQ(t.NumRows(), 3u);
  const rdf::Dictionary& d = g_.dict();
  int pi = t.VarIndex("p"), ci = t.VarIndex("cnt"), si = t.VarIndex("sum");
  for (const auto& row : t.rows()) {
    std::string_view p = d.Get(row[pi]).text;
    double cnt = *d.AsNumber(row[ci]);
    double sum = *d.AsNumber(row[si]);
    if (p == "p1") {
      EXPECT_DOUBLE_EQ(cnt, 2);
      EXPECT_DOUBLE_EQ(sum, 300);
    } else if (p == "p2") {
      EXPECT_DOUBLE_EQ(cnt, 1);
      EXPECT_DOUBLE_EQ(sum, 50);
    } else {
      EXPECT_EQ(p, "p3");
      EXPECT_DOUBLE_EQ(sum, 400);
    }
  }
}

TEST_F(ReferenceEvaluatorTest, GroupByAllProducesOneRow) {
  BindingTable t = Run(
      "SELECT (COUNT(?pr) AS ?cnt) (AVG(?pr) AS ?avg) "
      "{ ?o <price> ?pr . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][0]), 4);
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][1]), 187.5);
}

TEST_F(ReferenceEvaluatorTest, GroupByAllOverEmptyInputCountsZero) {
  BindingTable t = Run(
      "SELECT (COUNT(?pr) AS ?cnt) { ?o <nonexistent> ?pr . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][0]), 0);
}

TEST_F(ReferenceEvaluatorTest, MinMax) {
  BindingTable t = Run(
      "SELECT (MIN(?pr) AS ?mn) (MAX(?pr) AS ?mx) { ?o <price> ?pr . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][0]), 50);
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][1]), 400);
}

TEST_F(ReferenceEvaluatorTest, MultiValuedPropertyMultipliesSolutions) {
  // p1 has two features: each (offer, feature) combination is a solution —
  // the duplicity semantics the paper's n-split must preserve.
  BindingTable t = Run(
      "SELECT ?f (SUM(?pr) AS ?sum) "
      "{ ?p a <PT1> ; <feature> ?f . ?o <product> ?p ; <price> ?pr . } "
      "GROUP BY ?f");
  ASSERT_EQ(t.NumRows(), 2u);
  const rdf::Dictionary& d = g_.dict();
  for (const auto& row : t.rows()) {
    std::string_view f = d.Get(row[0]).text;
    double sum = *d.AsNumber(row[1]);
    if (f == "f1") {
      EXPECT_DOUBLE_EQ(sum, 350);  // o1+o2 (p1) + o3 (p2)
    } else {
      EXPECT_DOUBLE_EQ(sum, 300);  // o1+o2 via p1's f2
    }
  }
}

TEST_F(ReferenceEvaluatorTest, SubqueriesJoinOnSharedVars) {
  // MG-style query: per-feature sums joined with overall sum.
  BindingTable t = Run(
      "SELECT ?f ?sumF ?sumT { "
      " { SELECT ?f (SUM(?pr) AS ?sumF) "
      "   { ?p a <PT1> ; <feature> ?f . ?o <product> ?p ; <price> ?pr . } "
      "   GROUP BY ?f } "
      " { SELECT (SUM(?pr2) AS ?sumT) "
      "   { ?p2 a <PT1> . ?o2 <product> ?p2 ; <price> ?pr2 . } } "
      "}");
  ASSERT_EQ(t.NumRows(), 2u);
  int ti = t.VarIndex("sumT");
  for (const auto& row : t.rows()) {
    EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(row[ti]), 350);  // 100+200+50
  }
}

TEST_F(ReferenceEvaluatorTest, TopLevelArithmetic) {
  BindingTable t = Run(
      "SELECT ((?sumF / ?cntF) AS ?avgF) { "
      " { SELECT ?f (SUM(?pr) AS ?sumF) (COUNT(?pr) AS ?cntF) "
      "   { ?p <feature> ?f . ?o <product> ?p ; <price> ?pr . } "
      "   GROUP BY ?f } }");
  ASSERT_EQ(t.NumRows(), 2u);
  for (const auto& row : t.rows()) {
    EXPECT_TRUE(g_.dict().AsNumber(row[0]).has_value());
  }
}

TEST_F(ReferenceEvaluatorTest, DistinctProjection) {
  BindingTable t = Run("SELECT DISTINCT ?v { ?o <vendor> ?v . }");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(ReferenceEvaluatorTest, SelectStar) {
  BindingTable t = Run("SELECT * { ?v <country> ?c . }");
  EXPECT_EQ(t.NumCols(), 2u);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(ReferenceEvaluatorTest, CountDistinct) {
  BindingTable t = Run(
      "SELECT (COUNT(DISTINCT ?p) AS ?n) { ?o <product> ?p . }");
  EXPECT_DOUBLE_EQ(*g_.dict().AsNumber(t.rows()[0][0]), 3);
}

TEST_F(ReferenceEvaluatorTest, ProjectingNonGroupedVarFails) {
  auto query = sparql::ParseQuery(
      "SELECT ?o (COUNT(?pr) AS ?c) { ?o <price> ?pr . } GROUP BY ?v");
  // GROUP BY ?v is unbound -> error surfaces as InvalidArgument.
  ASSERT_TRUE(query.ok());
  ReferenceEvaluator eval(&g_);
  auto result = eval.Evaluate(**query);
  EXPECT_FALSE(result.ok());
}

TEST_F(ReferenceEvaluatorTest, RegexFilter) {
  BindingTable t = Run(
      "SELECT ?p { ?p <label> ?l . FILTER regex(?l, \"ALPHA\", \"i\") }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(g_.dict().Get(t.rows()[0][0]).text, "p1");
}

TEST_F(ReferenceEvaluatorTest, SameVariableTwiceInPattern) {
  rdf::Graph g;
  g.AddIri("n1", "knows", "n1");
  g.AddIri("n1", "knows", "n2");
  auto query = sparql::ParseQuery("SELECT ?x { ?x <knows> ?x . }");
  ASSERT_TRUE(query.ok());
  ReferenceEvaluator eval(&g);
  auto result = eval.Evaluate(**query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 1u);
}

TEST_F(ReferenceEvaluatorTest, UnboundPropertyPattern) {
  BindingTable t = Run("SELECT ?pp { <o1> ?pp <p1> . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(g_.dict().Get(t.rows()[0][0]).text, "product");
}

}  // namespace
}  // namespace rapida::analytics
