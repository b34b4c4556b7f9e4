#include "rdf/turtle.h"
#include "rdf/ntriples.h"

#include <gtest/gtest.h>

namespace rapida::rdf {
namespace {

Graph MustParse(const std::string& text) {
  Graph g;
  Status s = ParseTurtle(text, &g);
  EXPECT_TRUE(s.ok()) << s;
  return g;
}

TEST(TurtleTest, PrefixDirectiveAndAbbreviations) {
  Graph g = MustParse(R"(
    @prefix ex: <http://ex/> .
    ex:p1 a ex:Product ;
          ex:label "one" ;
          ex:feature ex:f1 , ex:f2 .
  )");
  EXPECT_EQ(g.size(), 4u);
  EXPECT_NE(g.dict().LookupIri("http://ex/p1"), kInvalidTermId);
  EXPECT_NE(g.dict().LookupIri(kRdfType), kInvalidTermId);
  EXPECT_NE(g.dict().LookupIri("http://ex/f2"), kInvalidTermId);
}

TEST(TurtleTest, SparqlStylePrefixWithoutDot) {
  Graph g = MustParse(
      "PREFIX ex: <http://ex/>\n"
      "ex:s ex:p ex:o .\n");
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleTest, BaseResolution) {
  Graph g = MustParse(R"(
    @base <http://base/> .
    <s> <p> <o> .
    <s> <p2> <http://absolute/o> .
  )");
  EXPECT_NE(g.dict().LookupIri("http://base/s"), kInvalidTermId);
  EXPECT_NE(g.dict().LookupIri("http://absolute/o"), kInvalidTermId);
}

TEST(TurtleTest, TypedAndTaggedLiterals) {
  Graph g = MustParse(R"(
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    <s> <p> "5"^^xsd:integer .
    <s> <q> "hello"@en .
    <s> <r> "plain" .
  )");
  ASSERT_EQ(g.size(), 3u);
  const TermView typed = g.dict().Get(g.triples()[0].o);
  EXPECT_EQ(typed.datatype, "http://www.w3.org/2001/XMLSchema#integer");
  const TermView tagged = g.dict().Get(g.triples()[1].o);
  EXPECT_EQ(tagged.datatype, "@en");
}

TEST(TurtleTest, BareNumbersAndBooleans) {
  Graph g = MustParse(R"(
    <s> <i> 42 .
    <s> <d> 3.14 .
    <s> <e> 1.0e3 .
    <s> <n> -7 .
    <s> <b> true .
    <s> <b2> false .
  )");
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g.dict().Get(g.triples()[0].o).datatype, kXsdInteger);
  EXPECT_EQ(g.dict().Get(g.triples()[1].o).datatype,
            "http://www.w3.org/2001/XMLSchema#decimal");
  EXPECT_EQ(g.dict().Get(g.triples()[2].o).datatype,
            "http://www.w3.org/2001/XMLSchema#double");
  EXPECT_EQ(g.dict().Get(g.triples()[3].o).text, "-7");
  EXPECT_EQ(g.dict().Get(g.triples()[4].o).text, "true");
}

TEST(TurtleTest, EscapesAndLongStrings) {
  Graph g = MustParse(
      "<s> <p> \"line\\n\\\"q\\\"\" .\n"
      "<s> <q> \"\"\"multi\nline\"\"\" .\n");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.dict().Get(g.triples()[0].o).text, "line\n\"q\"");
  EXPECT_EQ(g.dict().Get(g.triples()[1].o).text, "multi\nline");
}

TEST(TurtleTest, BlankNodes) {
  Graph g = MustParse("_:b1 <p> _:b2 .\n_:b1 <q> \"v\" .\n");
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.dict().Get(g.triples()[0].s).is_blank());
}

TEST(TurtleTest, CommentsAnywhere) {
  Graph g = MustParse(R"(
    # leading comment
    @prefix ex: <http://ex/> .  # trailing
    ex:s ex:p ex:o . # done
  )");
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleTest, DanglingSemicolonBeforeDot) {
  Graph g = MustParse("<s> <p> <o> ; .\n");
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleTest, Errors) {
  Graph g;
  EXPECT_FALSE(ParseTurtle("<s> <p> .", &g).ok());           // missing object
  EXPECT_FALSE(ParseTurtle("<s> <p> <o>", &g).ok());         // missing dot
  EXPECT_FALSE(ParseTurtle("ex:s <p> <o> .", &g).ok());      // no prefix decl
  EXPECT_FALSE(ParseTurtle("\"lit\" <p> <o> .", &g).ok());   // literal subj
  EXPECT_FALSE(ParseTurtle("<s> \"p\" <o> .", &g).ok());     // literal pred
  EXPECT_FALSE(ParseTurtle("<s> <p> [ <q> <o> ] .", &g).ok());  // bnode list
  EXPECT_FALSE(ParseTurtle("<s> <p> (1 2) .", &g).ok());     // collection
  EXPECT_FALSE(ParseTurtle("<s> <p> \"unterminated .", &g).ok());
}

TEST(TurtleTest, ErrorsCarryLineNumbers) {
  Graph g;
  Status s = ParseTurtle("<s> <p> <o> .\n<s> <p>\n<o2>", &g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line"), std::string::npos);
}

TEST(TurtleTest, AgreesWithNTriplesOnCommonData) {
  // Identical data in both syntaxes parses into identical graphs.
  Graph from_ttl = MustParse(R"(
    @prefix ex: <http://ex/> .
    ex:s a ex:T ;
         ex:price 10 ;
         ex:label "thing" .
  )");
  Graph from_nt;
  ASSERT_TRUE(ParseNTriples(
      "<http://ex/s> "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/T> .\n"
      "<http://ex/s> <http://ex/price> "
      "\"10\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://ex/s> <http://ex/label> \"thing\" .\n",
      &from_nt)
          .ok());
  EXPECT_EQ(WriteNTriples(from_ttl), WriteNTriples(from_nt));
}

}  // namespace
}  // namespace rapida::rdf
