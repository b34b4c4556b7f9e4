#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/graph_index.h"
#include "rdf/term.h"

namespace rapida::rdf {
namespace {

TEST(TermTest, Factories) {
  Term iri = Term::Iri("http://x/a");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.ToNTriples(), "<http://x/a>");

  Term lit = Term::Literal("hello");
  EXPECT_TRUE(lit.is_literal());
  EXPECT_EQ(lit.ToNTriples(), "\"hello\"");

  Term typed = Term::Literal("5", kXsdInteger);
  EXPECT_EQ(typed.ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");

  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
  EXPECT_EQ(blank.ToNTriples(), "_:b0");
}

TEST(TermTest, LiteralEscaping) {
  Term lit = Term::Literal("a\"b\\c\nd");
  EXPECT_EQ(lit.ToNTriples(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, EqualityDistinguishesKindAndDatatype) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_FALSE(Term::Iri("x") == Term::Literal("x"));
  EXPECT_FALSE(Term::Literal("5") == Term::Literal("5", kXsdInteger));
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.InternIri("http://x/a");
  TermId b = d.InternIri("http://x/a");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DictionaryTest, DistinctTermsGetDistinctIds) {
  Dictionary d;
  TermId iri = d.InternIri("x");
  TermId lit = d.InternLiteral("x");
  TermId blank = d.Intern(Term::Blank("x"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
  EXPECT_EQ(d.size(), 3u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary d;
  TermId id = d.InternLiteral("42", kXsdInteger);
  const Term& t = d.Get(id);
  EXPECT_EQ(t.text, "42");
  EXPECT_EQ(t.datatype, kXsdInteger);
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary d;
  EXPECT_EQ(d.LookupIri("http://nope"), kInvalidTermId);
}

TEST(DictionaryTest, AsNumber) {
  Dictionary d;
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternInt(42)), 42.0);
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternDouble(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternLiteral("7")), 7.0);
  EXPECT_FALSE(d.AsNumber(d.InternLiteral("abc")).has_value());
  EXPECT_FALSE(d.AsNumber(d.InternIri("42")).has_value());
  EXPECT_FALSE(d.AsNumber(kInvalidTermId).has_value());
}

TEST(GraphTest, AddAndCount) {
  Graph g;
  g.AddIri("s1", "p1", "o1");
  g.AddIri("s1", "p2", "o2");
  g.AddLit("s2", "p1", "hello");
  EXPECT_EQ(g.size(), 3u);
  auto counts = g.PropertyCounts();
  EXPECT_EQ(counts[g.dict().LookupIri("p1")], 2u);
  EXPECT_EQ(counts[g.dict().LookupIri("p2")], 1u);
}

TEST(GraphTest, SubjectGroups) {
  Graph g;
  g.AddIri("s2", "p1", "o1");
  g.AddIri("s1", "p1", "o1");
  g.AddIri("s1", "p2", "o2");
  const auto& groups = g.SubjectGroups();
  ASSERT_EQ(groups.size(), 2u);
  // Groups are sorted by subject id; s2 was interned first, so it comes
  // first.
  EXPECT_EQ(groups[0].subject, g.dict().LookupIri("s2"));
  EXPECT_EQ(groups[0].triples.size(), 1u);
  EXPECT_EQ(groups[1].subject, g.dict().LookupIri("s1"));
  EXPECT_EQ(groups[1].triples.size(), 2u);
}

TEST(GraphTest, SubjectGroupsRebuildAfterChange) {
  Graph g;
  g.AddIri("s1", "p1", "o1");
  EXPECT_EQ(g.SubjectGroups().size(), 1u);
  g.AddIri("s2", "p1", "o1");
  EXPECT_EQ(g.SubjectGroups().size(), 2u);
}

TEST(GraphIndexTest, AccessPaths) {
  Graph g;
  g.AddIri("s1", "p", "o1");
  g.AddIri("s1", "p", "o2");
  g.AddIri("s2", "p", "o1");
  g.AddIri("s2", "q", "o3");
  GraphIndex idx(g);
  const Dictionary& d = g.dict();
  TermId p = d.LookupIri("p"), q = d.LookupIri("q");
  TermId s1 = d.LookupIri("s1"), s2 = d.LookupIri("s2");
  TermId o1 = d.LookupIri("o1"), o3 = d.LookupIri("o3");

  EXPECT_EQ(idx.ByProperty(p).size(), 3u);
  EXPECT_EQ(idx.Objects(p, s1).size(), 2u);
  EXPECT_EQ(idx.Subjects(p, o1).size(), 2u);
  EXPECT_TRUE(idx.Contains(s2, q, o3));
  EXPECT_FALSE(idx.Contains(s1, q, o3));
  EXPECT_TRUE(idx.ByProperty(d.LookupIri("nope")).empty());
}

}  // namespace
}  // namespace rapida::rdf
