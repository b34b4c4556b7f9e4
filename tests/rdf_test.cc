#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engines/dataset.h"
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

TEST(TermViewTest, ViewsAndTermsCompareEqual) {
  const Term typed = Term::Literal("5", kXsdInteger);
  const TermView view = typed;
  EXPECT_EQ(view, typed);
  EXPECT_EQ(typed, view);
  EXPECT_TRUE(view.is_literal());
  EXPECT_EQ(view.ToNTriples(), typed.ToNTriples());
  EXPECT_EQ(view.ToTerm(), typed);
  EXPECT_FALSE(view == TermView(Term::Literal("5")));
  EXPECT_FALSE(TermView(Term::Iri("x")) == TermView(Term::Blank("x")));
  EXPECT_EQ(TermView(Term::Blank("b0")).ToNTriples(), "_:b0");
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
  const TermView t = d.Get(id);
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.text, "42");
  EXPECT_EQ(t.datatype, kXsdInteger);
  EXPECT_EQ(d.Intern(Term::Literal("42", kXsdInteger)), id);
  EXPECT_EQ(d.Lookup(t), id);
}

TEST(DictionaryTest, KindTextAndDatatypeAllSeparateTerms) {
  Dictionary d;
  // The same bytes split differently between text and datatype, and the
  // same text under another kind or datatype, are all distinct terms.
  const Term terms[] = {
      Term::Literal("a\001b"), Term::Literal("a", "b"),
      Term::Literal("a", "\001b"), Term::Literal("ab"),
      Term::Iri("ab"), Term::Blank("ab"),
      Term::Literal("", "dt"), Term::Literal(""),
      Term::Iri(""), Term::Literal("7", kXsdDouble),
      Term::Literal("7", kXsdInteger), Term::Literal("7")};
  std::set<TermId> ids;
  for (const Term& t : terms) ids.insert(d.Intern(t));
  EXPECT_EQ(ids.size(), std::size(terms));
  EXPECT_EQ(d.size(), std::size(terms));
  TermId id = 1;
  for (const Term& t : terms) {
    EXPECT_EQ(d.Get(id), t);
    EXPECT_EQ(d.Lookup(t), id++);
  }
  EXPECT_EQ(d.Lookup(Term::Literal("7", "http://unseen")), kInvalidTermId);
}

TEST(DictionaryTest, ViewsSurviveGrowthAndMoves) {
  Dictionary d;
  const TermId first = d.InternLiteral("first", "http://x/dt");
  const TermView before = d.Get(first);
  for (int i = 0; i < 50000; ++i) d.InternIri("http://x/t" + std::to_string(i));
  EXPECT_EQ(before, Term::Literal("first", "http://x/dt"));
  Dictionary moved(std::move(d));
  EXPECT_EQ(before, Term::Literal("first", "http://x/dt"));
  EXPECT_EQ(moved.Get(first).text.data(), before.text.data());
  EXPECT_EQ(moved.LookupIri("http://x/t49999"), 50001u);
  EXPECT_EQ(moved.InternIri("http://x/t0"), 2u);
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

/// Term i of the concurrency universe: IRIs, plain literals and integer
/// literals in turn.
Term UniverseTerm(int i) {
  switch (i % 3) {
    case 0:
      return Term::Iri("http://example.org/term/" + std::to_string(i));
    case 1:
      return Term::Literal("plain literal " + std::to_string(i));
    default:
      return Term::Literal(std::to_string(i), kXsdInteger);
  }
}

TEST(DictionaryTest, ConcurrentInternAndReadThroughGrowth) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  constexpr int kStride = 5000;
  constexpr int kUniverse = kWriters * kStride;  // each term by 4 writers
  constexpr int kReaders = 3;
  constexpr int kEarly = 100;
  std::vector<Term> universe;
  for (int i = 0; i < kUniverse; ++i) universe.push_back(UniverseTerm(i));

  Dictionary d;
  // Views taken before any of the growth below.
  std::vector<std::pair<int, TermView>> early;
  for (int i = 0; i < kEarly; ++i) {
    early.emplace_back(i, d.Get(d.Intern(universe[i])));
  }

  std::vector<std::atomic<TermId>> published(kUniverse);
  for (auto& id : published) id.store(kInvalidTermId);
  std::vector<std::vector<TermId>> ids_of(kWriters,
                                          std::vector<TermId>(kUniverse));
  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> reader_failed{false};
  std::vector<std::vector<std::pair<int, TermView>>> captured(kReaders);

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t x = 0x9e3779b97f4a7c15ull * (r + 1);
      do {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int i = static_cast<int>(x % kUniverse);
        const TermId id = published[i].load(std::memory_order_acquire);
        if (id == kInvalidTermId) continue;
        const TermView view = d.Get(id);
        const std::optional<double> num = d.AsNumber(id);
        const bool num_ok = i % 3 == 2 ? num.has_value() && *num == i
                                       : !num.has_value();
        if (!(view == universe[i]) || d.Lookup(universe[i]) != id ||
            !num_ok) {
          reader_failed.store(true);
        }
        if (captured[r].size() < 2000 && x % 8 == 0) {
          captured[r].emplace_back(i, view);
        }
        // The shared lock favours readers; leave the writers room.
        std::this_thread::yield();
      } while (writers_left.load(std::memory_order_acquire) > 0);
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int k = 0; k < kPerWriter; ++k) {
        // Odd writers walk their range backwards, so writers meet on the
        // same terms from both directions.
        const int off = w % 2 == 0 ? k : kPerWriter - 1 - k;
        const int i = (w * kStride + off) % kUniverse;
        const TermId id = d.Intern(universe[i]);
        ids_of[w][i] = id;
        published[i].store(id, std::memory_order_release);
      }
      writers_left.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(reader_failed.load());
  // Dense 1..N, one id per term.
  ASSERT_EQ(d.size(), static_cast<size_t>(kUniverse));
  std::vector<int> term_of(kUniverse + 1, -1);
  for (int i = 0; i < kUniverse; ++i) {
    const TermId id = d.Lookup(universe[i]);
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<TermId>(kUniverse));
    ASSERT_EQ(term_of[id], -1) << "id " << id << " names two terms";
    term_of[id] = i;
    EXPECT_EQ(d.Get(id), universe[i]);
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kPerWriter; ++k) {
      const int i = (w * kStride + k) % kUniverse;
      ASSERT_EQ(ids_of[w][i], d.Lookup(universe[i])) << "writer " << w;
    }
  }
  // Views captured before later growth still read their terms.
  for (const auto& [i, view] : early) EXPECT_EQ(view, universe[i]);
  size_t checked = early.size();
  for (const auto& views : captured) {
    for (const auto& [i, view] : views) EXPECT_EQ(view, universe[i]);
    checked += views.size();
  }
  EXPECT_GT(checked, static_cast<size_t>(kEarly));
}

/// EstimateSerializedBytes recomputed from scratch: every triple's three
/// texts plus 8 separator bytes.
uint64_t RecomputedSerializedBytes(const Graph& g) {
  uint64_t total = 0;
  for (const Triple& t : g.triples()) {
    total += g.dict().Get(t.s).text.size() + g.dict().Get(t.p).text.size() +
             g.dict().Get(t.o).text.size() + 8;
  }
  return total;
}

TEST(GraphTest, DuplicatesAreIgnoredAndOrderKept) {
  Graph g;
  g.AddIri("s2", "p", "o");
  g.AddIri("s1", "p", "o");
  g.AddIri("s2", "p", "o");
  for (int i = 0; i < 1000; ++i) g.AddInt("s1", "n", i % 300);
  ASSERT_EQ(g.size(), 302u);
  EXPECT_EQ(g.triples()[0].s, g.dict().LookupIri("s2"));
  EXPECT_EQ(g.triples()[1].s, g.dict().LookupIri("s1"));
  EXPECT_EQ(g.triples()[301].o, g.dict().InternInt(299));
}

TEST(GraphTest, SerializedBytesIsARunningTotal) {
  Graph g;
  g.AddIri("s1", "p1", "o1");    // 2 + 2 + 2 + 8
  g.AddLit("s1", "p2", "hello");  // 2 + 2 + 5 + 8
  g.AddInt("s2", "p1", 42);       // 2 + 2 + 2 + 8
  EXPECT_EQ(g.EstimateSerializedBytes(), 45u);
  g.AddIri("s1", "p1", "o1");
  g.AddInt("s2", "p1", 42);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.EstimateSerializedBytes(), 45u);
  EXPECT_EQ(g.EstimateSerializedBytes(), RecomputedSerializedBytes(g));

  engine::Dataset dataset(std::move(g));
  ASSERT_TRUE(dataset
                  .AddTriples({{Term::Iri("s3"), Term::Iri("p1"),
                                Term::Literal("new")},
                               {Term::Iri("s1"), Term::Iri("p1"),
                                Term::Iri("o1")}})
                  .ok());
  EXPECT_EQ(dataset.graph().size(), 4u);
  EXPECT_EQ(dataset.graph().EstimateSerializedBytes(), 45u + 15u);
  EXPECT_EQ(dataset.graph().EstimateSerializedBytes(),
            RecomputedSerializedBytes(dataset.graph()));
}

// The subject groups as (subject, triple count) pairs, in walk order.
std::vector<std::pair<TermId, size_t>> SubjectGroupSizes(const Graph& g) {
  std::vector<std::pair<TermId, size_t>> out;
  g.ForEachSubject([&out](TermId s, std::span<const Triple> triples) {
    out.emplace_back(s, triples.size());
  });
  return out;
}

TEST(GraphTest, SubjectGroups) {
  Graph g;
  g.AddIri("s2", "p1", "o1");
  g.AddIri("s1", "p1", "o1");
  g.AddIri("s1", "p2", "o2");
  const auto groups = SubjectGroupSizes(g);
  ASSERT_EQ(groups.size(), 2u);
  // Groups are sorted by subject id; s2 was interned first, so it comes
  // first.
  EXPECT_EQ(groups[0].first, g.dict().LookupIri("s2"));
  EXPECT_EQ(groups[0].second, 1u);
  EXPECT_EQ(groups[1].first, g.dict().LookupIri("s1"));
  EXPECT_EQ(groups[1].second, 2u);
}

TEST(GraphTest, SubjectGroupsRebuildAfterChange) {
  Graph g;
  g.AddIri("s1", "p1", "o1");
  EXPECT_EQ(SubjectGroupSizes(g).size(), 1u);
  g.AddIri("s2", "p1", "o1");
  EXPECT_EQ(SubjectGroupSizes(g).size(), 2u);
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
