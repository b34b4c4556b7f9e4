// Fuzz-ish robustness: serialization parsers and the SPARQL front end must
// reject (not crash on) arbitrary byte soup; log plumbing and counter
// rendering behave.
#include <gtest/gtest.h>

#include "analytics/reference_evaluator.h"

#include <string>

#include "engines/relational_ops.h"
#include "mapreduce/counters.h"
#include "ntga/triplegroup.h"
#include "sparql/parser.h"
#include "testing/query_gen.h"
#include "util/logging.h"
#include "util/random.h"

namespace rapida {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Printable-ish range plus separators the codecs care about.
    const char* alphabet = "0123456789;,#:|abcXYZ \t{}()?<>\".";
    out += alphabet[rng->Uniform(33)];
  }
  return out;
}

TEST(RobustnessTest, TriplegroupParsersNeverCrash) {
  Random rng(424242);
  int parsed_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string input = RandomBytes(&rng, 60);
    auto tg = ntga::ParseTripleGroup(input);
    if (tg.ok()) ++parsed_ok;
    auto nested = ntga::ParseNested(input, 3);
    (void)nested;
    std::vector<rdf::TermId> row;
    engine::DecodeRowInto(input, &row);
  }
  // Some random inputs happen to be valid — that's fine; the point is no
  // crash and no false hard failure.
  EXPECT_GE(parsed_ok, 0);
}

TEST(RobustnessTest, SparqlParserNeverCrashesOnGarbage) {
  Random rng(777);
  for (int i = 0; i < 1000; ++i) {
    std::string input = "SELECT " + RandomBytes(&rng, 80);
    auto q = sparql::ParseQuery(input);
    (void)q;  // ok or ParseError, never a crash
    if (!q.ok()) {
      EXPECT_EQ(q.status().code(), Code::kParseError);
    }
  }
}

TEST(RobustnessTest, SerializationRoundTripUnderRandomIds) {
  Random rng(99);
  for (int i = 0; i < 200; ++i) {
    ntga::TripleGroup tg;
    tg.subject = static_cast<rdf::TermId>(1 + rng.Uniform(1u << 30));
    int n = static_cast<int>(rng.Uniform(8));
    for (int t = 0; t < n; ++t) {
      tg.triples.push_back(rdf::Triple{
          tg.subject, static_cast<rdf::TermId>(1 + rng.Uniform(1u << 30)),
          static_cast<rdf::TermId>(1 + rng.Uniform(1u << 30))});
    }
    auto parsed = ntga::ParseTripleGroup(ntga::SerializeTripleGroup(tg));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, tg);
  }
}

TEST(RobustnessTest, GeneratedQueriesRoundTripThroughPrinter) {
  // Property: for every query the fuzzer can generate, printing it and
  // re-parsing the text yields a structurally identical AST, and printing
  // is a fixed point (print(parse(print(q))) == print(q)). This pins the
  // printer/parser pair the shrinker relies on (it clones via re-parse).
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Random rng(seed);
    std::string dataset;
    auto query = difftest::GenerateAnyQuery(&rng, &dataset);
    std::string text = query->ToString();
    auto reparsed = sparql::ParseQuery(text);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status() << "\n" << text;
    EXPECT_TRUE(sparql::Equals(*query, **reparsed))
        << "seed " << seed << " round-trip changed the AST:\n" << text
        << "\nreprinted:\n" << (*reparsed)->ToString();
    EXPECT_EQ(text, (*reparsed)->ToString()) << "seed " << seed;
  }
}

TEST(RobustnessTest, UnaryMinusInExpressions) {
  rdf::Graph g;
  g.AddInt("s1", "v", -5);
  g.AddInt("s2", "v", 5);
  auto q = sparql::ParseQuery("SELECT ?s { ?s <v> ?x . FILTER(?x < -1) }");
  ASSERT_TRUE(q.ok()) << q.status();
  analytics::ReferenceEvaluator ref(&g);
  auto r = ref.Evaluate(**q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 1u);

  auto q2 = sparql::ParseQuery(
      "SELECT ?s { ?s <v> ?x . FILTER(-?x = 5) }");
  ASSERT_TRUE(q2.ok()) << q2.status();
  auto r2 = ref.Evaluate(**q2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->NumRows(), 1u);
  EXPECT_EQ(g.dict().Get(r2->rows()[0][0]).text, "s1");
}

TEST(RobustnessTest, WorkflowStatsToStringRenders) {
  mr::WorkflowStats stats;
  mr::JobStats j;
  j.name = "join0";
  j.input_bytes = 1024;
  j.shuffle_bytes = 2048;
  j.output_bytes = 512;
  j.sim_seconds = 12.5;
  stats.jobs.push_back(j);
  j.name = "agg";
  j.map_only = true;
  stats.jobs.push_back(j);
  std::string s = stats.ToString();
  EXPECT_NE(s.find("2 cycles"), std::string::npos);
  EXPECT_NE(s.find("join0"), std::string::npos);
  EXPECT_NE(s.find("[map]"), std::string::npos);
  EXPECT_NE(s.find("[map+red]"), std::string::npos);
}

TEST(RobustnessTest, LogLevelGating) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  RAPIDA_LOG(Info) << "suppressed";
  RAPIDA_LOG(Warning) << "suppressed";
  SetLogLevel(old);
}

}  // namespace
}  // namespace rapida
