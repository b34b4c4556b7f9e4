#include <gtest/gtest.h>

#include <cstdint>

#include "engines/dataset.h"
#include "rdf/ntriples.h"
#include "workload/bsbm.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace rapida::workload {
namespace {

TEST(BsbmTest, Deterministic) {
  BsbmConfig cfg;
  cfg.num_products = 100;
  rdf::Graph a = GenerateBsbm(cfg);
  rdf::Graph b = GenerateBsbm(cfg);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.triples(), b.triples());
}

TEST(BsbmTest, ScalesWithProducts) {
  BsbmConfig small, big;
  small.num_products = 100;
  big.num_products = 400;
  EXPECT_GT(GenerateBsbm(big).size(), 3 * GenerateBsbm(small).size());
}

TEST(BsbmTest, TypeSkew) {
  BsbmConfig cfg;
  cfg.num_products = 1000;
  rdf::Graph g = GenerateBsbm(cfg);
  rdf::TermId type = g.TypeIdOrInvalid();
  ASSERT_NE(type, rdf::kInvalidTermId);
  rdf::TermId pt1 = g.dict().LookupIri(std::string(kBsbmNs) + "ProductType1");
  rdf::TermId pt10 =
      g.dict().LookupIri(std::string(kBsbmNs) + "ProductType10");
  ASSERT_NE(pt1, rdf::kInvalidTermId);
  int n1 = 0, n10 = 0;
  for (const rdf::Triple& t : g.triples()) {
    if (t.p != type) continue;
    if (t.o == pt1) ++n1;
    if (t.o == pt10) ++n10;
  }
  // ProductType1 is Zipf-popular (lo selectivity); the last type is rare.
  EXPECT_GT(n1, 5 * std::max(n10, 1));
}

TEST(ChemTest, HasExpectedProperties) {
  ChemConfig cfg;
  rdf::Graph g = GenerateChem2Bio(cfg);
  for (const char* p : {"CID", "gi", "assay_gi", "geneSymbol", "gene", "DBID", "medline_gene",
                        "Generic_Name", "protein", "Pathway_name",
                        "pathwayid", "side_effect", "cid", "SwissProt_ID",
                        "disease"}) {
    EXPECT_NE(g.dict().LookupIri(std::string(kChemNs) + p),
              rdf::kInvalidTermId)
        << p;
  }
  // Dexamethasone exists (G5 anchor).
  EXPECT_NE(g.dict().Lookup(rdf::Term::Literal("Dexamethasone")),
            rdf::kInvalidTermId);
}

TEST(ChemTest, MedlineIsTheLargeRelation) {
  ChemConfig cfg;
  rdf::Graph g = GenerateChem2Bio(cfg);
  auto counts = g.PropertyCounts();
  uint64_t gene_on_pubs =
      counts[g.dict().LookupIri(std::string(kChemNs) + "medline_gene")];
  uint64_t drug_names =
      counts[g.dict().LookupIri(std::string(kChemNs) + "Generic_Name")];
  // ?pmid :gene rows dominate drug metadata by an order of magnitude.
  EXPECT_GT(gene_on_pubs, 10 * drug_names);
}

TEST(PubmedTest, MultiValuedFanout) {
  PubmedConfig cfg;
  cfg.num_publications = 500;
  rdf::Graph g = GeneratePubmed(cfg);
  auto counts = g.PropertyCounts();
  uint64_t mesh =
      counts[g.dict().LookupIri(std::string(kPubmedNs) + "mesh_heading")];
  uint64_t pubs =
      counts[g.dict().LookupIri(std::string(kPubmedNs) + "pub_type")];
  EXPECT_GT(mesh, 4 * pubs);  // heavy multi-valued property
}

TEST(PubmedTest, NewsIsRare) {
  PubmedConfig cfg;
  cfg.num_publications = 1000;
  rdf::Graph g = GeneratePubmed(cfg);
  rdf::TermId news = g.dict().Lookup(rdf::Term::Literal("News"));
  rdf::TermId ja = g.dict().Lookup(rdf::Term::Literal("Journal Article"));
  ASSERT_NE(news, rdf::kInvalidTermId);
  ASSERT_NE(ja, rdf::kInvalidTermId);
  int n_news = 0, n_ja = 0;
  for (const rdf::Triple& t : g.triples()) {
    if (t.o == news) ++n_news;
    if (t.o == ja) ++n_ja;
  }
  EXPECT_GT(n_ja, 5 * n_news);
  EXPECT_GT(n_news, 0);
}


TEST(WorkloadRoundTripTest, GeneratedGraphsSurviveNTriplesRoundTrip) {
  BsbmConfig cfg;
  cfg.num_products = 60;
  rdf::Graph g = GenerateBsbm(cfg);
  std::string text = rdf::WriteNTriples(g);
  rdf::Graph reloaded;
  ASSERT_TRUE(rdf::ParseNTriples(text, &reloaded).ok());
  EXPECT_EQ(reloaded.size(), g.size());
  EXPECT_EQ(rdf::WriteNTriples(reloaded), text);
}

/// Content hash, triple count and term count of one generated dataset.
struct Pin {
  uint64_t content_hash;
  size_t triples;
  size_t terms;
};

Pin PinOf(rdf::Graph g) {
  const size_t triples = g.size();
  const size_t terms = g.dict().size();
  engine::Dataset dataset(std::move(g));
  return Pin{dataset.ContentHash(), triples, terms};
}

// The generators' output at seed 1, pinned: content hash (order-free, over
// the N-Triples text), triple count and term count. Any change to the
// random draws or to the order or set of what gets interned moves these.
TEST(GeneratorPinTest, OutputAtSeedOneIsPinned) {
  BsbmConfig bsbm_large;
  bsbm_large.num_products = 8000;
  bsbm_large.seed = 1;
  BsbmConfig bsbm;
  bsbm.seed = 1;
  PubmedConfig pubmed_small;
  pubmed_small.num_publications = 1500;
  pubmed_small.seed = 1;
  PubmedConfig pubmed;
  pubmed.seed = 1;
  ChemConfig chem;
  chem.seed = 1;
  const struct {
    const char* name;
    Pin got;
    Pin want;
  } kCases[] = {
      {"bsbm(8000)", PinOf(GenerateBsbm(bsbm_large)),
       {0x209252c458793940ull, 126197, 61432}},
      {"pubmed(1500)", PinOf(GeneratePubmed(pubmed_small)),
       {0x2b9d6b08d16372ebull, 23458, 2744}},
      {"bsbm", PinOf(GenerateBsbm(bsbm)),
       {0x2ff0f5b3454a90bcull, 15813, 9950}},
      {"chem2bio", PinOf(GenerateChem2Bio(chem)),
       {0xdbd008eed32215adull, 24348, 9212}},
      {"pubmed", PinOf(GeneratePubmed(pubmed)),
       {0x2bdfd037465987bfull, 30962, 3244}},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(c.got.content_hash, c.want.content_hash) << c.name;
    EXPECT_EQ(c.got.triples, c.want.triples) << c.name;
    EXPECT_EQ(c.got.terms, c.want.terms) << c.name;
  }
}

}  // namespace
}  // namespace rapida::workload
