#include "workload/pubmed.h"

#include <string>

#include "rdf/term.h"
#include "util/random.h"

namespace rapida::workload {

namespace {
std::string N(const std::string& local) { return kPubmedNs + local; }

/// Draws a count with the given mean: floor(mean) plus a Bernoulli for the
/// fractional part, minimum 1.
int DrawCount(Random* rng, double mean) {
  int base = static_cast<int>(mean);
  int n = base + (rng->Bernoulli(mean - base) ? 1 : 0);
  return n < 1 ? 1 : n;
}
}  // namespace

rdf::Graph GeneratePubmed(const PubmedConfig& config) {
  rdf::Graph g;
  Random rng(config.seed);

  const ZipfTable agency_zipf(config.num_agencies, 0.8);
  const ZipfTable country_zipf(config.num_countries, 0.7);
  const ZipfTable last_name_zipf(config.num_authors / 3 + 1, 0.9);
  const ZipfTable journal_zipf(config.num_journals, 0.9);
  const ZipfTable author_zipf(config.num_authors, 0.6);
  const ZipfTable mesh_zipf(config.num_mesh_terms, 0.8);
  const ZipfTable chemical_zipf(config.num_chemicals, 0.8);

  // Grants: agency + country.
  for (int i = 0; i < config.num_grants; ++i) {
    std::string grant = N("Grant" + std::to_string(i + 1));
    uint64_t a = agency_zipf.Sample(&rng);
    g.AddIri(grant, N("grant_agency"),
             N("Agency" + std::to_string(a + 1)));
    uint64_t c = country_zipf.Sample(&rng);
    g.AddLit(grant, N("grant_country"),
             "Country" + std::to_string(c + 1));
  }

  // Authors: last names (shared across some authors, as in real data).
  for (int i = 0; i < config.num_authors; ++i) {
    std::string author = N("Author" + std::to_string(i + 1));
    uint64_t ln = last_name_zipf.Sample(&rng);
    g.AddLit(author, N("last_name"), "Name" + std::to_string(ln + 1));
  }

  // Publications.
  for (int i = 0; i < config.num_publications; ++i) {
    std::string pub = N("Pub" + std::to_string(i + 1));
    bool news = rng.Bernoulli(config.news_fraction);
    g.AddLit(pub, N("pub_type"), news ? "News" : "Journal Article");
    uint64_t j = journal_zipf.Sample(&rng);
    g.AddIri(pub, N("journal"), N("Journal" + std::to_string(j + 1)));

    int n_grants = rng.Bernoulli(0.8)
                       ? DrawCount(&rng, config.grants_per_publication)
                       : 0;
    for (int k = 0; k < n_grants; ++k) {
      uint64_t gr = rng.Uniform(config.num_grants);
      g.AddIri(pub, N("grant"), N("Grant" + std::to_string(gr + 1)));
    }
    int n_authors = DrawCount(&rng, config.authors_per_publication);
    for (int k = 0; k < n_authors; ++k) {
      uint64_t a = author_zipf.Sample(&rng);
      g.AddIri(pub, N("author"), N("Author" + std::to_string(a + 1)));
    }
    int n_mesh = DrawCount(&rng, config.mesh_per_publication);
    for (int k = 0; k < n_mesh; ++k) {
      uint64_t m = mesh_zipf.Sample(&rng);
      g.AddIri(pub, N("mesh_heading"), N("Mesh" + std::to_string(m + 1)));
    }
    int n_chem = DrawCount(&rng, config.chemicals_per_publication);
    for (int k = 0; k < n_chem; ++k) {
      uint64_t c = chemical_zipf.Sample(&rng);
      g.AddIri(pub, N("chemical"), N("Chemical" + std::to_string(c + 1)));
    }
  }
  return g;
}

}  // namespace rapida::workload
