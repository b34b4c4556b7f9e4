#include "workload/bsbm.h"

#include <string>

#include "rdf/term.h"
#include "util/random.h"

namespace rapida::workload {

namespace {
std::string N(const std::string& local) { return kBsbmNs + local; }
}  // namespace

rdf::Graph GenerateBsbm(const BsbmConfig& config) {
  rdf::Graph g;
  Random rng(config.seed);

  const std::string type_p = rdf::kRdfType;
  const std::string label_p = N("label");
  const std::string feature_p = N("productFeature");
  const std::string product_p = N("product");
  const std::string price_p = N("price");
  const std::string vendor_p = N("vendor");
  const std::string country_p = N("country");
  const std::string valid_from_p = N("validFrom");
  const std::string valid_to_p = N("validTo");

  const ZipfTable country_zipf(config.num_countries, 0.8);
  const ZipfTable type_zipf(config.num_product_types, 1.1);
  const ZipfTable feature_zipf(config.num_features, 0.7);

  // Vendors.
  for (int v = 0; v < config.num_vendors; ++v) {
    std::string vendor = N("Vendor" + std::to_string(v + 1));
    uint64_t c = country_zipf.Sample(&rng);
    g.AddIri(vendor, country_p, N("Country" + std::to_string(c + 1)));
  }

  // Products with Zipf-popular types and 1-4 features.
  for (int p = 0; p < config.num_products; ++p) {
    std::string product = N("Product" + std::to_string(p + 1));
    uint64_t t = type_zipf.Sample(&rng);
    g.AddIri(product, type_p, N("ProductType" + std::to_string(t + 1)));
    g.AddLit(product, label_p, "product label " + std::to_string(p + 1));
    int n_features = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < n_features; ++f) {
      uint64_t feat = feature_zipf.Sample(&rng);
      g.AddIri(product, feature_p,
               N("ProductFeature" + std::to_string(feat + 1)));
    }
  }

  // Offers.
  int64_t num_offers = static_cast<int64_t>(
      config.offers_per_product * config.num_products);
  for (int64_t o = 0; o < num_offers; ++o) {
    std::string offer = N("Offer" + std::to_string(o + 1));
    uint64_t p = rng.Uniform(config.num_products);
    g.AddIri(offer, product_p, N("Product" + std::to_string(p + 1)));
    g.AddInt(offer, price_p, 50 + static_cast<int64_t>(rng.Uniform(9950)));
    uint64_t v = rng.Uniform(config.num_vendors);
    g.AddIri(offer, vendor_p, N("Vendor" + std::to_string(v + 1)));
    if (rng.Bernoulli(config.optional_date_probability)) {
      g.AddInt(offer, valid_from_p,
               20140101 + static_cast<int64_t>(rng.Uniform(10000)));
    }
    if (rng.Bernoulli(config.optional_date_probability)) {
      g.AddInt(offer, valid_to_p,
               20150101 + static_cast<int64_t>(rng.Uniform(10000)));
    }
  }
  return g;
}

}  // namespace rapida::workload
