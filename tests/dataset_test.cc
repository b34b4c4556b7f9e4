#include "engines/dataset.h"
#include <algorithm>

#include <gtest/gtest.h>

#include "records_of.h"
#include "workload/bsbm.h"

namespace rapida::engine {
namespace {

rdf::Graph SmallGraph() {
  rdf::Graph g;
  g.AddIri("p1", rdf::kRdfType, "T1");
  g.AddLit("p1", "label", "one");
  g.AddIri("p1", "feature", "f1");
  g.AddIri("p2", rdf::kRdfType, "T2");
  g.AddLit("p2", "label", "two");
  g.AddIri("o1", "product", "p1");
  g.AddInt("o1", "price", 10);
  g.AddIri("o2", "product", "p2");
  g.AddInt("o2", "price", 20);
  return g;
}

TEST(DatasetTest, VpTablesPartitionByPropertyAndTypeObject) {
  Dataset d(SmallGraph());
  ASSERT_TRUE(d.EnsureVpTables().ok());
  const rdf::Dictionary& dict = d.graph().dict();

  std::string price = d.VpFile(dict.LookupIri("price"));
  ASSERT_FALSE(price.empty());
  auto f = d.dfs().Open(price);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->size(), 2u);

  // rdf:type gets per-object partitions, no generic table.
  EXPECT_TRUE(d.VpFile(d.type_id()).empty());
  std::string t1 = d.VpTypeFile(dict.LookupIri("T1"));
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ((*d.dfs().Open(t1))->size(), 1u);

  EXPECT_TRUE(d.VpFile(dict.LookupIri("nope")).empty());
  EXPECT_GT(d.VpFileBytes(price), 0u);
  EXPECT_EQ(d.VpFileBytes(""), 0u);
}

TEST(DatasetTest, VpTablesCompressedByDefault) {
  Dataset::Options opts;
  opts.orc_ratio = 0.1;
  Dataset d(SmallGraph(), opts);
  ASSERT_TRUE(d.EnsureVpTables().ok());
  std::string price = d.VpFile(d.graph().dict().LookupIri("price"));
  auto f = d.dfs().Open(price);
  EXPECT_LT((*f)->stored_bytes, (*f)->logical_bytes);
}

TEST(DatasetTest, TripleGroupsPartitionedByEquivalenceClass) {
  Dataset d(SmallGraph());
  ASSERT_TRUE(d.EnsureTripleGroups().ok());
  // ECs: {type,label,feature} (p1), {type,label} (p2), {product,price}
  // (o1,o2) -> 3 files.
  EXPECT_EQ(d.TgFilesCovering({}).size(), 3u);

  const rdf::Dictionary& dict = d.graph().dict();
  rdf::TermId product = dict.LookupIri("product");
  rdf::TermId price = dict.LookupIri("price");
  rdf::TermId label = dict.LookupIri("label");

  // Offers EC covers {product, price}.
  auto offer_files = d.TgFilesCovering({product, price});
  ASSERT_EQ(offer_files.size(), 1u);
  EXPECT_EQ((*d.dfs().Open(offer_files[0]))->size(), 2u);

  // {label} is covered by both product ECs.
  EXPECT_EQ(d.TgFilesCovering({label}).size(), 2u);
  // An empty requirement matches every file.
  EXPECT_EQ(d.TgFilesCovering({}).size(), 3u);
  // Unknown property: no file.
  EXPECT_TRUE(d.TgFilesCovering({dict.LookupIri("price"),
                                 dict.LookupIri("label")})
                  .empty());
}

TEST(DatasetTest, EnsureIsIdempotent) {
  Dataset d(SmallGraph());
  ASSERT_TRUE(d.EnsureVpTables().ok());
  ASSERT_TRUE(d.EnsureTripleGroups().ok());
  uint64_t bytes = d.dfs().TotalStoredBytes();
  ASSERT_TRUE(d.EnsureVpTables().ok());
  ASSERT_TRUE(d.EnsureTripleGroups().ok());
  EXPECT_EQ(d.dfs().TotalStoredBytes(), bytes);
}

TEST(DatasetTest, BothLayoutsCarryEveryTriple) {
  workload::BsbmConfig cfg;
  cfg.num_products = 80;
  Dataset d(workload::GenerateBsbm(cfg));
  ASSERT_TRUE(d.EnsureVpTables().ok());
  ASSERT_TRUE(d.EnsureTripleGroups().ok());

  size_t vp_rows = 0;
  size_t tg_triples = 0;
  for (const std::string& f : d.dfs().ListFiles()) {
    auto file = d.dfs().Open(f);
    ASSERT_TRUE(file.ok());
    if (f.rfind("vp:", 0) == 0) {
      vp_rows += (*file)->size();
    } else {
      for (const auto& [key, value] : RecordsOf(**file)) {
        // Count ';' separators = triple count per group.
        tg_triples += static_cast<size_t>(
            std::count(value.begin(), value.end(), ';'));
      }
    }
  }
  EXPECT_EQ(vp_rows, d.graph().size());
  EXPECT_EQ(tg_triples, d.graph().size());
}


TEST(DatasetTest, SingleFileModeCoversEverything) {
  Dataset::Options opts;
  opts.tg_partition_by_ec = false;
  Dataset d(SmallGraph(), opts);
  ASSERT_TRUE(d.EnsureTripleGroups().ok());
  EXPECT_EQ(d.TgFilesCovering({}).size(), 1u);
  const rdf::Dictionary& dict = d.graph().dict();
  // Every property request resolves to the single file.
  EXPECT_EQ(d.TgFilesCovering({dict.LookupIri("price")}).size(), 1u);
  EXPECT_EQ(d.TgFilesCovering({dict.LookupIri("label")}).size(), 1u);
  EXPECT_EQ(d.TgFilesCovering({}).size(), 1u);
}

}  // namespace
}  // namespace rapida::engine
