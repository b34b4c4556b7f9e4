#include "storage/artifact_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/dataset.h"
#include "engines/engines.h"
#include "mapreduce/cluster.h"
#include "mapreduce/record_io.h"
#include "rdf/graph.h"
#include "rdf/graph_index.h"
#include "sparql/parser.h"
#include "storage/ivm.h"
#include "workload/catalog.h"

namespace rapida::storage {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "rapida_storage_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// ---------------------------------------------------------------------------
// Record I/O payload format.

TEST(RecordIoTest, RoundTripKeepsEveryRecord) {
  mr::RecordBatch batch;
  batch.Add("k1", "value one");
  batch.Add("", "empty key");
  batch.Add("k3", "");
  batch.Add(std::string("\x00\x01\xff", 3), std::string("\xfe\x00", 2));

  std::string bytes;
  mr::AppendRecordBatch(batch, &bytes);

  mr::RecordBatch decoded;
  ASSERT_TRUE(mr::ParseRecordBatch(bytes, &decoded).ok());
  auto pairs = [](const mr::RecordBatch& b) {
    std::vector<std::pair<std::string, std::string>> out;
    b.ForEach([&out](const mr::Record& r, uint64_t) {
      out.emplace_back(std::string(r.key()), std::string(r.value()));
    });
    return out;
  };
  EXPECT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(decoded.LogicalBytes(), batch.LogicalBytes());
  EXPECT_EQ(pairs(decoded), pairs(batch));
}

TEST(RecordIoTest, EncodingIsPinnedByteForByte) {
  // Artifacts written by any earlier build must stay readable: the payload
  // is three u64 totals, then per record a u32-length-prefixed key and
  // value, all little-endian.
  mr::RecordBatch batch;
  batch.Add("ab", "xyz");
  batch.Add("", "q");
  std::string bytes;
  mr::AppendRecordBatch(batch, &bytes);
  const std::string want(
      "\x02\0\0\0\0\0\0\0"  // record count
      "\x02\0\0\0\0\0\0\0"  // key bytes
      "\x04\0\0\0\0\0\0\0"  // value bytes
      "\x02\0\0\0ab"
      "\x03\0\0\0xyz"
      "\0\0\0\0"
      "\x01\0\0\0q",
      24 + 6 + 7 + 4 + 5);
  EXPECT_EQ(bytes, want);
}

TEST(RecordIoTest, EveryTruncationIsTypedDataLoss) {
  mr::RecordBatch batch;
  batch.Add("alpha", "12345");
  batch.Add("beta", "67");
  std::string bytes;
  mr::AppendRecordBatch(batch, &bytes);

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    mr::RecordBatch decoded;
    Status st =
        mr::ParseRecordBatch(std::string_view(bytes).substr(0, cut), &decoded);
    EXPECT_EQ(st.code(), Code::kDataLoss) << "prefix of " << cut << " bytes";
  }
  // Trailing garbage is corruption too, not silently ignored.
  mr::RecordBatch decoded;
  EXPECT_EQ(mr::ParseRecordBatch(bytes + "x", &decoded).code(),
            Code::kDataLoss);
}

TEST(RecordIoTest, WrappingDeclaredCountIsDataLoss) {
  // A bit-flipped record count whose framing (8 bytes per record) wraps
  // around 2^64 must fail the size check, not reach the decode loop and
  // reserve room for 2^61 records.
  std::string bytes;
  mr::AppendU64(uint64_t{1} << 61, &bytes);  // 8 * count wraps to 0
  mr::AppendU64(1, &bytes);
  mr::AppendU64(0, &bytes);
  bytes.push_back('x');
  mr::RecordBatch decoded;
  EXPECT_EQ(mr::ParseRecordBatch(bytes, &decoded).code(), Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// Table (de)serialization: TermId-free, restart-safe.

TEST(SerializeTableTest, RoundTripsAcrossDictionaries) {
  rdf::Dictionary dict;
  analytics::BindingTable table({"s", "v", "n"});
  table.AddRow({dict.InternIri("http://x/a"),
                dict.Intern(rdf::Term::Literal("plain")),
                dict.InternInt(42)});
  table.AddRow({dict.Intern(rdf::Term::Blank("b0")), rdf::kInvalidTermId,
                dict.Intern(rdf::Term::Literal(
                    "3.5", "http://www.w3.org/2001/XMLSchema#double"))});

  mr::RecordBatch rows = SerializeTable(table, dict);

  // A fresh dictionary: no TermId from the writer survives.
  rdf::Dictionary fresh;
  fresh.InternIri("http://unrelated/padding");  // skew the id space
  auto decoded = DeserializeTable(rows, {"s", "v", "n"}, &fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ToSortedStrings(fresh), table.ToSortedStrings(dict));
  // The unbound cell survived as unbound.
  EXPECT_EQ(decoded->rows()[1][1], rdf::kInvalidTermId);
}

TEST(SerializeTableTest, MalformedCellsAreDataLoss) {
  mr::RecordBatch rows;
  rows.Add("", "\x09garbage");  // unknown cell kind tag
  rdf::Dictionary dict;
  EXPECT_EQ(DeserializeTable(rows, {"a"}, &dict).status().code(),
            Code::kDataLoss);

  mr::RecordBatch wrong_arity;
  wrong_arity.Add("", std::string(1, '\x00'));  // one cell, two columns
  EXPECT_EQ(DeserializeTable(wrong_arity, {"a", "b"}, &dict).status().code(),
            Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// Factorized (d-representation) artifact rows.

/// subjects x (mesh cross chemical): the decompressed star-join shape
/// FactorizeTable is built to recognize. 4 x 5 x 6 = 120 flat rows become
/// 4 groups of 1 + 5 + 6 records.
analytics::BindingTable CrossProductTable(rdf::Dictionary* dict) {
  analytics::BindingTable table({"p", "mesh", "chem"});
  for (int s = 0; s < 4; ++s) {
    rdf::TermId subj = dict->InternIri("http://x/pub" + std::to_string(s));
    std::vector<rdf::TermId> mesh, chem;
    for (int m = 0; m < 5; ++m) {
      mesh.push_back(dict->InternIri("http://x/mesh" + std::to_string(s) +
                                     "_" + std::to_string(m)));
    }
    for (int c = 0; c < 6; ++c) {
      chem.push_back(dict->InternIri("http://x/chem" + std::to_string(s) +
                                     "_" + std::to_string(c)));
    }
    for (rdf::TermId m : mesh) {
      for (rdf::TermId c : chem) table.AddRow({subj, m, c});
    }
  }
  return table;
}

TEST(FactorizeTableTest, CrossProductRoundTripsSmaller) {
  rdf::Dictionary dict;
  analytics::BindingTable table = CrossProductTable(&dict);

  Artifact art;
  art.meta.columns = {"p", "mesh", "chem"};
  ASSERT_TRUE(FactorizeTable(table, dict, &art.rows, &art.meta.factorization));
  EXPECT_EQ(art.meta.factorization, "b:0|f:1|f:2");

  // 4 groups x (1 base + 5 + 6 factor records) instead of 120 rows.
  EXPECT_EQ(art.rows.size(), 4u * 12u);

  uint64_t fact_bytes = art.rows.LogicalBytes();
  uint64_t flat_bytes = SerializeTable(table, dict).LogicalBytes();
  EXPECT_LT(fact_bytes * 5, flat_bytes);  // >= 5x smaller at this fanout

  rdf::Dictionary fresh;
  auto decoded = DeserializeArtifact(art, &fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->NumRows(), table.NumRows());
  // Byte-identical including row order, not just as a multiset.
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(fresh.Get(decoded->rows()[r][c]).text,
                dict.Get(table.rows()[r][c]).text)
          << "row " << r << " col " << c;
    }
  }
}

TEST(FactorizeTableTest, NonProductTablesStayFlat) {
  rdf::Dictionary dict;
  // A ragged run: subject a has pairs (m0,c0) and (m1,c1) — two distinct
  // values per column but only 2 rows, not the 4 a cross product needs.
  analytics::BindingTable ragged({"p", "m", "c"});
  rdf::TermId a = dict.InternIri("http://x/a");
  ragged.AddRow({a, dict.InternIri("http://x/m0"), dict.InternIri("http://x/c0")});
  ragged.AddRow({a, dict.InternIri("http://x/m1"), dict.InternIri("http://x/c1")});
  mr::RecordBatch rows;
  std::string spec;
  EXPECT_FALSE(FactorizeTable(ragged, dict, &rows, &spec));

  // A group-of-1 aggregate result factorizes trivially but saves nothing —
  // the size guard keeps it flat.
  analytics::BindingTable aggregates({"k", "n"});
  for (int i = 0; i < 8; ++i) {
    aggregates.AddRow({dict.InternIri("http://x/k" + std::to_string(i)),
                       dict.InternInt(i)});
  }
  EXPECT_FALSE(FactorizeTable(aggregates, dict, &rows, &spec));

  // Single-column tables have nothing to factor.
  analytics::BindingTable narrow({"k"});
  narrow.AddRow({dict.InternIri("http://x/k")});
  EXPECT_FALSE(FactorizeTable(narrow, dict, &rows, &spec));
}

TEST(FactorizeTableTest, MalformedFactorizedArtifactsAreDataLoss) {
  rdf::Dictionary dict;
  Artifact art;
  art.meta.columns = {"p", "m"};
  art.meta.factorization = "b:0|f:1";

  // A factor record before any group base.
  art.rows = mr::RecordBatch();
  {
    std::string cell;
    cell.push_back('\x01');  // IRI
    cell += std::string(4, '\x00');  // empty text
    art.rows.Add("f0", cell);
  }
  EXPECT_EQ(DeserializeArtifact(art, &dict).status().code(), Code::kDataLoss);

  // A factor index outside the spec.
  art.rows = mr::RecordBatch();
  {
    std::string cell;
    cell.push_back('\x01');
    cell += std::string(4, '\x00');
    art.rows.Add("g", cell);
    art.rows.Add("f7", cell);
  }
  EXPECT_EQ(DeserializeArtifact(art, &dict).status().code(), Code::kDataLoss);

  // A spec that misses a column entirely.
  Artifact bad_spec;
  bad_spec.meta.columns = {"p", "m", "c"};
  bad_spec.meta.factorization = "b:0|f:1";
  EXPECT_EQ(DeserializeArtifact(bad_spec, &dict).status().code(),
            Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// Artifact store: cold write / warm read, corruption, skew, eviction.

Artifact MakeArtifact(const std::string& fp, uint64_t hash,
                      const std::string& dataset, int rows = 3) {
  rdf::Dictionary dict;
  analytics::BindingTable table({"x", "y"});
  for (int i = 0; i < rows; ++i) {
    table.AddRow({dict.InternIri("http://x/r" + std::to_string(i)),
                  dict.InternInt(i)});
  }
  Artifact a;
  a.meta.plan_fingerprint = fp;
  a.meta.content_hash = hash;
  a.meta.dataset = dataset;
  a.meta.canonical_query = "SELECT ?x ?y { ?x <p> ?y . }";
  a.meta.ivm_class = IvmClassName(IvmClass::kAppend);
  a.meta.columns = {"x", "y"};
  a.rows = SerializeTable(table, dict);
  return a;
}

TEST(ArtifactStoreTest, FactorizedArtifactsPersistAndCountInStats) {
  rdf::Dictionary dict;
  analytics::BindingTable table = CrossProductTable(&dict);
  Artifact art = MakeArtifact("fact", 7, "pubmed");
  art.meta.columns = {"p", "mesh", "chem"};
  ASSERT_TRUE(FactorizeTable(table, dict, &art.rows, &art.meta.factorization));

  ArtifactStore::Options opts;
  opts.dir = TempDir("fact");
  {
    auto store = ArtifactStore::Open(opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(art).ok());
    ASSERT_TRUE((*store)->Put(MakeArtifact("flat", 7, "pubmed")).ok());
    EXPECT_EQ((*store)->stats().artifacts, 2u);
    EXPECT_EQ((*store)->stats().factorized, 1u);
    EXPECT_NE((*store)->StatsJson().find("\"factorized_artifacts\":1"),
              std::string::npos);
  }
  // The spec (and the counter) survive a restart.
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().factorized, 1u);
  auto got = (*store)->Get("fact", 7);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->meta.factorization, "b:0|f:1|f:2");
  rdf::Dictionary fresh;
  auto decoded = DeserializeArtifact(*got, &fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->NumRows(), 120u);
  // The factorized file on disk is charged at its (small) serialized
  // size: well under what 120 flat rows of IRIs would cost.
  EXPECT_LT((*store)->stats().bytes_used, 4096u);
}

TEST(ArtifactStoreTest, ColdWriteWarmReadAcrossOpens) {
  ArtifactStore::Options opts;
  opts.dir = TempDir("warm");
  {
    auto store = ArtifactStore::Open(opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->Put(MakeArtifact("fp1", 7, "ds")).ok());
    EXPECT_EQ((*store)->stats().puts, 1u);
    EXPECT_EQ((*store)->stats().artifacts, 1u);
  }
  // A second open over the same directory — the restart path.
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->stats().artifacts, 1u);

  auto art = (*store)->Get("fp1", 7);
  ASSERT_TRUE(art.ok()) << art.status();
  EXPECT_EQ(art->meta.plan_fingerprint, "fp1");
  EXPECT_EQ(art->meta.content_hash, 7u);
  EXPECT_EQ(art->meta.dataset, "ds");
  EXPECT_EQ(art->meta.ivm_class, "append");
  ASSERT_EQ(art->meta.columns.size(), 2u);

  rdf::Dictionary dict;
  auto table = DeserializeTable(art->rows, art->meta.columns, &dict);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->NumRows(), 3u);

  EXPECT_EQ((*store)->Get("fp1", 8).status().code(), Code::kNotFound);
  EXPECT_EQ((*store)->Get("other", 7).status().code(), Code::kNotFound);
}

TEST(ArtifactStoreTest, ListForDatasetFiltersByKey) {
  ArtifactStore::Options opts;
  opts.dir = TempDir("list");
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp1", 7, "ds")).ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp2", 7, "ds")).ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp3", 8, "ds")).ok());   // old hash
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp4", 7, "other")).ok());
  EXPECT_EQ((*store)->ListForDataset("ds", 7).size(), 2u);
  EXPECT_EQ((*store)->ListForDataset("ds", 8).size(), 1u);
  EXPECT_EQ((*store)->ListForDataset("nope", 7).size(), 0u);
}

TEST(ArtifactStoreTest, TruncationIsDataLossAndQuarantines) {
  ArtifactStore::Options opts;
  opts.dir = TempDir("trunc");
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp1", 7, "ds")).ok());

  std::string path =
      opts.dir + "/" + ArtifactStore::ArtifactName("fp1", 7);
  uint64_t full = fs::file_size(path);
  fs::resize_file(path, full / 2);

  EXPECT_EQ((*store)->Get("fp1", 7).status().code(), Code::kDataLoss);
  EXPECT_EQ((*store)->stats().corrupt, 1u);
  // Quarantined: the artifact stops being offered, the bytes remain for
  // forensics under a .quarantine name.
  EXPECT_EQ((*store)->Get("fp1", 7).status().code(), Code::kNotFound);
  EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactStoreTest, BitFlipsAreDataLossNeverACrash) {
  // Flip one byte at a sweep of offsets; every position must produce a
  // typed error (or, for bytes past the checked payload, a clean read) —
  // never a crash or a malformed decode.
  ArtifactStore::Options opts;
  opts.dir = TempDir("flip");
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok());
  Artifact clean = MakeArtifact("fp1", 7, "ds");

  std::string path = opts.dir + "/" + ArtifactStore::ArtifactName("fp1", 7);
  ASSERT_TRUE((*store)->Put(clean).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    auto got = (*store)->Get("fp1", 7);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().code() == Code::kDataLoss ||
                  got.status().code() == Code::kUnimplemented)
          << "flip at " << i << ": " << got.status().ToString();
      // Re-publish (the flip may have quarantined the file).
      ASSERT_TRUE((*store)->Put(clean).ok());
    }
  }
}

TEST(ArtifactStoreTest, FutureFormatIsUnimplementedAndLeftAlone) {
  ArtifactStore::Options opts;
  opts.dir = TempDir("skew");
  auto store = ArtifactStore::Open(opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("fp1", 7, "ds")).ok());

  std::string path = opts.dir + "/" + ArtifactStore::ArtifactName("fp1", 7);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(7);  // the trailing container-version digit of "RAPSTOR1"
  f.put('2');
  f.close();

  EXPECT_EQ((*store)->Get("fp1", 7).status().code(), Code::kUnimplemented);
  // Not quarantined — a newer writer owns this file.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ((*store)->stats().corrupt, 0u);

  // A restart skips (but does not destroy) the future file.
  auto reopened = ArtifactStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().artifacts, 0u);
  EXPECT_TRUE(fs::exists(path));
}

TEST(ArtifactStoreTest, LruEvictionUnderByteBudget) {
  Artifact probe = MakeArtifact("probe", 0, "ds");
  ArtifactStore::Options opts;
  opts.dir = TempDir("lru_probe");
  auto probe_store = ArtifactStore::Open(opts);
  ASSERT_TRUE(probe_store.ok());
  ASSERT_TRUE((*probe_store)->Put(probe).ok());
  uint64_t one = (*probe_store)->stats().bytes_used;
  ASSERT_GT(one, 0u);

  ArtifactStore::Options budgeted;
  budgeted.dir = TempDir("lru");
  budgeted.byte_budget = 2 * one + one / 2;  // room for two artifacts
  auto store = ArtifactStore::Open(budgeted);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("a", 1, "ds")).ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("b", 1, "ds")).ok());
  EXPECT_EQ((*store)->stats().evictions, 0u);

  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE((*store)->Get("a", 1).ok());
  ASSERT_TRUE((*store)->Put(MakeArtifact("c", 1, "ds")).ok());
  EXPECT_EQ((*store)->stats().evictions, 1u);
  EXPECT_EQ((*store)->Get("b", 1).status().code(), Code::kNotFound);
  EXPECT_TRUE((*store)->Get("a", 1).ok());
  EXPECT_TRUE((*store)->Get("c", 1).ok());
  EXPECT_LE((*store)->stats().bytes_used, budgeted.byte_budget);

  // An artifact bigger than the whole budget must not wedge the store:
  // it becomes the only resident artifact rather than an eviction loop.
  ArtifactStore::Options tiny;
  tiny.dir = TempDir("lru_tiny");
  tiny.byte_budget = one / 2;
  auto small = ArtifactStore::Open(tiny);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE((*small)->Put(MakeArtifact("big", 1, "ds")).ok());
  EXPECT_TRUE((*small)->Get("big", 1).ok());
}

// ---------------------------------------------------------------------------
// Maintainability classification.

/// Products with features and offers — enough structure for two-star
/// patterns with aggregates.
rdf::Graph BuildMiniGraph() {
  rdf::Graph g;
  for (const char* p : {"p1", "p2", "p3"}) {
    g.AddIri(p, rdf::kRdfType, "PT1");
  }
  g.AddIri("p1", "feature", "f1");
  g.AddIri("p2", "feature", "f1");
  g.AddIri("p3", "feature", "f2");
  struct Offer {
    const char* id;
    const char* product;
    int price;
  };
  for (const Offer& o : std::initializer_list<Offer>{
           {"o1", "p1", 100}, {"o2", "p2", 80}, {"o3", "p3", 300}}) {
    g.AddIri(o.id, "product", o.product);
    g.AddInt(o.id, "price", o.price);
  }
  return g;
}

IvmDecision Classify(const std::string& sparql) {
  auto parsed = sparql::ParseQuery(sparql);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  EXPECT_TRUE(query.ok()) << query.status();
  return ClassifyMaintainability(*query);
}

TEST(ClassifyTest, PatchableClasses) {
  EXPECT_EQ(Classify("SELECT ?f (SUM(?pr) AS ?s) (COUNT(?pr) AS ?c) { "
                     "?p <feature> ?f . ?o <product> ?p . ?o <price> ?pr . } "
                     "GROUP BY ?f")
                .cls,
            IvmClass::kGroupAgg);
  EXPECT_EQ(Classify("SELECT ?f (MIN(?pr) AS ?lo) (MAX(?pr) AS ?hi) { "
                     "?o <product> ?f . ?o <price> ?pr . } GROUP BY ?f")
                .cls,
            IvmClass::kGroupAgg);
  // DISTINCT desugars to an aggregate-free grouping on the projected
  // columns — either spelling classifies the same way.
  EXPECT_EQ(Classify("SELECT DISTINCT ?f { ?p <feature> ?f . }").cls,
            IvmClass::kDistinct);
  EXPECT_EQ(Classify("SELECT ?f { ?p <feature> ?f . } GROUP BY ?f").cls,
            IvmClass::kDistinct);
}

TEST(ClassifyTest, AppendClassCoversBareProjectionAlgebra) {
  // Multiplicity-preserving projections are outside the MapReduce engine
  // subset (the analyzer rejects them with guidance) …
  auto parsed = sparql::ParseQuery(
      "SELECT ?p ?pr { ?o <product> ?p . ?o <price> ?pr . }");
  ASSERT_TRUE(parsed.ok());
  auto rejected = analytics::AnalyzeQuery(**parsed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Code::kInvalidArgument);

  // … but the patch algebra still covers them: an aggregate-free grouping
  // with no keys (the shape a future projection subset would produce)
  // classifies kAppend.
  auto distinct = sparql::ParseQuery(
      "SELECT DISTINCT ?p ?pr { ?o <product> ?p . ?o <price> ?pr . }");
  ASSERT_TRUE(distinct.ok());
  auto query = analytics::AnalyzeQuery(**distinct);
  ASSERT_TRUE(query.ok()) << query.status();
  query->groupings[0].group_by.clear();
  query->top_distinct = false;
  EXPECT_EQ(ClassifyMaintainability(*query).cls, IvmClass::kAppend);
}

TEST(ClassifyTest, NonPatchableConstructs) {
  // AVG does not merge from partial states we store.
  EXPECT_EQ(Classify("SELECT ?f (AVG(?pr) AS ?a) { ?o <product> ?f . "
                     "?o <price> ?pr . } GROUP BY ?f")
                .cls,
            IvmClass::kNone);
  // HAVING re-filters groups after the merge.
  EXPECT_EQ(Classify("SELECT ?f (SUM(?pr) AS ?s) { ?o <product> ?f . "
                     "?o <price> ?pr . } GROUP BY ?f HAVING (?s > 10)")
                .cls,
            IvmClass::kNone);
  // Solution modifiers reshape the final row set.
  EXPECT_EQ(Classify("SELECT ?f (SUM(?pr) AS ?s) { ?o <product> ?f . "
                     "?o <price> ?pr . } GROUP BY ?f ORDER BY ?s LIMIT 5")
                .cls,
            IvmClass::kNone);
  // OPTIONAL (non-conjunctive) patterns can retract the unbound row.
  EXPECT_EQ(Classify("SELECT ?p (COUNT(?o) AS ?c) { ?o <product> ?p . "
                     "OPTIONAL { ?o <vendor> ?v . } } GROUP BY ?p")
                .cls,
            IvmClass::kNone);
  // Every kNone decision names its blocker for EXPLAIN.
  EXPECT_FALSE(Classify("SELECT DISTINCT ?p { ?o <product> ?p . } LIMIT 1")
                   .detail.empty());
}

TEST(ClassifyTest, DistinctProjectionsExecuteOnEveryEngine) {
  // The DISTINCT desugaring only earns its keep if the zero-aggregate
  // grouping it produces actually runs on the MapReduce engines; every
  // engine must agree with the reference evaluator.
  for (const char* sparql :
       {"SELECT DISTINCT ?f { ?p <feature> ?f . }",
        "SELECT DISTINCT ?f ?pr { ?p <feature> ?f . ?o <product> ?p . "
        "?o <price> ?pr . }",
        "SELECT ?f { ?p a <PT1> . ?p <feature> ?f . } GROUP BY ?f"}) {
    auto parsed = sparql::ParseQuery(sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto query = analytics::AnalyzeQuery(**parsed);
    ASSERT_TRUE(query.ok()) << sparql << "\n" << query.status();

    std::vector<std::string> expected;
    {
      rdf::Graph oracle = BuildMiniGraph();
      analytics::ReferenceEvaluator ref(&oracle);
      auto r = ref.Evaluate(**parsed);
      ASSERT_TRUE(r.ok()) << r.status();
      expected = r->ToSortedStrings(oracle.dict());
    }

    for (auto& engine : engine::MakeAllEngines()) {
      engine::Dataset dataset(BuildMiniGraph());
      mr::Cluster cluster(mr::ClusterConfig{}, &dataset.dfs());
      auto result = engine->Execute(*query, &dataset, &cluster, nullptr);
      ASSERT_TRUE(result.ok()) << engine->name() << ": " << sparql << "\n"
                               << result.status();
      EXPECT_EQ(result->ToSortedStrings(dataset.dict()), expected)
          << engine->name() << ": " << sparql;
    }
  }
}

TEST(ClassifyTest, MultiGroupingCatalogQueriesAreNotPatchable) {
  auto mg1 = workload::FindQuery("MG1");
  ASSERT_TRUE(mg1.ok());
  EXPECT_EQ(Classify((*mg1)->sparql).cls, IvmClass::kNone);
}

TEST(ClassifyTest, ClassNamesRoundTrip) {
  for (IvmClass cls : {IvmClass::kNone, IvmClass::kAppend, IvmClass::kDistinct,
                       IvmClass::kGroupAgg}) {
    EXPECT_EQ(IvmClassFromName(IvmClassName(cls)), cls);
  }
  EXPECT_EQ(IvmClassFromName("garbled"), IvmClass::kNone);
}

// ---------------------------------------------------------------------------
// Incremental patching vs full recompute.

struct Mutation {
  std::string s, p;
  rdf::Term o;
};

/// Applies `adds` to the graph, returning the delta (actually-new triples,
/// dictionary-encoded) the way engine::Dataset::AddTriples reports it.
DeltaPartition ApplyAdds(rdf::Graph* g, const std::vector<Mutation>& adds) {
  std::vector<rdf::Triple> added;
  for (const Mutation& m : adds) {
    size_t before = g->size();
    g->Add(g->dict().InternIri(m.s), g->dict().InternIri(m.p),
           g->dict().Intern(m.o));
    if (g->size() > before) added.push_back(g->triples().back());
  }
  return DeltaPartition::FromAdded(std::move(added));
}

/// Patches the pre-mutation result and checks it equals a full recompute
/// on the post-mutation graph.
void ExpectPatchMatchesRecompute(const std::string& sparql,
                                 const std::vector<Mutation>& adds) {
  auto parsed = sparql::ParseQuery(sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok()) << query.status();
  IvmDecision decision = ClassifyMaintainability(*query);
  ASSERT_NE(decision.cls, IvmClass::kNone) << decision.detail;

  rdf::Graph graph = BuildMiniGraph();
  analytics::BindingTable base;
  {
    analytics::ReferenceEvaluator ref(&graph);
    auto r = ref.Evaluate(**parsed);
    ASSERT_TRUE(r.ok()) << r.status();
    base = std::move(*r);
  }

  DeltaPartition delta = ApplyAdds(&graph, adds);
  rdf::GraphIndex index(graph);
  auto patched =
      PatchResult(*query, decision.cls, base, delta, index, &graph.dict());
  ASSERT_TRUE(patched.ok()) << patched.status();

  analytics::ReferenceEvaluator ref(&graph);
  auto recomputed = ref.Evaluate(**parsed);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status();
  EXPECT_EQ(patched->ToSortedStrings(graph.dict()),
            recomputed->ToSortedStrings(graph.dict()))
      << sparql;
}

constexpr char kSumCountByFeature[] =
    "SELECT ?f (SUM(?pr) AS ?total) (COUNT(?pr) AS ?cnt) { "
    "?p a <PT1> . ?p <feature> ?f . ?o <product> ?p . ?o <price> ?pr . } "
    "GROUP BY ?f";

TEST(PatchResultTest, GroupAggUpdatesExistingGroups) {
  // A new offer against an existing product touches only the delta star;
  // the product star binds old-only.
  ExpectPatchMatchesRecompute(
      kSumCountByFeature,
      {{"o4", "product", rdf::Term::Iri("p1")},
       {"o4", "price", rdf::Term::Literal(
                           "7", "http://www.w3.org/2001/XMLSchema#integer")}});
}

TEST(PatchResultTest, GroupAggCreatesNewGroups) {
  // A brand-new typed product with a new feature plus an offer: every star
  // of the match uses delta triples, and a group is born.
  ExpectPatchMatchesRecompute(
      kSumCountByFeature,
      {{"p4", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        rdf::Term::Iri("PT1")},
       {"p4", "feature", rdf::Term::Iri("f9")},
       {"o9", "product", rdf::Term::Iri("p4")},
       {"o9", "price", rdf::Term::Literal(
                           "55",
                           "http://www.w3.org/2001/XMLSchema#integer")}});
}

TEST(PatchResultTest, MinMaxMergeTakesTheBetterBound) {
  // 5 undercuts every existing minimum; 9999 beats every maximum.
  ExpectPatchMatchesRecompute(
      "SELECT ?f (MIN(?pr) AS ?lo) (MAX(?pr) AS ?hi) { "
      "?p <feature> ?f . ?o <product> ?p . ?o <price> ?pr . } GROUP BY ?f",
      {{"o5", "product", rdf::Term::Iri("p1")},
       {"o5", "price", rdf::Term::Literal(
                           "5", "http://www.w3.org/2001/XMLSchema#integer")},
       {"o6", "product", rdf::Term::Iri("p3")},
       {"o6", "price", rdf::Term::Literal(
                           "9999",
                           "http://www.w3.org/2001/XMLSchema#integer")}});
}

TEST(PatchResultTest, DistinctUnionsWithoutDuplicates) {
  // One add duplicates an existing feature (no new row), one is new.
  ExpectPatchMatchesRecompute(
      "SELECT DISTINCT ?f { ?p <feature> ?f . }",
      {{"p3", "feature", rdf::Term::Iri("f1")},
       {"p1", "feature", rdf::Term::Iri("f7")}});
}

TEST(PatchResultTest, AppendKeepsMultiplicity) {
  // The bare projection runs on the reference evaluator (it is outside the
  // MapReduce subset); its analyzed form is the DISTINCT variant with the
  // grouping keys stripped — the kAppend algebra.
  auto plain = sparql::ParseQuery(
      "SELECT ?p ?pr { ?o <product> ?p . ?o <price> ?pr . }");
  ASSERT_TRUE(plain.ok());
  auto distinct = sparql::ParseQuery(
      "SELECT DISTINCT ?p ?pr { ?o <product> ?p . ?o <price> ?pr . }");
  ASSERT_TRUE(distinct.ok());
  auto query = analytics::AnalyzeQuery(**distinct);
  ASSERT_TRUE(query.ok()) << query.status();
  query->groupings[0].group_by.clear();
  query->top_distinct = false;

  rdf::Graph graph = BuildMiniGraph();
  analytics::BindingTable base;
  {
    analytics::ReferenceEvaluator ref(&graph);
    auto r = ref.Evaluate(**plain);
    ASSERT_TRUE(r.ok()) << r.status();
    base = std::move(*r);
  }

  // o7 duplicates o2's (p2, 80) row — the appended match must not dedupe.
  DeltaPartition delta = ApplyAdds(
      &graph,
      {{"o7", "product", rdf::Term::Iri("p2")},
       {"o7", "price", rdf::Term::Literal(
                           "80",
                           "http://www.w3.org/2001/XMLSchema#integer")}});
  rdf::GraphIndex index(graph);
  auto patched = PatchResult(*query, IvmClass::kAppend, base, delta, index,
                             &graph.dict());
  ASSERT_TRUE(patched.ok()) << patched.status();

  analytics::ReferenceEvaluator ref(&graph);
  auto recomputed = ref.Evaluate(**plain);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status();
  EXPECT_EQ(patched->NumRows(), base.NumRows() + 1);
  EXPECT_EQ(patched->ToSortedStrings(graph.dict()),
            recomputed->ToSortedStrings(graph.dict()));
}

TEST(PatchResultTest, IrrelevantDeltaIsIdentity) {
  // The delta touches no pattern property: the patched result must be the
  // base unchanged.
  ExpectPatchMatchesRecompute(
      "SELECT DISTINCT ?f { ?p <feature> ?f . }",
      {{"o8", "unrelated", rdf::Term::Iri("p1")}});
}

TEST(PatchResultTest, EmptyDeltaIsIdentity) {
  ExpectPatchMatchesRecompute(kSumCountByFeature, {});
}

TEST(PatchResultTest, SchemaMismatchIsInternalNotWrongData) {
  auto parsed = sparql::ParseQuery(kSumCountByFeature);
  ASSERT_TRUE(parsed.ok());
  auto query = analytics::AnalyzeQuery(**parsed);
  ASSERT_TRUE(query.ok());

  rdf::Graph graph = BuildMiniGraph();
  analytics::BindingTable wrong_schema({"not", "the", "columns"});
  DeltaPartition delta = ApplyAdds(
      &graph, {{"o4", "product", rdf::Term::Iri("p1")},
               {"o4", "price",
                rdf::Term::Literal(
                    "7", "http://www.w3.org/2001/XMLSchema#integer")}});
  rdf::GraphIndex index(graph);
  auto patched = PatchResult(*query, IvmClass::kGroupAgg, wrong_schema, delta,
                             index, &graph.dict());
  EXPECT_FALSE(patched.ok());
}

}  // namespace
}  // namespace rapida::storage
