// Factorized (d-representation) intermediates: codec round-trips, the
// weighted aggregator, and the byte-identity matrix — every factorized
// pipeline must produce exactly the flat path's rows across exec_threads
// x map-join x partial-aggregation combinations,
// while materializing and shuffling fewer bytes on multi-valued data.
#include "engines/factorized.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/aggregates.h"
#include "analytics/reference_evaluator.h"
#include "engines/dataset.h"
#include "engines/engines.h"
#include "engines/relational_ops.h"
#include "mapreduce/record.h"
#include "sparql/parser.h"
#include "workload/catalog.h"
#include "workload/pubmed.h"
#include "rows_of.h"

namespace rapida::engine {
namespace {

using Row = std::vector<rdf::TermId>;
using Rows = std::vector<Row>;

// ---------------------------------------------------------------------------
// Codec unit tests
// ---------------------------------------------------------------------------

TEST(FactorizedCodec, EncodeParseEnumerate) {
  Factorization spec;
  spec.width = 4;
  spec.base_cols = {0};
  spec.factors = {{1, 2}, {3}};

  GroupEncoder enc;
  enc.Start();
  enc.AddBaseCell(7);
  enc.StartFactor();
  Row r1 = {10, 11}, r2 = {20, 21};
  enc.AddFactorRow(r1.data(), 2);
  enc.AddFactorRow(r2.data(), 2);
  enc.StartFactor();
  Row s1 = {30}, s2 = {31}, s3 = {32};
  enc.AddFactorRow(s1.data(), 1);
  enc.AddFactorRow(s2.data(), 1);
  enc.AddFactorRow(s3.data(), 1);
  std::string value = enc.Finish();
  EXPECT_EQ(value, "7|10,11;20,21|30;31;32");
  EXPECT_EQ(enc.flat_rows(), 6u);

  GroupView view;
  ASSERT_TRUE(ParseGroup(value, 2, &view));
  EXPECT_EQ(view.FlatRows(), 6u);

  Rows flat;
  FlatScratch scratch;
  ForEachFlatRow(spec, view, &scratch,
                 [&flat](const Row& r) { flat.push_back(r); });
  // Factor 0 outermost, factor 1 innermost: canonical flat order.
  Rows expected = {{7, 10, 11, 30}, {7, 10, 11, 31}, {7, 10, 11, 32},
                   {7, 20, 21, 30}, {7, 20, 21, 31}, {7, 20, 21, 32}};
  EXPECT_EQ(flat, expected);

  // FlatRecordBytes == the exact stored size of the enumerated records.
  uint64_t expect_bytes = 0;
  for (const Row& r : expected) expect_bytes += EncodeRow(r).size() + 2;
  EXPECT_EQ(FlatRecordBytes(spec, view), expect_bytes);
}

TEST(FactorizedCodec, ZeroColumnFactorIsPureMultiplicity) {
  Factorization spec;
  spec.width = 1;
  spec.base_cols = {0};
  spec.factors = {{}};

  GroupEncoder enc;
  enc.Start();
  enc.AddBaseCell(5);
  enc.StartFactor();
  enc.AddFactorRow(nullptr, 0);
  enc.AddFactorRow(nullptr, 0);
  enc.AddFactorRow(nullptr, 0);
  std::string value = enc.Finish();
  EXPECT_EQ(value, "5|;;");
  EXPECT_EQ(enc.flat_rows(), 3u);

  GroupView view;
  ASSERT_TRUE(ParseGroup(value, 1, &view));
  Rows flat;
  FlatScratch scratch;
  ForEachFlatRow(spec, view, &scratch,
                 [&flat](const Row& r) { flat.push_back(r); });
  EXPECT_EQ(flat, (Rows{{5}, {5}, {5}}));
  EXPECT_EQ(FlatRecordBytes(spec, view), 3u * (1 + 2));
}

TEST(FactorizedCodec, UncoveredPositionsReadNull) {
  Factorization spec;
  spec.width = 3;
  spec.base_cols = {2};
  spec.factors = {{0}};
  GroupEncoder enc;
  enc.Start();
  enc.AddBaseCell(9);
  enc.StartFactor();
  Row r = {4};
  enc.AddFactorRow(r.data(), 1);
  GroupView view;
  ASSERT_TRUE(ParseGroup(enc.Finish(), 1, &view));
  Rows flat;
  FlatScratch scratch;
  ForEachFlatRow(spec, view, &scratch,
                 [&flat](const Row& rr) { flat.push_back(rr); });
  EXPECT_EQ(flat, (Rows{{4, rdf::kInvalidTermId, 9}}));
  // "4,0,9" + 2 accounting bytes.
  EXPECT_EQ(FlatRecordBytes(spec, view), 5u + 2u);
}

TEST(FactorizedCodec, RawSegmentPassThrough) {
  GroupEncoder enc;
  enc.Start();
  enc.AddRawBase("1,2");
  enc.AddBaseCell(3);
  enc.AddRawFactor("7;8;9", 3);
  enc.AddRawFactor("", 1);  // one row of zero cells
  EXPECT_EQ(enc.Finish(), "1,2,3|7;8;9|");
  EXPECT_EQ(enc.flat_rows(), 3u);
}

TEST(FactorizedCodec, FlatRowIsTheZeroFactorGroup) {
  // The invariant the relational operators' one row reader rests on: an
  // EncodeRow record is a group with every column in the base and no
  // factors, so it parses, enumerates and sizes as one.
  const Rows rows = {{},
                     {rdf::kInvalidTermId},
                     {42},
                     {7, rdf::kInvalidTermId, 123456789},
                     {rdf::kInvalidTermId, rdf::kInvalidTermId},
                     {1, 22, 333, rdf::kInvalidTermId, 55555}};
  for (const Row& row : rows) {
    SCOPED_TRACE("width " + std::to_string(row.size()) + ": '" +
                 EncodeRow(row) + "'");
    mr::RecordBatch batch;
    batch.Add("", EncodeRow(row));
    const mr::Record record = batch.At(0);

    Factorization flat;
    flat.width = static_cast<int>(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      flat.base_cols.push_back(static_cast<int>(c));
    }
    GroupView view;
    ASSERT_TRUE(ParseGroup(record.value(), 0, &view));
    EXPECT_EQ(view.FlatRows(), 1u);
    Rows enumerated;
    FlatScratch scratch;
    ForEachFlatRow(flat, view, &scratch,
                   [&enumerated](const Row& r) { enumerated.push_back(r); });
    EXPECT_EQ(enumerated, Rows{row});
    EXPECT_EQ(FlatRecordBytes(flat, view), record.Bytes());
  }
}

TEST(WeightedAggregator, MatchesSequentialAdds) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.InternInt(3), b = dict.InternInt(11);
  for (sparql::AggFunc f :
       {sparql::AggFunc::kCount, sparql::AggFunc::kMin, sparql::AggFunc::kMax,
        sparql::AggFunc::kSample, sparql::AggFunc::kGroupConcat}) {
    analytics::Aggregator seq(f, false);
    analytics::Aggregator wtd(f, false);
    for (int i = 0; i < 4; ++i) seq.AddTerm(a, dict);
    for (int i = 0; i < 2; ++i) seq.AddTerm(b, dict);
    wtd.AddTermWeighted(a, dict, 4);
    wtd.AddTermWeighted(b, dict, 2);
    EXPECT_EQ(seq.Finalize(&dict), wtd.Finalize(&dict))
        << "func " << static_cast<int>(f);
    EXPECT_EQ(seq.count(), wtd.count());
    EXPECT_EQ(seq.SerializePartial(), wtd.SerializePartial())
        << "func " << static_cast<int>(f);
  }
  // COUNT(*) rows.
  analytics::Aggregator seq(sparql::AggFunc::kCount, false);
  analytics::Aggregator wtd(sparql::AggFunc::kCount, false);
  for (int i = 0; i < 7; ++i) seq.AddRow();
  wtd.AddRowWeighted(7);
  EXPECT_EQ(seq.count(), wtd.count());
}

// ---------------------------------------------------------------------------
// Operator byte-identity matrix
// ---------------------------------------------------------------------------

class FactorizeTest : public ::testing::Test {
 protected:
  FactorizeTest() : dataset_(rdf::Graph()) { BuildTables(); }

  rdf::TermId I(int64_t v) { return dataset_.dict().InternInt(v); }

  void WriteVp(const std::string& name,
               const std::vector<std::pair<rdf::TermId, rdf::TermId>>& rows) {
    mr::RecordBatch records;
    for (const auto& [s, o] : rows) {
      records.Add(std::to_string(s), std::to_string(o));
    }
    ASSERT_TRUE(dataset_.dfs().Write(name, std::move(records)).ok());
  }

  /// A multi-valued star over subjects 1..6:
  ///   a: 1-3 objects per subject (the MeSH-style multi-valued slot)
  ///   b: 2 objects per subject, subject 5 missing (inner-join miss)
  ///   c: 1 object per subject, subject 3 missing (outer pad)
  /// plus d: maps a-objects to 1-2 w values (the inter-star link), and a
  /// small flat side table e for UNION.
  void BuildTables() {
    std::vector<std::pair<rdf::TermId, rdf::TermId>> a, b, c, d;
    for (int s = 1; s <= 6; ++s) {
      rdf::TermId sid = I(s);
      for (int k = 0; k <= s % 3; ++k) {
        rdf::TermId x = I(10 * s + k);
        a.push_back({sid, x});
        d.push_back({x, I(5000 + 10 * s + k)});
        if (k == 0) d.push_back({x, I(7000 + s)});
      }
      if (s != 5) {
        b.push_back({sid, I(100 * s + 1)});
        b.push_back({sid, I(100 * s + 2)});
      }
      if (s != 3) c.push_back({sid, I(1000 * s)});
    }
    WriteVp("vp:a", a);
    WriteVp("vp:b", b);
    WriteVp("vp:c", c);
    WriteVp("vp:d", d);
  }

  JoinInput VpInput(const std::string& file, const std::string& subj,
                    const std::string& obj, bool outer = false) {
    JoinInput in;
    in.file = file;
    in.columns = {subj, obj};
    in.is_vp = true;
    in.join_column = subj;
    in.outer = outer;
    return in;
  }

  struct PipelineResult {
    Rows star, linked, by_s, by_y, distinct;
    uint64_t star_stored = 0;  // stored bytes of the star intermediate
    uint64_t star_flat_bytes = 0;
    uint64_t link_shuffle = 0;  // shuffle bytes of the inter-star join
    uint64_t groups = 0;        // factorized groups across the pipeline
    uint64_t flat_rows = 0;
  };

  Rows SortedRows(RelationalOps* ops, const TableRef& t) {
    auto table = ops->ReadTable(t);
    EXPECT_TRUE(table.ok()) << table.status();
    Rows rows = RowsOf(*table);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Star join -> inter-star join on the multi-valued x -> GroupBy (key in
  /// base, then key in a factor) -> DISTINCT projection.
  PipelineResult RunPipeline(int exec_threads, bool factorize, bool map_joins,
                             bool partial_agg, const std::string& ns) {
    mr::ClusterConfig cfg;
    cfg.exec_threads = exec_threads;
    cfg.exec_split_bytes = 64;  // several map tasks even on tiny files
    mr::Cluster cluster(cfg, &dataset_.dfs());
    RelationalOps ops(&cluster, &dataset_, 1 << 20, "tmp:" + ns);
    const JoinStrategy join =
        map_joins ? JoinStrategy::kAuto : JoinStrategy::kRepartition;

    PipelineResult out;
    auto star = ops.Join("star",
                         {VpInput("vp:a", "s", "x"), VpInput("vp:b", "s", "y"),
                          VpInput("vp:c", "s", "z", /*outer=*/true)},
                         join, nullptr, factorize);
    EXPECT_TRUE(star.ok()) << star.status();
    EXPECT_EQ(star->factorized(), factorize);
    out.star = SortedRows(&ops, *star);
    out.star_stored = dataset_.VpFileBytes(star->file);
    auto fsb = ops.FlatStoredBytes(*star);
    EXPECT_TRUE(fsb.ok());
    out.star_flat_bytes = *fsb;

    JoinInput star_in;
    star_in.file = star->file;
    star_in.columns = star->columns;
    star_in.join_column = "x";
    star_in.factor = star->factor;
    star_in.flat_bytes = star->flat_bytes;
    auto linked =
        ops.Join("link", {star_in, VpInput("vp:d", "x", "w")}, join, nullptr,
                 factorize);
    EXPECT_TRUE(linked.ok()) << linked.status();
    out.linked = SortedRows(&ops, *linked);
    for (const auto& j : cluster.history()) {
      if (j.name.rfind("link", 0) == 0) out.link_shuffle = j.shuffle_bytes;
    }

    std::vector<ntga::AggSpec> aggs = {
        {sparql::AggFunc::kCount, "", true, "cnt", " "},
        {sparql::AggFunc::kMin, "w", false, "minw", " "},
        {sparql::AggFunc::kMax, "y", false, "maxy", " "},
        {sparql::AggFunc::kSample, "x", false, "sx", " "}};
    auto by_s = ops.GroupBy("by_s", *linked, {"s"}, aggs, partial_agg);
    EXPECT_TRUE(by_s.ok()) << by_s.status();
    out.by_s = SortedRows(&ops, *by_s);

    // Key inside a factor: the group-by must enumerate that factor only.
    std::vector<ntga::AggSpec> aggs2 = {
        {sparql::AggFunc::kCount, "", true, "cnt", " "},
        {sparql::AggFunc::kMin, "x", false, "minx", " "}};
    auto by_y = ops.GroupBy("by_y", *linked, {"y"}, aggs2, partial_agg);
    EXPECT_TRUE(by_y.ok()) << by_y.status();
    out.by_y = SortedRows(&ops, *by_y);

    auto dp = ops.DistinctProject("dp", *star, {"s", "y"}, nullptr);
    EXPECT_TRUE(dp.ok()) << dp.status();
    out.distinct = SortedRows(&ops, *dp);

    for (const auto& j : cluster.history()) {
      out.groups += j.factorized_groups;
      out.flat_rows += j.factorized_flat_rows;
    }
    return out;
  }

  Dataset dataset_;
};

TEST_F(FactorizeTest, ByteIdentityMatrix) {
  PipelineResult flat = RunPipeline(1, false, false, true, "flat");
  ASSERT_FALSE(flat.star.empty());
  ASSERT_FALSE(flat.linked.empty());
  EXPECT_EQ(flat.groups, 0u);

  int run = 0;
  for (int threads : {1, 8}) {
    for (bool map_joins : {false, true}) {
      for (bool partial : {false, true}) {
        PipelineResult fact = RunPipeline(threads, true, map_joins, partial,
                                          "f" + std::to_string(run++));
        std::string label = "threads=" + std::to_string(threads) +
                            " mapjoin=" + std::to_string(map_joins) +
                            " partial=" + std::to_string(partial);
        EXPECT_EQ(fact.star, flat.star) << label;
        EXPECT_EQ(fact.linked, flat.linked) << label;
        EXPECT_EQ(fact.by_s, flat.by_s) << label;
        EXPECT_EQ(fact.by_y, flat.by_y) << label;
        EXPECT_EQ(fact.distinct, flat.distinct) << label;
        // The d-representation must genuinely compress: fewer stored
        // bytes than the flat star, whose exact size FlatStoredBytes
        // reconstructs arithmetically.
        EXPECT_LT(fact.star_stored, flat.star_stored) << label;
        EXPECT_EQ(fact.star_flat_bytes, flat.star_stored) << label;
        EXPECT_GT(fact.groups, 0u) << label;
        EXPECT_GT(fact.flat_rows, fact.groups) << label;
        // Partial decompression keeps the non-join factors compressed
        // across the inter-star shuffle.
        EXPECT_LT(fact.link_shuffle, flat.link_shuffle) << label;
      }
    }
  }
}

TEST_F(FactorizeTest, StarJoinDecompressesInExactFlatOrder) {
  mr::ClusterConfig cfg;
  cfg.exec_threads = 1;
  mr::Cluster cluster(cfg, &dataset_.dfs());
  RelationalOps ops(&cluster, &dataset_,
                    EngineOptions().map_join_threshold_bytes, "tmp:order");
  std::vector<JoinInput> inputs = {VpInput("vp:a", "s", "x"),
                                   VpInput("vp:b", "s", "y")};
  auto flat = ops.Join("s1", inputs, JoinStrategy::kRepartition, nullptr,
                       false);
  auto fact = ops.Join("s2", inputs, JoinStrategy::kRepartition, nullptr,
                       true);
  ASSERT_TRUE(flat.ok() && fact.ok());
  ASSERT_TRUE(fact->factorized());
  auto ft = ops.ReadTable(*flat);
  auto kt = ops.ReadTable(*fact);
  ASSERT_TRUE(ft.ok() && kt.ok());
  EXPECT_EQ(RowsOf(*ft), RowsOf(*kt));  // unsorted: exact enumeration order
}

TEST_F(FactorizeTest, UnionAllDecompressesFactorizedBranches) {
  mr::ClusterConfig cfg;
  mr::Cluster cluster(cfg, &dataset_.dfs());
  RelationalOps ops(&cluster, &dataset_,
                    EngineOptions().map_join_threshold_bytes, "tmp:u");
  std::vector<JoinInput> inputs = {VpInput("vp:a", "s", "x"),
                                   VpInput("vp:b", "s", "y")};
  auto flat = ops.Join("s1", inputs, JoinStrategy::kAuto, nullptr, false);
  auto fact = ops.Join("s2", inputs, JoinStrategy::kAuto, nullptr, true);
  ASSERT_TRUE(flat.ok() && fact.ok());
  mr::RecordBatch extra;
  extra.Add("", EncodeRow({I(42), I(43)}));
  ASSERT_TRUE(dataset_.dfs().Write("t:extra", std::move(extra)).ok());
  TableRef other{"t:extra", {"s", "q"}, nullptr, 0};
  auto u_flat = ops.UnionAll("u1", {*flat, other});
  auto u_fact = ops.UnionAll("u2", {*fact, other});
  ASSERT_TRUE(u_flat.ok() && u_fact.ok());
  auto r1 = ops.ReadTable(*u_flat);
  auto r2 = ops.ReadTable(*u_fact);
  ASSERT_TRUE(r1.ok() && r2.ok());
  Rows a = RowsOf(*r1), b = RowsOf(*r2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(FactorizeTest, SumKeepsOutputFlatButCorrect) {
  // SUM is order-sensitive in float: the factorized GroupBy must fall back
  // to stream decompression and still match the flat result exactly
  // (integer-valued sums are exact either way).
  mr::ClusterConfig cfg;
  mr::Cluster cluster(cfg, &dataset_.dfs());
  RelationalOps ops(&cluster, &dataset_,
                    EngineOptions().map_join_threshold_bytes, "tmp:sum");
  std::vector<JoinInput> inputs = {VpInput("vp:a", "s", "x"),
                                   VpInput("vp:b", "s", "y")};
  auto flat = ops.Join("s1", inputs, JoinStrategy::kRepartition, nullptr,
                       false);
  auto fact = ops.Join("s2", inputs, JoinStrategy::kRepartition, nullptr,
                       true);
  ASSERT_TRUE(flat.ok() && fact.ok());
  std::vector<ntga::AggSpec> aggs = {
      {sparql::AggFunc::kSum, "y", false, "sy", " "}};
  auto g1 = ops.GroupBy("g1", *flat, {"s"}, aggs, true);
  auto g2 = ops.GroupBy("g2", *fact, {"s"}, aggs, true);
  ASSERT_TRUE(g1.ok() && g2.ok());
  auto r1 = ops.ReadTable(*g1);
  auto r2 = ops.ReadTable(*g2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  Rows a = RowsOf(*r1), b = RowsOf(*r2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// MG13F end-to-end fixture: the Table 4 footnote, converted to a pass
// ---------------------------------------------------------------------------

/// One engine run over the MG13F dataset with byte accounting.
struct Mg13Run {
  std::vector<std::string> rows;
  uint64_t materialized = 0;  // Dfs lifetime-write delta (intermediates only)
  uint64_t shuffled = 0;      // map->reduce bytes across the workflow
  uint64_t peak = 0;          // Dfs stored-bytes high-water mark
};

class Mg13FixtureTest : public ::testing::Test {
 protected:
  /// Fanouts above the catalog test defaults so the flat star join's
  /// cross product (mesh x chemical x author ~ 60 rows/publication)
  /// dominates every byte metric, as in the paper's 190 GB MG13 run.
  static Dataset* SharedDataset() {
    static Dataset* ds = [] {
      workload::PubmedConfig cfg;
      cfg.num_publications = 120;
      cfg.mesh_per_publication = 10.0;
      cfg.chemicals_per_publication = 10.0;
      cfg.authors_per_publication = 4.0;
      auto* d = new Dataset(workload::GeneratePubmed(cfg));
      // Base tables up front so per-run deltas measure intermediates only.
      EXPECT_TRUE(d->EnsureVpTables().ok());
      EXPECT_TRUE(d->EnsureTripleGroups().ok());
      return d;
    }();
    return ds;
  }

  static const analytics::AnalyticalQuery& Query() {
    static const analytics::AnalyticalQuery* q = [] {
      auto cq = workload::FindQuery("MG13F");
      EXPECT_TRUE(cq.ok());
      auto parsed = sparql::ParseQuery((*cq)->sparql);
      EXPECT_TRUE(parsed.ok());
      auto analyzed = analytics::AnalyzeQuery(**parsed);
      EXPECT_TRUE(analyzed.ok());
      return new analytics::AnalyticalQuery(std::move(analyzed).value());
    }();
    return *q;
  }

  static const std::vector<std::string>& ExpectedRows() {
    static const std::vector<std::string>* rows = [] {
      Dataset* ds = SharedDataset();
      auto cq = workload::FindQuery("MG13F");
      auto parsed = sparql::ParseQuery((*cq)->sparql);
      analytics::ReferenceEvaluator ref(&ds->graph());
      auto expected = ref.Evaluate(**parsed);
      EXPECT_TRUE(expected.ok());
      return new std::vector<std::string>(
          expected->ToSortedStrings(ds->dict()));
    }();
    return *rows;
  }

  StatusOr<Mg13Run> RunEngine(Engine* eng, int threads, int shards) {
    Dataset* ds = SharedDataset();
    mr::ClusterConfig cfg;
    cfg.exec_threads = threads;
    cfg.num_shards = shards;
    mr::Cluster cluster(cfg, &ds->dfs());
    uint64_t written_before = ds->dfs().LifetimeBytesWritten();
    ds->dfs().ResetPeak();
    ExecStats stats;
    auto result = eng->Execute(Query(), ds, &cluster, &stats);
    RAPIDA_RETURN_IF_ERROR(result.status());
    Mg13Run run;
    run.rows = result->ToSortedStrings(ds->dict());
    run.materialized = ds->dfs().LifetimeBytesWritten() - written_before;
    run.peak = ds->dfs().PeakStoredBytes();
    for (const auto& j : stats.workflow.jobs) run.shuffled += j.shuffle_bytes;
    return run;
  }

  StatusOr<Mg13Run> RunHive(bool factorize, int threads = 1, int shards = 0) {
    EngineOptions o;
    o.factorized_intermediates = factorize;
    o.num_shards = shards;
    // Repartition joins, the paper's naive-Hive shape: the star join both
    // shuffles and materializes its cross product, so the byte gates
    // below measure the d-representation on both axes. (Map-join coverage
    // over factorized inputs comes from the all-engines matrix, which
    // keeps defaults.)
    o.enable_map_joins = false;
    HiveNaiveEngine eng(o);
    return RunEngine(&eng, threads, shards);
  }
};

TEST_F(Mg13FixtureTest, FactorizedCutsBytesFiveFold) {
  ASSERT_FALSE(ExpectedRows().empty());
  auto flat = RunHive(false);
  auto fact = RunHive(true);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(fact.ok()) << fact.status();
  EXPECT_EQ(flat->rows, ExpectedRows());
  EXPECT_EQ(fact->rows, ExpectedRows());
  // The acceptance bar: d-representation cuts both the materialization
  // volume and the shuffle volume of the multi-valued star by >= 5x.
  EXPECT_GE(flat->materialized, 5 * fact->materialized)
      << "flat=" << flat->materialized << " fact=" << fact->materialized;
  EXPECT_GE(flat->shuffled, 5 * fact->shuffled)
      << "flat=" << flat->shuffled << " fact=" << fact->shuffled;
}

TEST_F(Mg13FixtureTest, ByteIdenticalOnAllEnginesAcrossThreadsAndShards) {
  const std::vector<std::string>& expected = ExpectedRows();
  ASSERT_FALSE(expected.empty());
  EngineOptions o;
  o.factorized_intermediates = true;
  for (int threads : {1, 8}) {
    for (int shards : {0, 4}) {
      o.num_shards = shards;
      for (const auto& eng : MakeAllEngines(o)) {
        auto run = RunEngine(eng.get(), threads, shards);
        ASSERT_TRUE(run.ok()) << eng->name() << ": " << run.status();
        EXPECT_EQ(run->rows, expected)
            << eng->name() << " threads=" << threads << " shards=" << shards;
      }
    }
  }
}

TEST_F(Mg13FixtureTest, SurvivesCapacityLimitThatKillsFlat) {
  // Pin the Table 4 footnote conversion: under a Dfs capacity limit sized
  // between the two peaks, the flat run dies with ResourceExhausted (the
  // paper's "insufficient HDFS disk space") and the factorized run of the
  // SAME query completes with the same rows.
  auto flat = RunHive(false);
  auto fact = RunHive(true);
  ASSERT_TRUE(flat.ok() && fact.ok());
  ASSERT_LT(fact->peak, flat->peak);
  uint64_t limit = fact->peak + (flat->peak - fact->peak) / 2;
  Dataset* ds = SharedDataset();
  ds->dfs().SetCapacityLimit(limit);
  auto flat_capped = RunHive(false);
  EXPECT_FALSE(flat_capped.ok());
  if (!flat_capped.ok()) {
    EXPECT_EQ(flat_capped.status().code(), Code::kResourceExhausted)
        << flat_capped.status();
  }
  auto fact_capped = RunHive(true);
  ASSERT_TRUE(fact_capped.ok()) << fact_capped.status();
  EXPECT_EQ(fact_capped->rows, ExpectedRows());
  ds->dfs().SetCapacityLimit(0);
}

}  // namespace
}  // namespace rapida::engine
