#include "mapreduce/kernels.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/engines.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "ntga/triplegroup.h"
#include "sparql/parser.h"
#include "util/hash_index.h"
#include "util/string_util.h"
#include "records_of.h"
#include "rows_of.h"

namespace rapida {
namespace {

using engine::AppendRow;
using engine::DecodeRowInto;
using engine::EncodeRow;

// ---------------------------------------------------------------------------
// Primitive kernels.

TEST(HashIndexTest, FindOrInsertGrowsAndFinds) {
  util::HashIndex index;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 10000; ++k) {
    auto [id, inserted] = index.FindOrInsert(
        util::MixId(k), static_cast<uint32_t>(keys.size()),
        [&](uint32_t cand) { return keys[cand] == k; });
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, keys.size());
    keys.push_back(k);
  }
  EXPECT_EQ(index.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    uint32_t id = index.Find(util::MixId(k), [&](uint32_t cand) {
      return keys[cand] == k;
    });
    ASSERT_EQ(id, k);
    auto [again, inserted] = index.FindOrInsert(
        util::MixId(k), 0xdeadu,
        [&](uint32_t cand) { return keys[cand] == k; });
    EXPECT_FALSE(inserted);
    EXPECT_EQ(again, k);
  }
  EXPECT_EQ(index.Find(util::MixId(999999), [](uint32_t) {
    return true;
  }), util::HashIndex::kNotFound);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(util::MixId(1), [](uint32_t) { return true; }),
            util::HashIndex::kNotFound);
}

TEST(HashIndexTest, ResolvesHashCollisionsThroughEq) {
  // Force every key onto one hash: correctness must come from eq().
  util::HashIndex index;
  std::vector<int> keys;
  for (int k = 0; k < 64; ++k) {
    auto [id, inserted] = index.FindOrInsert(
        42, static_cast<uint32_t>(keys.size()),
        [&](uint32_t cand) { return keys[cand] == k; });
    ASSERT_TRUE(inserted) << k;
    keys.push_back(k);
  }
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(index.Find(42, [&](uint32_t cand) { return keys[cand] == k; }),
              static_cast<uint32_t>(k));
  }
}

TEST(KernelsTest, AppendDecimalMatchesToString) {
  for (uint64_t v : {0ull, 1ull, 9ull, 10ull, 4294967295ull,
                     18446744073709551615ull}) {
    std::string out = "x";
    mr::kernels::AppendDecimal(&out, v);
    EXPECT_EQ(out, "x" + std::to_string(v));
  }
}

TEST(KernelsTest, RowCodecVariantsMatchScalar) {
  std::vector<std::vector<rdf::TermId>> rows = {
      {}, {0}, {1, 2, 3}, {4294967295u, 0, 7}};
  std::vector<rdf::TermId> scratch = {9, 9, 9, 9, 9};
  for (const auto& row : rows) {
    std::string batch;
    AppendRow(&batch, row);
    EXPECT_EQ(batch, EncodeRow(row));
    DecodeRowInto(batch, &scratch);
    EXPECT_EQ(scratch, row);
  }
}

TEST(KernelsTest, TripleGroupCodecVariantsMatchScalar) {
  ntga::TripleGroup tg;
  tg.subject = 17;
  tg.triples.push_back(rdf::Triple{17, 3, 99});
  tg.triples.push_back(rdf::Triple{17, 4, 5});
  std::string to;
  ntga::SerializeTripleGroupTo(tg, &to);
  EXPECT_EQ(to, ntga::SerializeTripleGroup(tg));

  ntga::TripleGroup reparsed;
  reparsed.triples.resize(7);  // stale scratch must be fully reset
  ASSERT_TRUE(ntga::ParseTripleGroupInto(to, &reparsed).ok());
  EXPECT_EQ(reparsed, tg);

  ntga::NestedTripleGroup ntg;
  ntg.stars.resize(3);
  ntg.stars[0] = tg;
  ntg.stars[2].subject = 8;
  ntg.stars[2].triples.push_back(rdf::Triple{8, 1, 2});
  std::string nested;
  ntga::SerializeNestedTo(ntg, &nested);
  EXPECT_EQ(nested, ntga::SerializeNested(ntg));

  ntga::NestedTripleGroup scratch;
  scratch.stars.resize(1);
  scratch.stars[0].subject = 123;  // stale star must be cleared
  ASSERT_TRUE(ntga::ParseNestedInto(nested, 3, &scratch).ok());
  EXPECT_EQ(scratch, ntg);
}

// ---------------------------------------------------------------------------
// Cluster-level matrix: a word-count-shaped job must produce byte-identical
// output and the same JobStats at every exec_threads x combine x shards
// combination as its 1-thread unsharded run.

struct JobOutput {
  std::vector<std::pair<std::string, std::string>> records;
  mr::JobStats stats;
};

JobOutput RunCountJob(bool combine, int threads, int shards) {
  mr::Dfs dfs;
  mr::RecordBatch input;
  for (int i = 0; i < 5000; ++i) {
    std::string value = "tok" + std::to_string(i % 91) + ";tok" +
                        std::to_string(i % 13) + ";tok" +
                        std::to_string(i % 7);
    input.Add("k" + std::to_string(i), value);
  }
  EXPECT_TRUE(dfs.Write("in", std::move(input)).ok());

  mr::ClusterConfig config;
  config.exec_threads = threads;
  config.num_shards = shards;
  mr::Cluster cluster(config, &dfs);

  mr::JobConfig job;
  job.name = "count";
  job.inputs = {"in"};
  job.output = "out";
  job.map = [](const mr::Record& r, int, mr::MapContext* ctx) {
    FieldTokenizer fields(r.value(), ';');
    std::string_view part;
    while (fields.Next(&part)) ctx->Emit(part, "1");
  };
  auto sum = [](std::string_view key, const mr::ValueSpan& values,
                mr::ReduceContext* ctx) {
    int64_t total = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      ParseInt64(v, &n);
      total += n;
    }
    ctx->Emit(key, std::to_string(total));
  };
  if (combine) job.combine = sum;
  job.reduce = sum;
  job.reduce_parallel_safe = true;

  JobOutput out;
  auto stats = cluster.Run(job);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (stats.ok()) out.stats = *stats;
  auto file = dfs.Open("out");
  EXPECT_TRUE(file.ok());
  out.records = RecordsOf(**file);
  return out;
}

/// Every counter of `run` must equal the unsharded reference's. A sharded
/// run only splits its shuffle into shard-local and cross-shard bytes
/// (which must add up to the total), and the cost model prices its shards
/// as the cluster's nodes, so num_reducers and sim_seconds are compared
/// only between unsharded runs.
void ExpectSameStats(const mr::JobStats& run, const mr::JobStats& ref,
                     int shards, const std::string& label) {
  EXPECT_EQ(run.input_records, ref.input_records) << label;
  EXPECT_EQ(run.input_bytes, ref.input_bytes) << label;
  EXPECT_EQ(run.map_output_records, ref.map_output_records) << label;
  EXPECT_EQ(run.map_output_bytes, ref.map_output_bytes) << label;
  EXPECT_EQ(run.shuffle_records, ref.shuffle_records) << label;
  EXPECT_EQ(run.shuffle_bytes, ref.shuffle_bytes) << label;
  EXPECT_EQ(run.output_records, ref.output_records) << label;
  EXPECT_EQ(run.output_bytes, ref.output_bytes) << label;
  EXPECT_EQ(run.num_mappers, ref.num_mappers) << label;
  EXPECT_EQ(run.factorized_groups, ref.factorized_groups) << label;
  EXPECT_EQ(run.factorized_flat_rows, ref.factorized_flat_rows) << label;
  EXPECT_EQ(run.shuffle_local_bytes + run.shuffle_cross_bytes,
            run.shuffle_bytes)
      << label;
  if (shards <= 1) {
    EXPECT_EQ(run.num_reducers, ref.num_reducers) << label;
    EXPECT_DOUBLE_EQ(run.sim_seconds, ref.sim_seconds) << label;
  }
}

TEST(KernelMatrixTest, CountJobIdenticalAcrossThreadsCombineAndShards) {
  JobOutput uncombined = RunCountJob(/*combine=*/false, 1, 1);
  ASSERT_FALSE(uncombined.records.empty());
  for (bool combine : {false, true}) {
    JobOutput reference = RunCountJob(combine, 1, 1);
    // Combine changes shuffle volume but never the reduced output.
    EXPECT_EQ(reference.records, uncombined.records);
    for (int threads : {1, 4, 8}) {
      for (int shards : {1, 4}) {
        std::string label = "threads=" + std::to_string(threads) +
                            " combine=" + (combine ? "on" : "off") +
                            " shards=" + std::to_string(shards);
        JobOutput run = RunCountJob(combine, threads, shards);
        EXPECT_EQ(run.records, reference.records) << label;
        ExpectSameStats(run.stats, reference.stats, shards, label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level matrix: every engine across exec_threads x map-side
// combine (partial aggregation) x shards — results and every per-job
// counter must equal the 1-thread unsharded run's.

rdf::Graph BuildGraph() {
  rdf::Graph g;
  const char* products[] = {"p1", "p2", "p3", "p4", "p5"};
  const char* types[] = {"PT1", "PT1", "PT1", "PT2", "PT2"};
  for (int i = 0; i < 5; ++i) {
    g.AddIri(products[i], rdf::kRdfType, types[i]);
    g.AddLit(products[i], "label", std::string("label") + products[i]);
  }
  g.AddIri("p1", "feature", "f1");
  g.AddIri("p1", "feature", "f2");
  g.AddIri("p2", "feature", "f1");
  g.AddIri("p3", "feature", "f3");
  g.AddIri("p4", "feature", "f2");
  struct Offer {
    const char* id;
    const char* product;
    int price;
    const char* vendor;
  };
  Offer offers[] = {
      {"o1", "p1", 100, "v1"}, {"o2", "p1", 250, "v2"},
      {"o3", "p2", 80, "v1"},  {"o4", "p3", 300, "v3"},
      {"o5", "p4", 120, "v2"}, {"o6", "p5", 500, "v3"},
      {"o7", "p2", 90, "v2"},
  };
  for (const Offer& o : offers) {
    g.AddIri(o.id, "product", o.product);
    g.AddInt(o.id, "price", o.price);
    g.AddIri(o.id, "vendor", o.vendor);
  }
  g.AddIri("v1", "country", "DE");
  g.AddIri("v2", "country", "US");
  g.AddIri("v3", "country", "DE");
  return g;
}

constexpr char kOverlapQuery[] = R"(
  SELECT ?f ?cntF ?sumF ?cntT ?sumT {
    { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF) {
        ?p2 a <PT1> . ?p2 <label> ?l2 . ?p2 <feature> ?f .
        ?off2 <product> ?p2 . ?off2 <price> ?pr2 .
      } GROUP BY ?f }
    { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT) {
        ?p1 a <PT1> . ?p1 <label> ?l1 .
        ?off1 <product> ?p1 . ?off1 <price> ?pr .
      } }
  }
)";

constexpr char kFilterQuery[] = R"(
  SELECT ?v (COUNT(?o) AS ?cnt) (SUM(?pr) AS ?total) {
    ?o <product> ?p . ?o <price> ?pr . ?o <vendor> ?v .
    FILTER(?pr >= 100)
  } GROUP BY ?v
)";

struct EngineRun {
  std::vector<std::vector<rdf::TermId>> rows;
  engine::ExecStats stats;
};

EngineRun RunEngine(engine::Engine* eng, const std::string& query_text,
                    engine::Dataset* dataset, int threads, int shards) {
  auto parsed = sparql::ParseQuery(query_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto query = analytics::AnalyzeQuery(**parsed);
  EXPECT_TRUE(query.ok()) << query.status();
  mr::ClusterConfig config;
  config.exec_threads = threads;
  config.num_shards = shards;
  mr::Cluster cluster(config, &dataset->dfs());
  EngineRun out;
  auto result = eng->Execute(*query, dataset, &cluster, &out.stats);
  EXPECT_TRUE(result.ok()) << eng->name() << ": " << result.status();
  if (result.ok()) out.rows = RowsOf(*result);
  return out;
}

TEST(KernelMatrixTest, EnginesIdenticalAcrossThreadsCombineAndShards) {
  engine::Dataset dataset(BuildGraph());
  for (const char* query : {kOverlapQuery, kFilterQuery}) {
    for (bool combine : {false, true}) {
      engine::EngineOptions options;
      options.partial_aggregation = combine;
      std::map<std::string, EngineRun> reference;
      for (const auto& eng : engine::MakeAllEngines(options)) {
        reference[eng->name()] = RunEngine(eng.get(), query, &dataset, 1, 1);
      }
      for (int threads : {1, 4, 8}) {
        for (int shards : {1, 4}) {
          options.num_shards = shards;
          for (const auto& eng : engine::MakeAllEngines(options)) {
            EngineRun run =
                RunEngine(eng.get(), query, &dataset, threads, shards);
            const EngineRun& ref = reference[eng->name()];
            std::string label = eng->name() +
                                " threads=" + std::to_string(threads) +
                                " combine=" + (combine ? "on" : "off") +
                                " shards=" + std::to_string(shards);
            EXPECT_EQ(run.rows, ref.rows) << label;
            ASSERT_EQ(run.stats.workflow.jobs.size(),
                      ref.stats.workflow.jobs.size())
                << label;
            for (size_t j = 0; j < run.stats.workflow.jobs.size(); ++j) {
              ExpectSameStats(run.stats.workflow.jobs[j],
                              ref.stats.workflow.jobs[j], shards,
                              label + " job#" + std::to_string(j));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rapida
