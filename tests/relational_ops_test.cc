// Direct unit tests for the Hive-side relational MR operators (Join in
// both physical forms, GroupBy with/without partial aggregation,
// DistinctProject) — the building blocks the two Hive engines compile to.
#include "engines/relational_ops.h"
#include <algorithm>

#include <gtest/gtest.h>

#include "engines/dataset.h"
#include "rows_of.h"

namespace rapida::engine {
namespace {

class RelationalOpsTest : public ::testing::Test {
 protected:
  RelationalOpsTest()
      : dataset_(rdf::Graph()),
        cluster_(mr::ClusterConfig{}, &dataset_.dfs()),
        ops_(&cluster_, &dataset_, EngineOptions().map_join_threshold_bytes,
             "tmp:test") {}

  /// Writes an intermediate-format table into the DFS.
  TableRef WriteTable(const std::string& name,
                      std::vector<std::string> columns,
                      std::vector<std::vector<rdf::TermId>> rows) {
    mr::RecordBatch records;
    for (const auto& row : rows) records.Add("", EncodeRow(row));
    EXPECT_TRUE(dataset_.dfs().Write(name, std::move(records)).ok());
    return TableRef{name, std::move(columns)};
  }

  /// Writes a VP-format table (key=subject, value=object).
  std::string WriteVp(const std::string& name,
                      std::vector<std::pair<rdf::TermId, rdf::TermId>> rows) {
    mr::RecordBatch records;
    for (const auto& [s, o] : rows) {
      records.Add(std::to_string(s), std::to_string(o));
    }
    EXPECT_TRUE(dataset_.dfs().Write(name, std::move(records)).ok());
    return name;
  }

  std::vector<std::vector<rdf::TermId>> Rows(const TableRef& t) {
    auto table = ops_.ReadTable(t);
    EXPECT_TRUE(table.ok());
    auto rows = RowsOf(*table);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Dataset dataset_;
  mr::Cluster cluster_;
  RelationalOps ops_;
};

TEST_F(RelationalOpsTest, MultiWayStarJoinOnSubject) {
  // Three VP tables sharing subjects 1 and 2; subject 3 misses one.
  JoinInput a{WriteVp("a", {{1, 10}, {2, 20}, {3, 30}}),
              {"s", "x"}, true, "s", false, nullptr};
  JoinInput b{WriteVp("b", {{1, 11}, {2, 21}, {3, 31}}),
              {"s", "y"}, true, "s", false, nullptr};
  JoinInput c{WriteVp("c", {{1, 12}, {2, 22}}),
              {"s", "z"}, true, "s", false, nullptr};
  RelationalOps ops(&cluster_, &dataset_,
                    EngineOptions().map_join_threshold_bytes, "tmp:x");
  auto t = ops.Join("star", {a, b, c}, JoinStrategy::kRepartition);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->columns, (std::vector<std::string>{"s", "x", "y", "z"}));
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<rdf::TermId>{1, 10, 11, 12}));
  EXPECT_EQ(rows[1], (std::vector<rdf::TermId>{2, 20, 21, 22}));
}

TEST_F(RelationalOpsTest, MapJoinEqualsReduceJoin) {
  JoinInput big{WriteVp("big", {{1, 10}, {2, 20}, {2, 25}, {4, 40}}),
                {"s", "x"}, true, "s", false, nullptr};
  JoinInput small{WriteVp("small", {{1, 100}, {2, 200}}),
                  {"s", "y"}, true, "s", false, nullptr};

  RelationalOps ops_map(&cluster_, &dataset_, 1 << 20, "tmp:m");
  RelationalOps ops_red(&cluster_, &dataset_,
                        EngineOptions().map_join_threshold_bytes, "tmp:r");

  auto t1 = ops_map.Join("j", {big, small}, JoinStrategy::kAuto);
  auto t2 = ops_red.Join("j", {big, small}, JoinStrategy::kRepartition);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(Rows(*t1), Rows(*t2));
  // The map-join cycle must actually be map-only.
  bool saw_map_only = false;
  for (const auto& j : cluster_.history()) {
    if (j.name.find("map-join") != std::string::npos) {
      saw_map_only = saw_map_only || j.map_only;
    }
  }
  EXPECT_TRUE(saw_map_only);
}

TEST_F(RelationalOpsTest, OuterInputPadsNulls) {
  JoinInput base{WriteVp("base", {{1, 10}, {2, 20}}),
                 {"s", "x"}, true, "s", false, nullptr};
  JoinInput opt{WriteVp("opt", {{1, 99}}),
                {"s", "y"}, true, "s", true, nullptr};
  auto t = ops_.Join("outer", {base, opt}, JoinStrategy::kAuto);
  ASSERT_TRUE(t.ok()) << t.status();
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<rdf::TermId>{1, 10, 99}));
  EXPECT_EQ(rows[1], (std::vector<rdf::TermId>{2, 20, rdf::kInvalidTermId}));
}

TEST_F(RelationalOpsTest, PredicatesAndPostPredicate) {
  JoinInput a{WriteVp("a", {{1, 10}, {2, 20}, {3, 30}}),
              {"s", "x"}, true, "s", false,
              [](const std::vector<rdf::TermId>& row) {
                return row[1] != 20;  // drop subject 2 map-side
              }};
  JoinInput b{WriteVp("b", {{1, 11}, {2, 21}, {3, 31}}),
              {"s", "y"}, true, "s", false, nullptr};
  auto t = ops_.Join("filtered", {a, b}, JoinStrategy::kAuto,
                     [](const std::vector<rdf::TermId>& row) {
                       return row[0] != 3;  // drop subject 3 post-join
                     });
  ASSERT_TRUE(t.ok());
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 1u);
}

TEST_F(RelationalOpsTest, GroupByPartialAndRawAgree) {
  // Every aggregate function through the aggregation shuffle: pre-
  // aggregated partials (map_side_agg on) and raw cells (off), each from
  // one map task and from one task per record, where the reduce merges
  // several tasks' partials. The number column holds a NULL, which only
  // COUNT(*) counts.
  rdf::Dictionary& dict = dataset_.dict();
  rdf::TermId k1 = dict.InternIri("k1"), k2 = dict.InternIri("k2");
  rdf::TermId ia = dict.InternIri("a"), ib = dict.InternIri("b"),
              ic = dict.InternIri("c");
  rdf::TermId v5 = dict.InternInt(5), v7 = dict.InternInt(7),
              v2 = dict.InternInt(2), v9 = dict.InternInt(9);
  const rdf::TermId null = rdf::kInvalidTermId;
  TableRef input = WriteTable("rows", {"k", "v", "w"},
                              {{k1, v5, ib},
                               {k1, v7, ia},
                               {k2, v2, ic},
                               {k1, v2, ic},
                               {k1, null, ib},
                               {k2, v9, ic}});
  using sparql::AggFunc;
  std::vector<ntga::AggSpec> aggs = {
      {AggFunc::kCount, "", true, "rows", " "},
      {AggFunc::kCount, "v", false, "cnt", " "},
      {AggFunc::kSum, "v", false, "sum", " "},
      {AggFunc::kAvg, "v", false, "avg", " "},
      {AggFunc::kMin, "v", false, "minv", " "},
      {AggFunc::kMax, "v", false, "maxv", " "},
      {AggFunc::kMin, "w", false, "minw", " "},
      {AggFunc::kMax, "w", false, "maxw", " "},
      {AggFunc::kSample, "w", false, "sample", " "},
      {AggFunc::kGroupConcat, "v", false, "concat", ";"}};

  std::vector<std::vector<std::vector<rdf::TermId>>> results;
  for (uint64_t split_bytes : {uint64_t{1} << 20, uint64_t{1}}) {
    mr::ClusterConfig config;
    config.exec_split_bytes = split_bytes;
    mr::Cluster cluster(config, &dataset_.dfs());
    for (bool map_side_agg : {true, false}) {
      RelationalOps ops(&cluster, &dataset_,
                        EngineOptions().map_join_threshold_bytes, "tmp:agg");
      auto grouped = ops.GroupBy("g", input, {"k"}, aggs, map_side_agg);
      ASSERT_TRUE(grouped.ok()) << grouped.status();
      // One map task, or one per byte: each record in a task of its own.
      const int mappers = cluster.history().back().num_mappers;
      if (split_bytes == 1) {
        EXPECT_GE(mappers, 6);
      } else {
        EXPECT_EQ(mappers, 1);
      }
      results.push_back(Rows(*grouped));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "setting " << i;
  }

  ASSERT_EQ(results[0].size(), 2u);
  const rdf::Dictionary& d = dataset_.dict();
  auto num = [&d](rdf::TermId id) { return *d.AsNumber(id); };
  auto text = [&d](rdf::TermId id) { return std::string(d.Get(id).text); };
  for (const auto& row : results[0]) {
    ASSERT_EQ(row.size(), 11u);
    if (row[0] == k1) {
      // k1: v = 5, 7, 2, NULL; w = b, a, c, b.
      EXPECT_DOUBLE_EQ(num(row[1]), 4);
      EXPECT_DOUBLE_EQ(num(row[2]), 3);
      EXPECT_DOUBLE_EQ(num(row[3]), 14);
      EXPECT_NEAR(num(row[4]), 14.0 / 3, 1e-9);  // a rounded literal
      EXPECT_EQ(row[5], v2);
      EXPECT_EQ(row[6], v7);
      EXPECT_EQ(row[7], ia);
      EXPECT_EQ(row[8], ic);
      EXPECT_EQ(row[9], ia);  // SAMPLE: the smallest term id
      EXPECT_EQ(text(row[10]), "2;5;7");
    } else {
      // k2: v = 2, 9; w = c, c.
      EXPECT_EQ(row[0], k2);
      EXPECT_DOUBLE_EQ(num(row[1]), 2);
      EXPECT_DOUBLE_EQ(num(row[2]), 2);
      EXPECT_DOUBLE_EQ(num(row[3]), 11);
      EXPECT_DOUBLE_EQ(num(row[4]), 5.5);
      EXPECT_EQ(row[5], v2);
      EXPECT_EQ(row[6], v9);
      EXPECT_EQ(row[7], ic);
      EXPECT_EQ(row[8], ic);
      EXPECT_EQ(row[9], ic);
      EXPECT_EQ(text(row[10]), "2;9");
    }
  }
}

TEST_F(RelationalOpsTest, GroupByHavingFiltersInReduce) {
  rdf::Dictionary& dict = dataset_.dict();
  rdf::TermId k1 = dict.InternIri("k1"), k2 = dict.InternIri("k2");
  rdf::TermId v1 = dict.InternInt(1);
  TableRef input =
      WriteTable("rows", {"k", "v"}, {{k1, v1}, {k1, v1}, {k2, v1}});
  std::vector<ntga::AggSpec> aggs = {
      {sparql::AggFunc::kCount, "v", false, "cnt", " "}};
  RowPredicate having = [&dict](const std::vector<rdf::TermId>& row) {
    return *dict.AsNumber(row[1]) >= 2;
  };
  auto t = ops_.GroupBy("g", input, {"k"}, aggs, true, having);
  ASSERT_TRUE(t.ok());
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], k1);
}

TEST_F(RelationalOpsTest, DistinctProjectDedups) {
  TableRef input = WriteTable("rows", {"a", "b", "c"},
                              {{1, 2, 3}, {1, 2, 4}, {1, 2, 3}, {5, 6, 7}});
  auto t = ops_.DistinctProject("d", input, {"a", "b"}, nullptr);
  ASSERT_TRUE(t.ok());
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<rdf::TermId>{1, 2}));
  EXPECT_EQ(rows[1], (std::vector<rdf::TermId>{5, 6}));
}

TEST_F(RelationalOpsTest, CleanupRemovesTempFiles) {
  TableRef input = WriteTable("rows", {"a"}, {{1}});
  auto t = ops_.DistinctProject("d", input, {"a"}, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(dataset_.dfs().Exists(t->file));
  ops_.Cleanup();
  EXPECT_FALSE(dataset_.dfs().Exists(t->file));
  EXPECT_TRUE(dataset_.dfs().Exists("rows"));  // inputs untouched
}

}  // namespace
}  // namespace rapida::engine
