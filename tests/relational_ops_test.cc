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
  rdf::Dictionary& dict = dataset_.dict();
  rdf::TermId k1 = dict.InternIri("k1"), k2 = dict.InternIri("k2");
  rdf::TermId v5 = dict.InternInt(5), v7 = dict.InternInt(7),
              v2 = dict.InternInt(2);
  TableRef input = WriteTable("rows", {"k", "v"},
                              {{k1, v5}, {k1, v7}, {k2, v2}, {k1, v2}});
  std::vector<RelationalOps::AggColumn> aggs = {
      {sparql::AggFunc::kCount, "v", false, "cnt", " "},
      {sparql::AggFunc::kSum, "v", false, "sum", " "}};

  RelationalOps ops_raw(&cluster_, &dataset_,
                        EngineOptions().map_join_threshold_bytes, "tmp:raw");
  auto partial = ops_.GroupBy("g", input, {"k"}, aggs, true);
  auto direct = ops_raw.GroupBy("g", input, {"k"}, aggs, false);
  ASSERT_TRUE(partial.ok() && direct.ok());
  EXPECT_EQ(Rows(*partial), Rows(*direct));

  // Spot-check the values: k1 -> cnt 3, sum 14.
  auto rows = Rows(*partial);
  const rdf::Dictionary& d = dataset_.dict();
  for (const auto& row : rows) {
    if (row[0] == k1) {
      EXPECT_DOUBLE_EQ(*d.AsNumber(row[1]), 3);
      EXPECT_DOUBLE_EQ(*d.AsNumber(row[2]), 14);
    }
  }
}

TEST_F(RelationalOpsTest, GroupByHavingFiltersInReduce) {
  rdf::Dictionary& dict = dataset_.dict();
  rdf::TermId k1 = dict.InternIri("k1"), k2 = dict.InternIri("k2");
  rdf::TermId v1 = dict.InternInt(1);
  TableRef input =
      WriteTable("rows", {"k", "v"}, {{k1, v1}, {k1, v1}, {k2, v1}});
  std::vector<RelationalOps::AggColumn> aggs = {
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
