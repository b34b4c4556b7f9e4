// Allocation regression gate for the MapReduce hot path: a representative
// shuffle+reduce job must stay far below one heap allocation per record.
// Arena-backed record views make the emit/shuffle/sort/reduce loops
// allocation-free per record (arena blocks, view-array growth, task
// vectors and thread bookkeeping amortize away), so the whole job costs
// O(tasks + keys) allocations, not O(records). A std::string-per-record
// representation pays 2+ allocations per record at emit alone once
// payloads exceed the small-string buffer — an order of magnitude over
// this budget.
// The dictionary is held to a stricter bar: interning or looking up a
// term that already exists allocates nothing at all. A result table's
// copy allocates per column, never per row.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "rdf/dictionary.h"
#include "util/string_util.h"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rapida::mr {
namespace {

TEST(AllocRegressionTest, ReduceJobStaysUnderPerRecordBudget) {
  constexpr int kRecords = 20000;
  constexpr int kDistinctKeys = 100;

  Dfs dfs;
  RecordBatch input;
  for (int i = 0; i < kRecords; ++i) {
    // Keys and values longer than any small-string buffer, so a
    // string-per-record representation could not hide behind SSO.
    input.Add("key-" + std::to_string(i % kDistinctKeys) +
                  "-padded-well-beyond-sso",
              "value-payload-padded-well-beyond-sso-" + std::to_string(i));
  }
  ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());

  Cluster cluster(ClusterConfig{}, &dfs);
  JobConfig job;
  job.name = "alloc-regression";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto stats = cluster.Run(job);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->input_records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(stats->output_records, static_cast<uint64_t>(kDistinctKeys));

  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  // Generous pinned budget: well under one allocation per two records,
  // while leaving lots of headroom for task/thread/closure bookkeeping.
  // The per-record-string representation costs several times kRecords.
  EXPECT_LT(allocations, static_cast<size_t>(kRecords) / 2)
      << "hot path regressed to per-record heap allocation ("
      << allocations << " allocations for " << kRecords << " records)";
}

// Same gate for a join-shaped job: two tagged inputs, a per-record map
// emitting tag-prefixed values through a value buffer kept in map
// TaskState, and a cross-product reduce whose side pools live in reduce
// TaskState, so both warm up once per task instead of reallocating per
// record or key group. This mirrors the shape of the repartition join in
// RelationalOps::Join.
TEST(AllocRegressionTest, JoinShapedJobStaysUnderPerRecordBudget) {
  constexpr int kRowsPerSide = 10000;
  constexpr int kDistinctKeys = 2000;  // 5 rows per key per side.

  Dfs dfs;
  for (int side = 0; side < 2; ++side) {
    RecordBatch input;
    for (int i = 0; i < kRowsPerSide; ++i) {
      // Comma-encoded rows whose first field is the join key; padded with
      // wide constants so emitted values never fit a small-string buffer.
      input.Add("", std::to_string(i % kDistinctKeys) + ",900000000" +
                        std::to_string(side) + ",910000000,920000000," +
                        std::to_string(i));
    }
    ASSERT_TRUE(
        dfs.Write(side == 0 ? "left" : "right", std::move(input)).ok());
  }

  Cluster cluster(ClusterConfig{}, &dfs);
  JobConfig job;
  job.name = "alloc-regression-join";
  job.inputs = {"left", "right"};
  job.output = "out";
  job.map = [](const Record& r, int tag, MapContext* ctx) {
    std::string* val_buf = ctx->TaskState<std::string>();
    std::string_view value = r.value();
    std::string_view key = value.substr(0, value.find(','));
    val_buf->assign(tag == 0 ? "L|" : "R|");
    val_buf->append(value);
    ctx->Emit(key, *val_buf);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    // Flat side pools: contiguous bytes plus end offsets, like the
    // repartition join's CSR side buffers.
    struct JoinScratch {
      std::string left_bytes, right_bytes;
      std::vector<uint32_t> left_end, right_end;
      std::string out_buf;
    };
    auto* s = ctx->TaskState<JoinScratch>();
    s->left_bytes.clear();
    s->right_bytes.clear();
    s->left_end.clear();
    s->right_end.clear();
    for (const auto& v : values) {
      if (v.size() < 2) continue;
      const bool left = v[0] == 'L';
      std::string& bytes = left ? s->left_bytes : s->right_bytes;
      bytes.append(v.substr(2));
      (left ? s->left_end : s->right_end)
          .push_back(static_cast<uint32_t>(bytes.size()));
    }
    for (size_t li = 0; li < s->left_end.size(); ++li) {
      const uint32_t lb = li == 0 ? 0 : s->left_end[li - 1];
      for (size_t ri = 0; ri < s->right_end.size(); ++ri) {
        const uint32_t rb = ri == 0 ? 0 : s->right_end[ri - 1];
        s->out_buf.assign(s->left_bytes, lb, s->left_end[li] - lb);
        s->out_buf += '|';
        s->out_buf.append(s->right_bytes, rb, s->right_end[ri] - rb);
        ctx->Emit(key, s->out_buf);
      }
    }
  };
  job.reduce_parallel_safe = true;

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto stats = cluster.Run(job);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(stats.ok()) << stats.status();
  constexpr uint64_t kInputRecords = 2 * kRowsPerSide;
  EXPECT_EQ(stats->input_records, kInputRecords);
  // 5x5 cross product per key.
  EXPECT_EQ(stats->output_records, static_cast<uint64_t>(kDistinctKeys) * 25);

  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  // The map and the reduce reuse per-task scratch, so the whole join costs
  // O(tasks + buffer growth) allocations.
  EXPECT_LT(allocations, static_cast<size_t>(kInputRecords) / 2)
      << "join hot path regressed to per-record heap allocation ("
      << allocations << " allocations for " << kInputRecords << " records)";
}

// The operators themselves, on a 4-shard cluster: GroupBy with map-side
// partial aggregation and the repartition Join keep their decode rows,
// key/value buffers and partial tables in task scratch, so on 4 shards
// they stay under the same per-input-record budget.
TEST(AllocRegressionTest, ShardedOperatorsStayUnderPerRecordBudget) {
  constexpr int kRows = 10000;
  constexpr int kJoinKeys = 2000;  // 5 rows per key per side.
  constexpr int kGroups = 100;

  engine::Dataset dataset{rdf::Graph()};
  auto write_table = [&dataset](const std::string& name) {
    RecordBatch records;
    for (int i = 0; i < kRows; ++i) {
      const std::vector<rdf::TermId> row = {
          static_cast<rdf::TermId>(i % kJoinKeys),
          static_cast<rdf::TermId>(i % kGroups),
          static_cast<rdf::TermId>(910000000 + i)};
      records.Add("", engine::EncodeRow(row));
    }
    return dataset.dfs().Write(name, std::move(records));
  };
  ASSERT_TRUE(write_table("left").ok());
  ASSERT_TRUE(write_table("right").ok());

  ClusterConfig config;
  config.num_shards = 4;
  Cluster cluster(config, &dataset.dfs());
  engine::RelationalOps ops(&cluster, &dataset,
                            engine::EngineOptions().map_join_threshold_bytes,
                            "tmp:alloc");

  engine::TableRef left;
  left.file = "left";
  left.columns = {"k", "g", "v"};
  const std::vector<ntga::AggSpec> aggs = {
      {sparql::AggFunc::kCount, "", true, "cnt", " "}};
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto grouped = ops.GroupBy("group", left, {"g"}, aggs, true);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(allocations, static_cast<size_t>(kRows) / 2)
      << "sharded GroupBy regressed to per-record heap allocation ("
      << allocations << " allocations for " << kRows << " records)";

  engine::JoinInput lhs;
  lhs.file = "left";
  lhs.columns = {"k", "g", "v"};
  lhs.join_column = "k";
  engine::JoinInput rhs;
  rhs.file = "right";
  rhs.columns = {"k", "h", "w"};
  rhs.join_column = "k";
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto joined = ops.Join("join", {lhs, rhs}, engine::JoinStrategy::kRepartition);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(joined.ok()) << joined.status();
  allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(allocations, static_cast<size_t>(2 * kRows) / 2)
      << "sharded repartition Join regressed to per-record heap allocation ("
      << allocations << " allocations for " << 2 * kRows << " records)";

  ASSERT_EQ(cluster.history().size(), 2u);
  EXPECT_EQ(cluster.history()[0].output_records,
            static_cast<uint64_t>(kGroups));
  EXPECT_EQ(cluster.history()[1].output_records,
            static_cast<uint64_t>(kJoinKeys) * 25);
  for (const JobStats& stats : cluster.history()) {
    EXPECT_EQ(stats.num_shards, 4) << stats.name;
    EXPECT_GT(stats.shuffle_cross_bytes, 0u) << stats.name;
  }
}

// Factorized input: a multi-valued star kept as d-representation groups
// (9 flat rows per group) feeds a SUM GroupBy with partial aggregation
// (the stream path: SUM is never aggregated by weight) and a Join with a
// post-predicate (flat output) under both strategies. The row reader
// decodes every group into reused task buffers, so each operator stays
// under the same budget, counted in the flat rows its input stands for.
TEST(AllocRegressionTest, FactorizedInputsStayUnderPerRowBudget) {
  constexpr int kSubjects = 2000;
  constexpr int kValues = 3;  // x and y values per subject
  constexpr int kGroups = 50;
  constexpr size_t kStarRows = size_t{kSubjects} * kValues * kValues;
  // Per operator: task and table bookkeeping, not one allocation per group
  // (2,000) or per flat row (18,000 and more). The row reader's scratch,
  // odometer included, is reused across records.
  constexpr size_t kOperatorBudget = 1000;

  engine::Dataset dataset{rdf::Graph()};
  rdf::Dictionary& dict = dataset.dict();
  auto write_vp = [&dataset](const std::string& name, int per_subject,
                             const auto& object) {
    RecordBatch records;
    for (int s = 1; s <= kSubjects; ++s) {
      for (int k = 0; k < per_subject; ++k) {
        records.Add(std::to_string(s), std::to_string(object(s, k)));
      }
    }
    return dataset.dfs().Write(name, std::move(records));
  };
  ASSERT_TRUE(write_vp("vp:x", kValues, [&dict](int s, int k) {
                return dict.InternInt(10 * s + k);
              }).ok());
  ASSERT_TRUE(write_vp("vp:y", kValues, [&dict](int s, int k) {
                return dict.InternInt(100000 + 10 * s + k);
              }).ok());
  ASSERT_TRUE(write_vp("vp:g", 1, [&dict](int s, int) {
                return dict.InternInt(s % kGroups);
              }).ok());
  ASSERT_TRUE(write_vp("vp:w", 1, [](int s, int) { return 500000 + s; }).ok());
  auto vp = [](const std::string& file, const std::string& object) {
    engine::JoinInput in;
    in.file = file;
    in.columns = {"s", object};
    in.is_vp = true;
    in.join_column = "s";
    return in;
  };

  Cluster cluster(ClusterConfig{}, &dataset.dfs());
  engine::RelationalOps ops(&cluster, &dataset,
                            engine::EngineOptions().map_join_threshold_bytes,
                            "tmp:alloc-fact");
  auto star = ops.Join("star", {vp("vp:x", "x"), vp("vp:y", "y"),
                                vp("vp:g", "g")},
                       engine::JoinStrategy::kRepartition, nullptr,
                       /*factorize_output=*/true);
  ASSERT_TRUE(star.ok()) << star.status();
  ASSERT_TRUE(star->factorized());
  ASSERT_EQ(cluster.history().back().output_records,
            static_cast<uint64_t>(kSubjects));

  const std::vector<ntga::AggSpec> sum = {
      {sparql::AggFunc::kSum, "x", false, "sum", " "}};
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto grouped = ops.GroupBy("sum", *star, {"g"}, sum, true);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  EXPECT_EQ(cluster.history().back().output_records,
            static_cast<uint64_t>(kGroups));
  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(allocations, kOperatorBudget)
      << "GroupBy over factorized input regressed to per-group or per-row "
         "heap allocation ("
      << allocations << " allocations for " << kStarRows << " flat rows)";

  engine::JoinInput star_in;
  star_in.file = star->file;
  star_in.columns = star->columns;
  star_in.join_column = "s";
  star_in.factor = star->factor;
  star_in.flat_bytes = star->flat_bytes;
  const engine::RowPredicate even_x = [](const std::vector<rdf::TermId>& row) {
    return row[1] % 2 == 0;
  };
  constexpr size_t kJoinRows = kStarRows + kSubjects;
  for (engine::JoinStrategy strategy :
       {engine::JoinStrategy::kRepartition, engine::JoinStrategy::kMap}) {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
    auto joined =
        ops.Join("post", {star_in, vp("vp:w", "w")}, strategy, even_x);
    g_counting.store(false, std::memory_order_seq_cst);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_FALSE(joined->factorized());
    EXPECT_GT(cluster.history().back().output_records, 0u);
    allocations = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LT(allocations, kOperatorBudget)
        << cluster.history().back().name
        << " over factorized input regressed to per-group or per-row heap "
           "allocation ("
        << allocations << " allocations for " << kJoinRows << " flat rows)";
  }
}

TEST(AllocRegressionTest, CopyingAResultTableAllocatesPerColumnNotPerRow) {
  // Copies share the cell array until one writes, so a copy (a result-cache
  // hit, a batch follower) costs its column names only.
  analytics::BindingTable table({"s", "p", "o"});
  for (rdf::TermId r = 1; r <= 10000; ++r) table.AddRow({r, r + 1, r + 2});
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  analytics::BindingTable copy = table;
  g_counting.store(false, std::memory_order_seq_cst);
  EXPECT_EQ(copy.NumRows(), 10000u);
  EXPECT_LE(g_allocations.load(std::memory_order_relaxed),
            table.NumCols() + 1);
}

TEST(AllocRegressionTest, InterningAnExistingTermAllocatesNothing) {
  // Every text is longer than the small-string buffer, so a key string or
  // a Term built per call would show up as an allocation.
  const rdf::Term iri = rdf::Term::Iri("http://example.org/vocab/Resource42");
  const rdf::Term typed =
      rdf::Term::Literal("1234567890123456789", rdf::kXsdInteger);
  const std::string plain = "a plain literal longer than sixteen bytes";
  rdf::Dictionary dict;
  const rdf::TermId iri_id = dict.Intern(iri);
  const rdf::TermId typed_id = dict.Intern(typed);
  const rdf::TermId plain_id = dict.InternLiteral(plain);
  const rdf::TermId int_id = dict.InternInt(-1234567890123);
  for (int i = 0; i < 100; ++i) dict.InternIri("filler" + std::to_string(i));

  bool same_ids = true;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  for (int i = 0; i < 1000; ++i) {
    same_ids &= dict.Intern(iri) == iri_id;
    same_ids &= dict.Intern(typed) == typed_id;
    same_ids &= dict.InternIri(iri.text) == iri_id;
    same_ids &= dict.InternLiteral(typed.text, typed.datatype) == typed_id;
    same_ids &= dict.InternLiteral(plain) == plain_id;
    same_ids &= dict.InternInt(-1234567890123) == int_id;
    same_ids &= dict.Lookup(iri) == iri_id;
    same_ids &= dict.Lookup(typed) == typed_id;
    same_ids &= dict.LookupIri(iri.text) == iri_id;
    same_ids &= dict.Get(typed_id) == typed;
    same_ids &= dict.AsNumber(typed_id).has_value();
  }
  g_counting.store(false, std::memory_order_seq_cst);
  EXPECT_TRUE(same_ids);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "a dictionary hit allocated";
  EXPECT_EQ(dict.size(), 104u);
}

}  // namespace
}  // namespace rapida::mr
