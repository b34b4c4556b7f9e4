// Allocation regression gate for the MapReduce hot path: a representative
// shuffle+reduce job must stay far below one heap allocation per record.
// Arena-backed record views make the emit/shuffle/sort/reduce loops
// allocation-free per record (arena blocks, view-array growth, task
// vectors and thread bookkeeping amortize away), so the whole job costs
// O(tasks + keys) allocations, not O(records). A std::string-per-record
// representation pays 2+ allocations per record at emit alone once
// payloads exceed the small-string buffer — an order of magnitude over
// this budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
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

// Same gate for a join-shaped job: two tagged inputs, batch map emitting
// tag-prefixed values through reused buffers, and a cross-product reduce
// whose side pools live in reduce TaskState so they warm up once per task
// instead of reallocating per key group. This mirrors the shape of the
// repartition-join batch kernel in RelationalOps::Join.
TEST(AllocRegressionTest, JoinShapedBatchJobStaysUnderPerRecordBudget) {
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
  job.map_batch = [](const TaggedRecord* records, size_t count,
                     MapContext* ctx) {
    std::string val_buf;
    for (size_t i = 0; i < count; ++i) {
      std::string_view value = records[i].record->value();
      std::string_view key = value.substr(0, value.find(','));
      val_buf.assign(records[i].tag == 0 ? "L|" : "R|");
      val_buf.append(value);
      ctx->Emit(key, val_buf);
    }
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    // Flat side pools: contiguous bytes plus end offsets, like the batch
    // join kernel's CSR side buffers.
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
  // The batch map reuses one value buffer and the reduce reuses per-task
  // scratch, so the whole join costs O(tasks + buffer growth) allocations.
  EXPECT_LT(allocations, static_cast<size_t>(kInputRecords) / 2)
      << "join hot path regressed to per-record heap allocation ("
      << allocations << " allocations for " << kInputRecords << " records)";
}

}  // namespace
}  // namespace rapida::mr
