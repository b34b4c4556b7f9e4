// Memory-footprint gates for the record plane and the term store. A record
// costs one 32-byte view plus its key‖value bytes once; a dictionary term
// costs its text once plus a small entry, and a graph triple its 12 bytes
// plus one index slot. A size-tracking operator new counts the live and
// the peak heap bytes, so the gates see every copy a Dfs file or a job
// keeps (a per-record column, a second view array, a shard segment that
// duplicates the output, a per-record placement array) and every per-term
// or per-triple node the term store would allocate. A result table holds
// 4 bytes per cell in one array, and its copies (result-cache hits) share
// that array.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "mapreduce/record.h"
#include "mapreduce/sharding.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "service/cache.h"
#include "service/query_service.h"

namespace {

// Every allocation carries its size in a 16-byte header (keeping the
// default new alignment), so frees on any thread keep the count exact.
constexpr size_t kHeader = 16;
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};  // high-water mark of g_live_bytes

void* TrackedAlloc(size_t n) {
  char* p = static_cast<char*>(std::malloc(n + kHeader));
  if (p == nullptr) return nullptr;
  *reinterpret_cast<size_t*>(p) = n;
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(n),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(n);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
  return p + kHeader;
}

void TrackedFree(void* p) {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

void* CheckedAlloc(size_t n) {
  void* p = TrackedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

/// Restarts the high-water mark at the current live bytes.
void ResetPeakBytes() {
  g_peak_bytes.store(LiveBytes(), std::memory_order_relaxed);
}
int64_t PeakBytes() { return g_peak_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(size_t n) { return CheckedAlloc(n); }
void* operator new[](size_t n) { return CheckedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return TrackedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return TrackedAlloc(n);
}
void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, size_t) noexcept { TrackedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  TrackedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  TrackedFree(p);
}

namespace rapida::mr {
namespace {

// Per-record allowance on top of the view and the payload: arena block
// slack and bookkeeping. A per-record column (8 bytes each) or a second
// view array (32 bytes) cannot hide in it.
constexpr int64_t kSlackPerRecord = 16;

int64_t Budget(uint64_t records, uint64_t payload) {
  return static_cast<int64_t>(records) *
             (static_cast<int64_t>(sizeof(Record)) + kSlackPerRecord) +
         static_cast<int64_t>(payload);
}

TEST(RecordFootprintTest, RecordIsAThirtyTwoByteView) {
  EXPECT_EQ(sizeof(Record), 32u);
  RecordBatch batch;
  batch.Add("key", "value");
  const Record& r = batch.records[0];
  // Key and value are one contiguous copy.
  EXPECT_EQ(r.key().data() + r.key().size(), r.value().data());
  EXPECT_EQ(r.key(), "key");
  EXPECT_EQ(r.value(), "value");
  EXPECT_EQ(r.Bytes(), 3u + 5u + 2u);
  EXPECT_EQ(r.key_hash, HashKey("key"));
  EXPECT_EQ(r.key_prefix, KeyPrefix("key"));
}

TEST(RecordFootprintTest, DfsFileHoldsOneViewAndOnePayloadCopyPerRecord) {
  constexpr int kRecords = 10000;
  Dfs dfs;
  uint64_t payload = 0;
  const int64_t before = LiveBytes();
  {
    RecordBatch batch;
    for (int i = 0; i < kRecords; ++i) {
      std::string key = "k" + std::to_string(i);
      std::string value = "v" + std::to_string(i * 7);
      payload += key.size() + value.size();
      batch.Add(key, value);
    }
    ASSERT_TRUE(dfs.Write("f", std::move(batch)).ok());
  }
  const int64_t held = LiveBytes() - before;
  EXPECT_LE(held, Budget(kRecords, payload))
      << held / kRecords << " bytes per record for " << payload / kRecords
      << " payload bytes";

  ASSERT_TRUE(dfs.Delete("f").ok());
  EXPECT_LE(LiveBytes() - before, 1024) << "deleting the file leaked";
}

TEST(RecordFootprintTest, ShardedReduceKeepsNoSecondCopyOfItsOutput) {
  constexpr int kRecords = 10000;
  for (int threads : {1, 4}) {
    Dfs dfs;
    ClusterConfig cfg;
    cfg.num_shards = 4;
    cfg.exec_threads = threads;
    Cluster cluster(cfg, &dfs);
    RecordBatch input;
    for (int i = 0; i < kRecords; ++i) {
      input.Add(std::to_string(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());

    JobConfig job;
    job.name = "key-preserving";
    job.inputs = {"input"};
    job.output = "out";
    job.map = [](const Record& r, int, MapContext* ctx) {
      ctx->Emit(r.key(), r.value());
    };
    job.reduce = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
      ctx->Emit(key, values[0]);
    };
    job.reduce_parallel_safe = true;
    // Warm-up under another output name: the worker pool and the job
    // history allocate once, outside the measured window.
    JobConfig warm_up = job;
    warm_up.output = "warm-up";
    ASSERT_TRUE(cluster.Run(warm_up).ok());
    ASSERT_TRUE(dfs.Delete("warm-up").ok());

    const int64_t before = LiveBytes();
    auto stats = cluster.Run(job);
    const int64_t held = LiveBytes() - before;
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->output_records, static_cast<uint64_t>(kRecords));
    // Everything the job left alive is its output file: one view per
    // record and the key‖value bytes once (Bytes() counts 2 separators).
    const uint64_t payload = stats->output_bytes - 2 * stats->output_records;
    EXPECT_LE(held, Budget(stats->output_records, payload))
        << "threads " << threads << ": " << held / kRecords
        << " bytes per output record";

    // Dropping the file frees it all: no shard, task or partition still
    // holds a view or an arena of the output.
    ASSERT_TRUE(dfs.Delete("out").ok());
    EXPECT_LE(LiveBytes() - before, 4096) << "threads " << threads;
  }
}

TEST(RecordFootprintTest, ShardedJobPeaksNoHigherThanUnsharded) {
  // Placement is booked per sink as records are emitted, never in a
  // per-record home or owner array, so a sharded job's peak heap is the
  // unsharded job's plus a few per-task counters.
  constexpr int kRecords = 20000;
  auto peak_above_baseline = [](int shards) -> int64_t {
    Dfs dfs;
    ClusterConfig cfg;
    cfg.num_shards = shards;
    cfg.exec_threads = 1;
    Cluster cluster(cfg, &dfs);
    RecordBatch input;
    for (int i = 0; i < kRecords; ++i) {
      input.Add(std::to_string(i), "v" + std::to_string(i * 7));
    }
    EXPECT_TRUE(dfs.Write("input", std::move(input)).ok());

    JobConfig job;
    job.name = "re-keying";
    job.inputs = {"input"};
    job.output = "out";
    job.map = [](const Record& r, int, MapContext* ctx) {
      ctx->Emit(r.value(), r.key());
    };
    job.reduce = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
      ctx->Emit(key, values[0]);
    };
    JobConfig warm_up = job;
    warm_up.output = "warm-up";
    EXPECT_TRUE(cluster.Run(warm_up).ok());
    EXPECT_TRUE(dfs.Delete("warm-up").ok());

    const int64_t before = LiveBytes();
    ResetPeakBytes();
    auto stats = cluster.Run(job);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return PeakBytes() - before;
  };
  const int64_t unsharded = peak_above_baseline(1);
  const int64_t sharded = peak_above_baseline(4);
  EXPECT_LE(sharded, unsharded + 4096)
      << "4 shards peak " << sharded << " B vs " << unsharded
      << " B unsharded: " << (sharded - unsharded) / kRecords
      << " extra bytes per record";
}

// The shuffle is a sort-merge: each map task keeps its sorted run, and the
// reduce merges the runs in place, so a job holds one view per shuffled
// record plus its key‖value bytes once, beside its output. The job below
// peaks at 143-163 B per shuffled record that way (about 22 B of key).
// A scatter into partition buckets, a flattened partition copy, per-group
// span tables or a key-order table of reduced groups each add 16-32 B per
// record or group and do not fit.
constexpr int64_t kShufflePeakPerRecord = 190;

TEST(RecordFootprintTest, DistinctJobPeaksWithinPerRecordBudget) {
  // DistinctProject's shape: one map task emits each row once as a key
  // (about 22 B), the combiner and the reduce keep one record per key.
  constexpr int kKeys = 80000;
  for (bool parallel_safe : {true, false}) {
    Dfs dfs;
    ClusterConfig cfg;
    cfg.exec_threads = parallel_safe ? 4 : 1;
    cfg.exec_split_bytes = uint64_t{1} << 30;  // one map task
    Cluster cluster(cfg, &dfs);
    RecordBatch input;
    for (int i = 0; i < kKeys; ++i) {
      input.Add("", std::to_string(1000000 + i) + "," +
                        std::to_string(2000000 + 7 * i) + "," +
                        std::to_string(3000000 + 13 * i));
    }
    ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());

    JobConfig job;
    job.name = "distinct";
    job.inputs = {"input"};
    job.output = "out";
    job.map = [](const Record& r, int, MapContext* ctx) {
      ctx->Emit(r.value(), "");
    };
    job.combine = [](std::string_view key, const ValueSpan&,
                     ReduceContext* ctx) { ctx->Emit(key, ""); };
    job.reduce = [](std::string_view key, const ValueSpan&,
                    ReduceContext* ctx) { ctx->Emit("", key); };
    job.reduce_parallel_safe = parallel_safe;
    JobConfig warm_up = job;
    warm_up.output = "warm-up";
    ASSERT_TRUE(cluster.Run(warm_up).ok());
    ASSERT_TRUE(dfs.Delete("warm-up").ok());

    const int64_t before = LiveBytes();
    ResetPeakBytes();
    auto stats = cluster.Run(job);
    const int64_t peak = PeakBytes() - before;
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->num_mappers, 1);
    ASSERT_EQ(stats->shuffle_records, static_cast<uint64_t>(kKeys));
    const int64_t records = static_cast<int64_t>(stats->shuffle_records);
    std::printf("distinct job, %s reduce: peak %.1f B per shuffled record\n",
                parallel_safe ? "4-thread parallel-safe" : "1-thread serial",
                static_cast<double>(peak) / static_cast<double>(records));
    EXPECT_LE(peak, records * kShufflePeakPerRecord)
        << (parallel_safe ? "parallel-safe" : "serial") << " reduce: "
        << peak / records << " B per shuffled record";
  }
}

// ---------------------------------------------------------------------------
// The term store (DESIGN.md §17): a dictionary term costs its text once
// plus a small fixed overhead, and a graph triple costs its 12 bytes plus
// one index slot, with no per-term or per-triple node allocations.

// Per-term allowance beyond the text: the 24-byte entry, about 8-21 bytes
// of index slots (8-byte slots at load 0.375-0.75), arena block slack and
// the deque's block map. A per-term key string, a node-based map entry or
// a doubling entry vector right after it grows does not fit.
constexpr int64_t kDictBytesPerTerm = 64;
// Per-triple allowance: 12 bytes of triples_ at up to 2x vector slack plus
// 8-byte index slots at load >= 0.375. A node-based set does not fit.
constexpr int64_t kGraphBytesPerTriple = 45;

TEST(TermStoreFootprintTest, DictionaryHoldsTextPlusSmallEntryPerTerm) {
  constexpr int kIris = 50000;
  constexpr int kIntegers = 20000;
  int64_t text_bytes = 0;
  const int64_t before = LiveBytes();
  {
    rdf::Dictionary dict;
    char buf[64];
    for (int i = 0; i < kIris; ++i) {
      const int n = std::snprintf(buf, sizeof(buf),
                                  "http://example.org/res/%07d", i);
      dict.InternIri(std::string_view(buf, static_cast<size_t>(n)));
      text_bytes += n;
    }
    for (int i = 0; i < kIntegers; ++i) {
      const int n = std::snprintf(buf, sizeof(buf), "%d", 1000000 + i);
      dict.InternLiteral(std::string_view(buf, static_cast<size_t>(n)),
                         rdf::kXsdInteger);
      text_bytes += n;
    }
    ASSERT_EQ(dict.size(), static_cast<size_t>(kIris + kIntegers));
    const int64_t held = LiveBytes() - before;
    const int64_t terms = kIris + kIntegers;
    std::printf("dictionary: %lld text bytes, %.1f bytes per term beyond "
                "the text\n",
                static_cast<long long>(text_bytes),
                static_cast<double>(held - text_bytes) / terms);
    EXPECT_LE(held, text_bytes + terms * kDictBytesPerTerm)
        << (held - text_bytes) / terms << " bytes per term beyond the text";
  }
  EXPECT_LE(LiveBytes() - before, 1024) << "destroying the dictionary leaked";
}

TEST(TermStoreFootprintTest, GraphHoldsEachTripleOncePlusOneIndexSlot) {
  constexpr int kSubjects = 1000, kProperties = 10, kObjects = 10;
  constexpr int64_t kTriples = kSubjects * kProperties * kObjects;
  rdf::Graph g;
  std::vector<rdf::TermId> subjects, properties, objects;
  for (int i = 0; i < kSubjects; ++i) {
    subjects.push_back(g.dict().InternIri("s" + std::to_string(i)));
  }
  for (int i = 0; i < kProperties; ++i) {
    properties.push_back(g.dict().InternIri("p" + std::to_string(i)));
  }
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(g.dict().InternIri("o" + std::to_string(i)));
  }
  const int64_t before = LiveBytes();
  for (rdf::TermId s : subjects) {
    for (rdf::TermId p : properties) {
      for (rdf::TermId o : objects) g.Add(s, p, o);
    }
  }
  for (rdf::TermId s : subjects) g.Add(s, properties[0], objects[0]);
  ASSERT_EQ(g.size(), static_cast<size_t>(kTriples));
  const int64_t held = LiveBytes() - before;
  std::printf("graph: %.1f bytes per triple\n",
              static_cast<double>(held) / kTriples);
  EXPECT_LE(held, kTriples * kGraphBytesPerTriple)
      << held / kTriples << " bytes per triple";
}

TEST(ResultTableFootprintTest, FlatTableHoldsFourBytesPerCell) {
  constexpr size_t kRows = 10000, kCols = 5;
  constexpr int64_t kCellBytes = kRows * kCols * sizeof(rdf::TermId);
  const int64_t before = LiveBytes();
  {
    analytics::BindingTable table({"c0", "c1", "c2", "c3", "c4"});
    std::vector<rdf::TermId> row(kCols);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        row[c] = static_cast<rdf::TermId>(r * kCols + c + 1);
      }
      table.AddRow(row);
    }
    const int64_t held = LiveBytes() - before;
    std::printf("result table: %.2f bytes per cell\n",
                static_cast<double>(held) / (kRows * kCols));
    // Growth by half leaves at most 1.5x the cells, plus the column names
    // and the array's control block.
    EXPECT_LE(held, kCellBytes * 3 / 2 + 1024);

    // The cache bills what the table keeps alive.
    const int64_t billed =
        static_cast<int64_t>(service::ResultCache::TableBytes(table));
    EXPECT_GE(billed, held * 3 / 4);
    EXPECT_LE(billed, held * 5 / 4);

    // A copy shares the cells: it adds its column names only.
    const int64_t before_copy = LiveBytes();
    analytics::BindingTable copy = table;
    EXPECT_EQ(copy.NumRows(), kRows);
    EXPECT_LE(LiveBytes() - before_copy,
              static_cast<int64_t>(kCols * sizeof(std::string)));
  }
  EXPECT_LE(LiveBytes() - before, 0) << "destroying the tables leaked";
}

TEST(ResultTableFootprintTest, CacheHitResponsesShareTheCachedCells) {
  constexpr int kSubjects = 2000;
  constexpr int kHeld = 1000;
  rdf::Graph g;
  for (int i = 0; i < kSubjects; ++i) {
    g.AddInt("s" + std::to_string(i), "v", i);
  }
  engine::Dataset dataset(std::move(g));
  service::ServiceOptions options;
  options.workers = 1;
  service::QueryService svc(options);
  svc.RegisterDataset("d", &dataset);
  const int session = svc.OpenSession("client");
  const service::QuerySpec spec{
      "SELECT ?s (SUM(?v) AS ?t) { ?s <v> ?v } GROUP BY ?s", "d"};

  service::Response first = svc.Execute(session, spec);
  ASSERT_TRUE(first.result.ok()) << first.result.status();
  ASSERT_EQ(first.result->NumRows(), static_cast<size_t>(kSubjects));
  const rdf::TermId* cells = first.result->Row(0).data();

  std::vector<service::Response> held;
  held.reserve(kHeld);
  held.push_back(svc.Execute(session, spec));  // warms the hit path
  const int64_t before = LiveBytes();
  for (int i = 1; i < kHeld; ++i) held.push_back(svc.Execute(session, spec));
  const int64_t per_response = (LiveBytes() - before) / (kHeld - 1);
  std::printf("cache-hit response: %lld bytes held for %zu bytes of cells\n",
              static_cast<long long>(per_response),
              first.result->CellBytes());
  for (const service::Response& r : held) {
    ASSERT_TRUE(r.result_cache_hit);
    ASSERT_TRUE(r.result.ok());
    // No table copies: every hit reads the one cached cell array.
    EXPECT_EQ(r.result->Row(0).data(), cells);
  }
  // The response's own strings and column names, not its 16,000 cell
  // bytes.
  EXPECT_LT(per_response, 1024);
}

}  // namespace
}  // namespace rapida::mr
