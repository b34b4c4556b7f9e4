// Memory-footprint gates for the record plane and the term store. A record
// at rest in a Dfs file costs its key‖value bytes plus two length varints;
// inside a running job it costs one 32-byte view plus its bytes once; a
// dictionary term costs its text once plus a small entry, and a graph
// triple its 12 bytes plus one index slot. A size-tracking operator new
// counts the live and the peak heap bytes, so the gates see every copy a
// Dfs file or a job keeps (a per-record view or column at rest, a second
// view array, a shard segment that duplicates the output, a per-record
// placement array) and every per-term or per-triple node the term store
// would allocate. A result table holds 4 bytes per cell in one array, and
// its copies (result-cache hits) share that array.
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
#include "workload/bsbm.h"

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

// Per-record allowance of a file at rest on top of its key‖value bytes:
// two length varints (one byte each below 128) and an 8-byte index entry
// per 64 records. A per-record view (32 bytes) or column (8 bytes) does
// not fit.
constexpr int64_t kPackedBytesPerRecord = 4;

int64_t PackedBudget(uint64_t records, uint64_t payload) {
  return static_cast<int64_t>(records) * kPackedBytesPerRecord +
         static_cast<int64_t>(payload);
}

TEST(RecordFootprintTest, RecordIsAThirtyTwoByteView) {
  EXPECT_EQ(sizeof(Record), 32u);
  RecordBatch batch;
  batch.Add("key", "value");
  // The batch holds the record packed: two one-byte lengths, then key and
  // value, and no view.
  ASSERT_EQ(batch.num_chunks(), 1u);
  const std::string_view packed = batch.chunk(0);
  EXPECT_EQ(packed, std::string_view("\x03\x05keyvalue", 10));
  EXPECT_EQ(batch.LogicalBytes(), 3u + 5u + 2u);
  // A decoded view points into those bytes: key and value are contiguous,
  // right after the lengths.
  const Record r = batch.At(0);
  EXPECT_EQ(r.data, packed.data() + 2);
  EXPECT_EQ(r.key().data() + r.key().size(), r.value().data());
  EXPECT_EQ(r.key(), "key");
  EXPECT_EQ(r.value(), "value");
  EXPECT_EQ(r.Bytes(), 3u + 5u + 2u);
}

TEST(RecordFootprintTest, DfsFileHoldsItsPackedBytes) {
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
  std::printf("dfs file: %.1f B per record beyond %.1f payload bytes\n",
              static_cast<double>(held - static_cast<int64_t>(payload)) /
                  kRecords,
              static_cast<double>(payload) / kRecords);
  EXPECT_LE(held, PackedBudget(kRecords, payload))
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
    // Everything the job left alive is its output file: the key‖value
    // bytes once, packed (Bytes() counts 2 separators).
    const uint64_t payload = stats->output_bytes - 2 * stats->output_records;
    EXPECT_LE(held, PackedBudget(stats->output_records, payload))
        << "threads " << threads << ": " << held / kRecords
        << " bytes per output record";

    // Dropping the file frees it all: no shard, task or partition still
    // holds a view or an arena of the output.
    ASSERT_TRUE(dfs.Delete("out").ok());
    EXPECT_LE(LiveBytes() - before, 4096) << "threads " << threads;
  }
}

TEST(RecordFootprintTest, DatasetLayoutsHoldTheirPackedBytes) {
  // BSBM-8000 at seed 1 (the bsbm-mg benchmark's data): every VP and
  // triplegroup file at rest, plus the layout maps that name them.
  workload::BsbmConfig cfg;
  cfg.num_products = 8000;
  cfg.seed = 1;
  engine::Dataset dataset(workload::GenerateBsbm(cfg));
  const int64_t before = LiveBytes();
  ASSERT_TRUE(dataset.EnsureVpTables().ok());
  ASSERT_TRUE(dataset.EnsureTripleGroups().ok());
  const int64_t held = LiveBytes() - before;

  uint64_t records = 0, payload = 0;
  for (const std::string& name : dataset.dfs().ListFiles()) {
    auto file = dataset.dfs().Open(name);
    ASSERT_TRUE(file.ok());
    records += (*file)->size();
    (*file)->ForEach([&payload](const Record& r) {
      payload += uint64_t{r.key_size} + r.value_size;
    });
  }
  ASSERT_GT(records, 0u);
  const double beyond =
      static_cast<double>(held - static_cast<int64_t>(payload)) /
      static_cast<double>(records);
  std::printf("BSBM-8000 layouts: %llu records, %llu payload bytes, %.1f B "
              "per record beyond the payload\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(payload), beyond);
  EXPECT_LE(held, PackedBudget(records, payload))
      << beyond << " B per record beyond the payload";
}

TEST(RecordFootprintTest, DatasetSetUpPeaksWithinTwiceItsLayouts) {
  // Set-up holds each layout's records packed while it builds them, and
  // the triplegroups from one sorted copy of the triples, so its peak is
  // what the layouts keep plus about that again.
  workload::BsbmConfig cfg;
  cfg.num_products = 8000;
  cfg.seed = 1;
  engine::Dataset dataset(workload::GenerateBsbm(cfg));
  const int64_t before = LiveBytes();
  ResetPeakBytes();
  ASSERT_TRUE(dataset.EnsureVpTables().ok());
  ASSERT_TRUE(dataset.EnsureTripleGroups().ok());
  const int64_t peak = PeakBytes() - before;
  const int64_t held = LiveBytes() - before;
  std::printf("BSBM-8000 set-up: peak %.2f MiB above its start for %.2f MiB "
              "of layouts (%.2fx)\n",
              static_cast<double>(peak) / (1 << 20),
              static_cast<double>(held) / (1 << 20),
              static_cast<double>(peak) / static_cast<double>(held));
  EXPECT_LE(peak, 2 * held) << peak << " B peak for " << held
                            << " B of layouts";
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

// The shuffle is a sort-merge over packed records: each map task keeps its
// sorted run (its packed records plus a 16-byte order entry each), and the
// reduce merges the runs in place into packed range batches, so a job
// holds its key‖value bytes a few times over plus 16 B per shuffled record
// beside its output, and no 32-byte view per record. The job below peaks
// at 67.4 B (4-thread ranges) and 66.7 B (the serial reduce) per shuffled
// record that way (about 22 B of key); the budget is the larger plus 10%.
// A view array per run or per output batch (it read 143.2 and 163.0 B
// that way), a scatter into partition buckets, a flattened partition copy
// or per-group span tables each add 16-32 B per record or group and do
// not fit.
constexpr int64_t kShufflePeakPerRecord = 75;

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

// A job without a combiner that re-keys across three map tasks (the shape
// of a Hive star join over three VP tables): each task keeps its packed
// emissions and their order, and every key is merged from all three runs.
// It peaks at 45.7 B (4-thread ranges) and 45.9 B (the serial reduce) per
// shuffled record of 17 B; the budget is the larger plus 10%. A 32-byte
// view per record of its runs and of its reduce output read 82.6 and
// 82.8 B.
constexpr int64_t kRekeyPeakPerRecord = 51;

TEST(RecordFootprintTest, RekeyingJobPeaksWithinPerRecordBudget) {
  constexpr int kSubjects = 24000;
  for (bool parallel_safe : {true, false}) {
    Dfs dfs;
    ClusterConfig cfg;
    cfg.exec_threads = parallel_safe ? 4 : 1;
    cfg.exec_split_bytes = uint64_t{1} << 30;  // one map task per input
    Cluster cluster(cfg, &dfs);
    JobConfig job;
    job.name = "star-join";
    for (int t = 0; t < 3; ++t) {
      RecordBatch input;
      for (int i = 0; i < kSubjects; ++i) {
        // A VP row (subject, object), spread so each task's emissions
        // arrive out of key order.
        const int s = (i * 7919 + t * 13) % kSubjects;
        input.Add(std::to_string(100000 + s),
                  std::to_string(2000000 + 3 * i + t));
      }
      const std::string name = "vp" + std::to_string(t);
      ASSERT_TRUE(dfs.Write(name, std::move(input)).ok());
      job.inputs.push_back(name);
    }
    job.output = "out";
    job.map = [](const Record& r, int tag, MapContext* ctx) {
      ctx->Emit(r.key(), std::to_string(tag) + "|" + std::string(r.value()));
    };
    job.reduce = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
      std::string row;
      for (std::string_view v : values) {
        if (!row.empty()) row += ',';
        row += v.substr(2);
      }
      ctx->Emit(key, row);
    };
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
    ASSERT_EQ(stats->num_mappers, 3);
    ASSERT_EQ(stats->shuffle_records, 3u * kSubjects);
    const int64_t records = static_cast<int64_t>(stats->shuffle_records);
    std::printf("re-keying job, %s reduce: %.1f shuffled B and peak %.1f B "
                "per shuffled record\n",
                parallel_safe ? "4-thread parallel-safe" : "1-thread serial",
                static_cast<double>(stats->shuffle_bytes) / records,
                static_cast<double>(peak) / static_cast<double>(records));
    EXPECT_LE(peak, records * kRekeyPeakPerRecord)
        << (parallel_safe ? "parallel-safe" : "serial") << " reduce: "
        << peak / records << " B per shuffled record";
  }
}

// A job without a combiner whose one map task emits every record under one
// hot key (a skewed join key): the reduce decodes all of the key's values
// into its gather buffer at once, 32 B each beside the run's packed bytes
// and 16-byte order entries. Sized exactly for the group, it peaks at
// 60.3 B per shuffled record of 12 B, parallel-safe and serial; the budget
// is that plus 10%. A gather buffer grown by doubling read 106.9 B (a
// 32-byte view per run record, with no gather, read 61.1 B).
constexpr int64_t kHotKeyPeakPerRecord = 66;

TEST(RecordFootprintTest, HotKeyJobPeaksWithinPerRecordBudget) {
  constexpr int kRecords = 80000;
  for (bool parallel_safe : {true, false}) {
    Dfs dfs;
    ClusterConfig cfg;
    cfg.exec_threads = parallel_safe ? 4 : 1;
    cfg.exec_split_bytes = uint64_t{1} << 30;  // one map task
    Cluster cluster(cfg, &dfs);
    RecordBatch input;
    for (int i = 0; i < kRecords; ++i) {
      input.Add(std::to_string(100000 + i), std::to_string(2000000 + 7 * i));
    }
    ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());

    JobConfig job;
    job.name = "hot-key";
    job.inputs = {"input"};
    job.output = "out";
    job.map = [](const Record& r, int, MapContext* ctx) {
      ctx->Emit("hot", r.value());
    };
    job.reduce = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
      uint64_t bytes = 0;
      for (std::string_view v : values) bytes += v.size();
      ctx->Emit(key, std::to_string(bytes));
    };
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
    ASSERT_EQ(stats->shuffle_records, static_cast<uint64_t>(kRecords));
    ASSERT_EQ(stats->output_records, 1u);
    const int64_t records = static_cast<int64_t>(stats->shuffle_records);
    std::printf("hot-key job, %s reduce: %.1f shuffled B and peak %.1f B "
                "per shuffled record\n",
                parallel_safe ? "4-thread parallel-safe" : "1-thread serial",
                static_cast<double>(stats->shuffle_bytes) / records,
                static_cast<double>(peak) / static_cast<double>(records));
    EXPECT_LE(peak, records * kHotKeyPeakPerRecord)
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
