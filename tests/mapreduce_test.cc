#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "records_of.h"
#include "testing/normalize.h"
#include "util/string_util.h"

namespace rapida::mr {
namespace {

RecordBatch MakeBatch(std::initializer_list<
                      std::pair<const char*, const char*>> kvs) {
  RecordBatch out;
  for (const auto& [k, v] : kvs) out.Add(k, v);
  return out;
}

TEST(DfsTest, WriteOpenDelete) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("f1", MakeBatch({{"a", "1"}, {"b", "2"}})).ok());
  auto file = dfs.Open("f1");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->size(), 2u);
  EXPECT_GT((*file)->stored_bytes, 0u);
  EXPECT_TRUE(dfs.Exists("f1"));
  ASSERT_TRUE(dfs.Delete("f1").ok());
  EXPECT_FALSE(dfs.Exists("f1"));
  EXPECT_EQ(dfs.TotalStoredBytes(), 0u);
  EXPECT_FALSE(dfs.Open("f1").ok());
  EXPECT_FALSE(dfs.Delete("f1").ok());
}

TEST(DfsTest, CompressionShrinksStoredBytes) {
  Dfs dfs;
  RecordBatch plain_recs, orc_recs;
  for (int i = 0; i < 100; ++i) {
    plain_recs.Add("key", "valuevalue");
    orc_recs.Add("key", "valuevalue");
  }
  FileOptions orc;
  orc.compressed = true;
  orc.compression_ratio = 0.2;
  ASSERT_TRUE(dfs.Write("plain", std::move(plain_recs)).ok());
  ASSERT_TRUE(dfs.Write("orc", std::move(orc_recs), orc).ok());
  auto plain = dfs.Open("plain");
  auto compressed = dfs.Open("orc");
  EXPECT_EQ((*compressed)->logical_bytes, (*plain)->logical_bytes);
  EXPECT_LT((*compressed)->stored_bytes, (*plain)->stored_bytes / 4);
}

TEST(DfsTest, CapacityLimitReproducesDiskFull) {
  Dfs dfs;
  dfs.SetCapacityLimit(100);
  RecordBatch big;
  for (int i = 0; i < 20; ++i) big.Add("0123456789", "0123456789");
  Status s = dfs.Write("big", std::move(big));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kResourceExhausted);
  // Small write still fits.
  EXPECT_TRUE(dfs.Write("small", MakeBatch({{"a", "b"}})).ok());
}

TEST(DfsTest, OverwriteReplacesAccounting) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("f", MakeBatch({{"aaaa", "bbbb"}})).ok());
  uint64_t after_first = dfs.TotalStoredBytes();
  ASSERT_TRUE(dfs.Write("f", MakeBatch({{"a", "b"}})).ok());
  EXPECT_LT(dfs.TotalStoredBytes(), after_first);
  EXPECT_GT(dfs.LifetimeBytesWritten(), dfs.TotalStoredBytes());
}

/// `n` bytes that differ between records and include bytes >= 0x80, which
/// a misplaced varint decode would read as length continuations.
std::string Pattern(size_t n, size_t seed) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((seed * 31 + i * 7) % 256);
  }
  return out;
}

// A batch packs each record as a file does. Keys and values at every
// length where a length varint changes width (and past the first chunk's
// 4 KiB, so records straddle chunks and big ones get a chunk of their own)
// decode back exactly, in Add order, through ForEach and At, and a
// position read as a number is Add order.
TEST(RecordBatchTest, AddDecodeRoundTripsEveryVarintWidth) {
  const std::vector<size_t> widths = {0, 127, 128, 16383, 16384};
  std::vector<std::pair<std::string, std::string>> want;
  for (size_t k : widths) {
    for (size_t v : widths) {
      want.emplace_back(Pattern(k, want.size()), Pattern(v, want.size() + 1));
    }
  }
  RecordBatch batch;
  uint64_t logical = 0;
  for (const auto& [key, value] : want) {
    batch.Add(key, value);
    logical += key.size() + value.size() + 2;
  }
  EXPECT_EQ(batch.size(), want.size());
  EXPECT_EQ(batch.LogicalBytes(), logical);
  EXPECT_GT(batch.num_chunks(), 2u);

  std::vector<std::pair<std::string, std::string>> got;
  std::vector<uint64_t> positions;
  batch.ForEach([&](const Record& r, uint64_t position) {
    got.emplace_back(std::string(r.key()), std::string(r.value()));
    EXPECT_EQ(r.Bytes(), r.key().size() + r.value().size() + 2);
    positions.push_back(position);
  });
  EXPECT_TRUE(got == want);
  ASSERT_EQ(positions.size(), want.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(positions[i - 1], positions[i]) << "record " << i;
    }
    const Record r = batch.At(positions[i]);
    EXPECT_EQ(r.key(), want[i].first) << "record " << i;
    EXPECT_EQ(r.value(), want[i].second) << "record " << i;
  }
}

// A record goes into the current chunk only if it fits the chunk's
// remainder: one that fills the first chunk's 4 KiB exactly stays in it,
// and one a byte longer opens the next chunk.
TEST(RecordBatchTest, ARecordLongerThanTheChunkRemainderOpensANewChunk) {
  const std::string big(4083, 'a');  // 2 + 1 + 4083 = 4086 packed bytes
  RecordBatch exact;
  exact.Add(big, "");
  exact.Add("bbbbbbbb", "");  // 10 packed bytes: the 4 KiB remainder
  ASSERT_EQ(exact.num_chunks(), 1u);
  EXPECT_EQ(exact.chunk(0).size(), 4096u);

  RecordBatch over;
  over.Add(big, "");
  over.Add("bbbbbbbbb", "");  // 11 packed bytes
  ASSERT_EQ(over.num_chunks(), 2u);
  EXPECT_EQ(over.chunk(0).size(), 4086u);
  EXPECT_EQ(over.chunk(1).size(), 11u);
  std::vector<std::string> keys;
  over.ForEach([&keys](const Record& r, uint64_t) {
    keys.emplace_back(r.key());
  });
  EXPECT_EQ(keys, (std::vector<std::string>{big, "bbbbbbbbb"}));
}

// A file at rest packs each record as a varint key length, a varint value
// length, the key and the value. Every length at which a varint changes
// width reads back exactly, as key and as value, each record stamped as
// RecordBatch::Add stamps it, and the file's logical bytes are the sum of
// the records' footprints.
TEST(DfsTest, PackedRecordsRoundTripEveryVarintWidth) {
  const std::vector<size_t> lengths = {0,     1,     127, 128,
                                       16383, 16384, size_t{1} << 21};
  std::vector<std::pair<std::string, std::string>> want;
  for (size_t n : lengths) {
    want.emplace_back(Pattern(n, want.size()), "");
    want.emplace_back("", Pattern(n, want.size()));
    want.emplace_back(Pattern(n, want.size()), Pattern(n + 1, want.size()));
  }
  want.emplace_back("", "");
  RecordBatch batch;
  uint64_t logical = 0;
  for (const auto& [key, value] : want) {
    batch.Add(key, value);
    logical += key.size() + value.size() + 2;
  }
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("f", std::move(batch)).ok());
  auto file = dfs.Open("f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->size(), want.size());
  EXPECT_EQ((*file)->logical_bytes, logical);
  EXPECT_TRUE(RecordsOf(**file) == want);
  size_t i = 0;
  (*file)->ForEach([&](const Record& r) {
    EXPECT_EQ(r.key_prefix, KeyPrefix(want[i].first)) << "record " << i;
    EXPECT_EQ(r.key_hash, HashKey(want[i].first)) << "record " << i;
    EXPECT_EQ(r.Bytes(), want[i].first.size() + want[i].second.size() + 2);
    ++i;
  });
  EXPECT_EQ(i, want.size());
}

// Write packs its parts in order, into one file.
TEST(DfsTest, WritePacksPartsInOrder) {
  std::vector<RecordBatch> parts;
  parts.push_back(MakeBatch({{"b", "1"}, {"a", "2"}}));
  parts.push_back(RecordBatch());
  parts.push_back(MakeBatch({{"c", "3"}}));
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("f", std::move(parts)).ok());
  auto file = dfs.Open("f");
  ASSERT_TRUE(file.ok());
  const std::vector<std::pair<std::string, std::string>> want = {
      {"b", "1"}, {"a", "2"}, {"c", "3"}};
  EXPECT_TRUE(RecordsOf(**file) == want);
  EXPECT_EQ((*file)->logical_bytes, 3u * 4u);
  EXPECT_EQ(dfs.TotalStoredBytes(), 3u * 4u);
}

// ForRange seeks through the sparse index: every range whose ends lie
// within 2 records of an index-stride boundary (or of the file's end)
// reads exactly that slice of a full read.
TEST(DfsTest, ForRangeEqualsTheSliceOfAFullRead) {
  constexpr uint64_t kStride = Dfs::File::kIndexStride;
  constexpr uint64_t kRecords = 4 * kStride + 3;
  RecordBatch batch;
  for (uint64_t i = 0; i < kRecords; ++i) {
    // Values of 0-299 bytes: 1- and 2-byte length varints interleave.
    batch.Add(std::to_string(i), Pattern(i * 37 % 300, i));
  }
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("f", std::move(batch)).ok());
  auto file = dfs.Open("f");
  ASSERT_TRUE(file.ok());
  const auto all = RecordsOf(**file);
  ASSERT_EQ(all.size(), kRecords);

  std::vector<uint64_t> ends;
  for (uint64_t boundary = 0; boundary <= kRecords + kStride;
       boundary += kStride) {
    const uint64_t mark = std::min(boundary, kRecords);
    for (uint64_t p = mark < 2 ? 0 : mark - 2; p <= mark + 2; ++p) {
      if (p <= kRecords) ends.push_back(p);
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  for (uint64_t b : ends) {
    for (uint64_t e : ends) {
      if (e < b) continue;
      std::vector<std::pair<std::string, std::string>> got;
      (*file)->ForRange(b, e, [&got](const Record& r) {
        got.emplace_back(std::string(r.key()), std::string(r.value()));
      });
      const std::vector<std::pair<std::string, std::string>> slice(
          all.begin() + static_cast<std::ptrdiff_t>(b),
          all.begin() + static_cast<std::ptrdiff_t>(e));
      EXPECT_TRUE(got == slice) << "records [" << b << ", " << e << ")";
    }
  }
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(ClusterConfig{}, &dfs_) {}
  Dfs dfs_;
  Cluster cluster_;
};

TEST_F(ClusterTest, WordCount) {
  RecordBatch lines;
  lines.Add("", "a b a");
  lines.Add("", "b a");
  ASSERT_TRUE(dfs_.Write("input", std::move(lines)).ok());

  JobConfig job;
  job.name = "wordcount";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    for (const std::string& w : SplitString(r.value(), ' ')) {
      ctx->Emit(w, "1");
    }
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };
  auto stats = cluster_.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->map_only);
  EXPECT_EQ(stats->input_records, 2u);
  EXPECT_EQ(stats->map_output_records, 5u);
  EXPECT_EQ(stats->output_records, 2u);

  auto out = dfs_.Open("out");
  ASSERT_TRUE(out.ok());
  // Keys arrive in sorted order from the reduce phase.
  EXPECT_EQ(RecordsOf(**out)[0].first, "a");
  EXPECT_EQ(RecordsOf(**out)[0].second, "3");
  EXPECT_EQ(RecordsOf(**out)[1].first, "b");
  EXPECT_EQ(RecordsOf(**out)[1].second, "2");
}

TEST_F(ClusterTest, CombinerShrinksShuffle) {
  RecordBatch lines;
  for (int i = 0; i < 50; ++i) lines.Add("", "x x x x");
  ASSERT_TRUE(dfs_.Write("input", std::move(lines)).ok());

  JobConfig job;
  job.name = "combined";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    for (const std::string& w : SplitString(r.value(), ' ')) ctx->Emit(w, "1");
  };
  ReduceFn sum = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
    int64_t total = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      ParseInt64(v, &n);
      total += n;
    }
    ctx->Emit(key, std::to_string(total));
  };
  job.reduce = sum;

  auto no_combine = cluster_.Run(job);
  ASSERT_TRUE(no_combine.ok());

  job.combine = sum;
  auto with_combine = cluster_.Run(job);
  ASSERT_TRUE(with_combine.ok());

  EXPECT_LT(with_combine->shuffle_records, no_combine->shuffle_records);
  // Same final answer either way.
  auto out = dfs_.Open("out");
  EXPECT_EQ(RecordsOf(**out)[0].second, "200");
}

TEST_F(ClusterTest, MapOnlyJobSkipsShuffle) {
  ASSERT_TRUE(dfs_.Write("input", MakeBatch({{"k", "v"}})).ok());
  JobConfig job;
  job.name = "identity";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  auto stats = cluster_.Run(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->map_only);
  EXPECT_EQ(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->num_reducers, 0);
  EXPECT_EQ((*dfs_.Open("out"))->size(), 1u);
}

// Splits are record ranges of the packed input: at a split size of a few
// records, most splits start mid-stride of the file's index, and a
// map-only identity job writes exactly its input, in order.
TEST(ParallelClusterTest, MapOnlyIdentityJobWritesExactlyItsInput) {
  constexpr uint64_t kRecords = 1000;
  for (int threads : {1, 4}) {
    Dfs dfs;
    RecordBatch input;
    for (uint64_t i = 0; i < kRecords; ++i) {
      input.Add(Pattern(i % 5, i), Pattern(i * 13 % 200, i + 1));
    }
    ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());
    ClusterConfig cfg;
    cfg.exec_split_bytes = 300;
    cfg.exec_threads = threads;
    Cluster cluster(cfg, &dfs);
    JobConfig job;
    job.name = "identity";
    job.inputs = {"input"};
    job.output = "out";
    job.map = [](const Record& r, int, MapContext* ctx) {
      ctx->Emit(r.key(), r.value());
    };
    auto stats = cluster.Run(job);
    ASSERT_TRUE(stats.ok()) << stats.status();
    // Splits of a handful of records: far more than one per index stride.
    EXPECT_GT(static_cast<uint64_t>(stats->num_mappers),
              4 * kRecords / Dfs::File::kIndexStride);
    EXPECT_EQ(stats->output_records, kRecords);
    auto in = dfs.Open("input");
    auto out = dfs.Open("out");
    ASSERT_TRUE(in.ok() && out.ok());
    EXPECT_TRUE(RecordsOf(**out) == RecordsOf(**in)) << threads << " threads";
    EXPECT_EQ((*out)->logical_bytes, (*in)->logical_bytes);
  }
}

TEST_F(ClusterTest, InputTagsDistinguishSides) {
  ASSERT_TRUE(dfs_.Write("left", MakeBatch({{"k1", "l"}})).ok());
  ASSERT_TRUE(dfs_.Write("right", MakeBatch({{"k1", "r"}})).ok());
  JobConfig job;
  job.name = "tagjoin";
  job.inputs = {"left", "right"};
  job.output = "out";
  job.map = [](const Record& r, int tag, MapContext* ctx) {
    std::string tagged = tag == 0 ? "L:" : "R:";
    tagged += r.value();
    ctx->Emit(r.key(), tagged);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    std::string joined;
    for (std::string_view v : values) joined += v;
    ctx->Emit(key, joined);
  };
  auto stats = cluster_.Run(job);
  ASSERT_TRUE(stats.ok());
  auto out = dfs_.Open("out");
  EXPECT_NE(RecordsOf(**out)[0].second.find("L:l"), std::string::npos);
  EXPECT_NE(RecordsOf(**out)[0].second.find("R:r"), std::string::npos);
}

TEST_F(ClusterTest, MapFinishFlushesPerMapperState) {
  RecordBatch input;
  for (int i = 0; i < 10; ++i) input.Add("k", "1");
  ASSERT_TRUE(dfs_.Write("input", std::move(input)).ok());
  JobConfig job;
  job.name = "stateful";
  job.inputs = {"input"};
  job.output = "out";
  auto counter = std::make_shared<int>(0);
  job.map = [counter](const Record&, int, MapContext*) { ++*counter; };
  job.map_finish = [counter](MapContext* ctx) {
    ctx->Emit("total", std::to_string(*counter));
    *counter = 0;
  };
  auto stats = cluster_.Run(job);
  ASSERT_TRUE(stats.ok());
  // One flush per mapper; with a small input there is a single mapper.
  auto out = dfs_.Open("out");
  ASSERT_EQ((*out)->size(), 1u);
  EXPECT_EQ(RecordsOf(**out)[0].second, "10");
}

TEST_F(ClusterTest, MissingInputFails) {
  JobConfig job;
  job.name = "missing";
  job.inputs = {"nope"};
  job.output = "out";
  job.map = [](const Record&, int, MapContext*) {};
  EXPECT_FALSE(cluster_.Run(job).ok());
}

TEST_F(ClusterTest, CapacityFailurePropagates) {
  ASSERT_TRUE(dfs_.Write("input", MakeBatch({{"k", "v"}})).ok());
  dfs_.SetCapacityLimit(dfs_.TotalStoredBytes() + 1);
  JobConfig job;
  job.name = "blowup";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    for (int i = 0; i < 100; ++i) ctx->Emit(r.key(), "xxxxxxxxxxxxxxxx");
  };
  auto stats = cluster_.Run(job);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), Code::kResourceExhausted);
}

TEST_F(ClusterTest, CostModelShape) {
  ClusterConfig cfg;
  Cluster c(cfg, &dfs_);
  JobStats small;
  small.input_bytes = 1 << 20;
  small.num_mappers = 1;
  small.map_only = true;
  JobStats big = small;
  big.input_bytes = 200 << 20;
  big.num_mappers = 50;
  // More data costs more time even with more mappers (slots saturate).
  EXPECT_GT(c.EstimateSimSeconds(big), c.EstimateSimSeconds(small));

  // A shuffle-heavy job costs more than a map-only job of the same size.
  JobStats shuffled = big;
  shuffled.map_only = false;
  shuffled.shuffle_bytes = big.input_bytes;
  shuffled.num_reducers = 10;
  EXPECT_GT(c.EstimateSimSeconds(shuffled), c.EstimateSimSeconds(big));

  // More nodes make the same job faster.
  ClusterConfig big_cfg = cfg;
  big_cfg.num_nodes = 60;
  Cluster c60(big_cfg, &dfs_);
  EXPECT_LT(c60.EstimateSimSeconds(shuffled), c.EstimateSimSeconds(shuffled));
}

// The multi-input combiner job used by the determinism tests: word counts
// tagged by input side, with enough records and a small split size that
// the parallel run gets many map tasks.
JobConfig DeterminismJob(ReduceFn* sum_out = nullptr) {
  JobConfig job;
  job.name = "determinism";
  job.inputs = {"left", "right"};
  job.output = "out";
  job.map = [](const Record& r, int tag, MapContext* ctx) {
    for (const std::string& w : SplitString(r.value(), ' ')) {
      ctx->Emit((tag == 0 ? "L" : "R") + w, "1");
    }
  };
  ReduceFn sum = [](std::string_view key, const ValueSpan& values,
                    ReduceContext* ctx) {
    int64_t total = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      ParseInt64(v, &n);
      total += n;
    }
    ctx->Emit(key, std::to_string(total));
  };
  job.combine = sum;
  job.reduce = sum;
  if (sum_out != nullptr) *sum_out = sum;
  return job;
}

void WriteDeterminismInputs(Dfs* dfs) {
  RecordBatch left, right;
  for (int i = 0; i < 400; ++i) {
    std::string line;
    for (int w = 0; w < 6; ++w) {
      if (w > 0) line += ' ';
      line += "w" + std::to_string((i * 7 + w * 13) % 50);
    }
    (i % 2 == 0 ? left : right).Add("", line);
  }
  ASSERT_TRUE(dfs->Write("left", std::move(left)).ok());
  ASSERT_TRUE(dfs->Write("right", std::move(right)).ok());
}

void ExpectSameStats(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.input_records, b.input_records);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.map_output_bytes, b.map_output_bytes);
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.output_records, b.output_records);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.num_mappers, b.num_mappers);
  EXPECT_EQ(a.num_reducers, b.num_reducers);
  // Tolerant comparison: per-task sim seconds are summed in scheduling
  // order, which may differ across thread counts.
  EXPECT_TRUE(difftest::ApproxEqual(a.sim_seconds, b.sim_seconds))
      << a.sim_seconds << " vs " << b.sim_seconds;
}

// One thread vs eight must agree byte-for-byte: same output records in the
// same order, same counters, same simulated seconds. Exercised both for
// the serial (key-order-merge) reduce and the parallel-safe reduce path.
TEST(ParallelClusterTest, ThreadCountDoesNotChangeResults) {
  for (bool parallel_safe_reduce : {false, true}) {
    Dfs dfs1, dfs8;
    WriteDeterminismInputs(&dfs1);
    WriteDeterminismInputs(&dfs8);

    ClusterConfig cfg1;
    cfg1.exec_split_bytes = 256;  // many map tasks even on tiny inputs
    cfg1.exec_threads = 1;
    ClusterConfig cfg8 = cfg1;
    cfg8.exec_threads = 8;
    Cluster c1(cfg1, &dfs1);
    Cluster c8(cfg8, &dfs8);

    JobConfig job = DeterminismJob();
    job.reduce_parallel_safe = parallel_safe_reduce;

    auto s1 = c1.Run(job);
    auto s8 = c8.Run(job);
    ASSERT_TRUE(s1.ok()) << s1.status();
    ASSERT_TRUE(s8.ok()) << s8.status();
    EXPECT_GT(s1->num_mappers, 4);
    ExpectSameStats(*s1, *s8);
    EXPECT_TRUE(difftest::ApproxEqual(c1.EstimateSimSeconds(*s1),
                                    c8.EstimateSimSeconds(*s8)));

    auto out1 = dfs1.Open("out");
    auto out8 = dfs8.Open("out");
    ASSERT_TRUE(out1.ok() && out8.ok());
    const auto records1 = RecordsOf(**out1);
    const auto records8 = RecordsOf(**out8);
    ASSERT_EQ(records1.size(), records8.size());
    // Byte-identical in original emission order...
    for (size_t i = 0; i < records1.size(); ++i) {
      EXPECT_EQ(records1[i].first, records8[i].first);
      EXPECT_EQ(records1[i].second, records8[i].second);
    }
    // ...and (a fortiori) after a canonical sort.
    auto canon = [](const std::vector<std::pair<std::string, std::string>>&
                        recs) {
      std::vector<std::string> out;
      for (const auto& [key, value] : recs) out.push_back(key + "\t" + value);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(canon(records1), canon(records8));
  }
}

// The ValueSpan handed to reduce exposes the group through size(),
// operator[], and iteration, all views into the merged runs. One key's
// values spread over several map tasks arrive in (map task, emission)
// order, whether one run holds them or several do.
TEST_F(ClusterTest, ValueSpanAccessorsAgree) {
  RecordBatch input;
  std::string expected;
  for (int i = 0; i < 30; ++i) {
    const std::string value = "v" + std::to_string(100 + i);
    input.Add("k", value);
    expected += value + "|";
  }
  input.Add("solo", "only");
  ASSERT_TRUE(dfs_.Write("input", std::move(input)).ok());
  JobConfig job;
  job.name = "span";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ASSERT_FALSE(values.empty());
    std::string by_index, by_iter;
    for (size_t i = 0; i < values.size(); ++i) {
      by_index += values[i];
      by_index += '|';
    }
    for (std::string_view v : values) {
      by_iter += v;
      by_iter += '|';
    }
    EXPECT_EQ(by_index, by_iter);
    ctx->Emit(key, by_iter);
  };
  for (uint64_t split_bytes : {uint64_t{1} << 20, uint64_t{64}}) {
    ClusterConfig cfg;
    cfg.exec_split_bytes = split_bytes;
    Cluster cluster(cfg, &dfs_);
    auto stats = cluster.Run(job);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->num_mappers > 1, split_bytes == 64);
    auto out = dfs_.Open("out");
    ASSERT_TRUE(out.ok());
    ASSERT_EQ((*out)->size(), 2u);
    EXPECT_EQ(RecordsOf(**out)[0].first, "k");
    EXPECT_EQ(RecordsOf(**out)[0].second, expected);
    EXPECT_EQ(RecordsOf(**out)[1].second, "only|");
  }
}

// Inputs for the reduce-mode matrix, including the merge's edge cases.
// Each input record's value lists the keys its map call emits; the value
// emitted is "<record>.<position>", so an output line shows the order its
// key's values arrived in.
std::vector<std::pair<std::string, std::string>> MergeInput(
    const std::string& shape) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (int i = 0; i < 240; ++i) {
    std::string keys;
    if (shape == "words") {
      // Word-count lines like WriteDeterminismInputs': 6 words out of 50.
      for (int w = 0; w < 6; ++w) {
        keys += " w" + std::to_string((i * 7 + w * 13) % 50);
      }
    } else if (shape == "hot-key-in-every-task") {
      keys = "hot k" + std::to_string(i % 37);
    } else if (shape == "one-key") {
      keys = "same same";
    } else if (shape == "distinct-keys") {
      keys = "d" + std::to_string(1000 + i);
    } else if (shape == "empty-tasks") {
      // Whole splits (about a dozen records each) emit nothing.
      if (i % 60 < 30) keys = "e" + std::to_string(i % 11);
    } else if (shape == "wide") {
      // Keys and values 0, 127, 128, 16383 and 16384 bytes long (see
      // MergeEmission): a map task's records outgrow its batch's first
      // chunks and big ones get a chunk each, so equal keys of one task
      // straddle chunk boundaries; the keys all share their 8-byte prefix.
      constexpr size_t kWidths[] = {0, 127, 128, 16383, 16384};
      keys = "=" + std::to_string(kWidths[i % 5]) + "," +
             std::to_string(kWidths[(i / 5) % 5]) + " =" +
             std::to_string(kWidths[(i + 2) % 5]) + "," +
             std::to_string(kWidths[(i * 3 + 1) % 5]);
    } else if (shape == "shared-prefix") {
      // Every key shares its first 20 bytes, so the splitters tie on the
      // 8-byte prefix and cut on the full key.
      keys = "http://example.org/k" + std::to_string(i % 53) +
             " http://example.org/k" + std::to_string((i * 7) % 41);
    }
    rows.emplace_back(std::to_string(i), keys);
  }
  return rows;
}

/// What the merge matrix's map emits for one word of input record
/// `record`: (word, "record.position"), or for a word "=K,V" a key of K
/// bytes and a value of V bytes that starts with "record.position/".
std::pair<std::string, std::string> MergeEmission(std::string_view record,
                                                  std::string_view word,
                                                  int position) {
  std::string tag = std::string(record) + "." + std::to_string(position);
  if (word.empty() || word[0] != '=') return {std::string(word), tag};
  const size_t comma = word.find(',');
  const size_t key_size = std::stoul(std::string(word.substr(1, comma - 1)));
  const size_t value_size = std::stoul(std::string(word.substr(comma + 1)));
  std::string value = tag + "/";
  while (value.size() < value_size) value += value;
  value.resize(value_size);
  return {std::string(key_size, 'k'), value};
}

// The full reduce-mode matrix over the merge's edge cases:
// reduce_parallel_safe x exec_threads x shards x combine. Every cell's
// output lines must equal the oracle's (keys ascending, each key's values
// in input order, which is (map task, emission) order because splits are
// contiguous), and its counters the 1-thread serial run's with the same
// shards and combiner.
TEST(ParallelClusterTest, ValueSpanReduceModesAreByteIdentical) {
  // Reduce and combine both join their values in order, so a combined
  // run's output equals an uncombined one's.
  ReduceFn join = [](std::string_view key, const ValueSpan& values,
                     ReduceContext* ctx) {
    std::string joined;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) joined += '|';
      joined += values[i];
    }
    ctx->Emit(key, joined);
  };
  for (const char* shape : {"words", "hot-key-in-every-task", "one-key",
                            "distinct-keys", "empty-tasks", "shared-prefix",
                            "wide"}) {
    std::map<std::string, std::string> oracle;
    for (const auto& [record, keys] : MergeInput(shape)) {
      FieldTokenizer words(keys, ' ');
      std::string_view word;
      int position = 0;
      while (words.Next(&word)) {
        if (word.empty()) continue;
        const auto [key, value] = MergeEmission(record, word, position++);
        auto [it, fresh] = oracle.try_emplace(key, value);
        if (!fresh) it->second += "|" + value;
      }
    }
    std::vector<std::string> reference_lines;
    for (const auto& [key, joined] : oracle) {
      reference_lines.push_back(key + "\t" + joined);
    }
    for (int shards : {1, 4}) {
      for (bool combine : {false, true}) {
        std::optional<JobStats> baseline;
        for (bool parallel_safe : {false, true}) {
          for (int threads : {1, 4, 8}) {
            const std::string cell =
                std::string(shape) + " shards=" + std::to_string(shards) +
                " combine=" + std::to_string(combine) + " parallel_safe=" +
                std::to_string(parallel_safe) +
                " threads=" + std::to_string(threads);
            SCOPED_TRACE(cell);
            Dfs dfs;
            RecordBatch input;
            for (const auto& [k, v] : MergeInput(shape)) input.Add(k, v);
            ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());
            ClusterConfig cfg;
            cfg.exec_split_bytes = 128;
            cfg.exec_threads = threads;
            cfg.num_shards = shards;
            Cluster cluster(cfg, &dfs);
            JobConfig job;
            job.name = "merge";
            job.inputs = {"input"};
            job.output = "out";
            job.map = [](const Record& r, int, MapContext* ctx) {
              FieldTokenizer words(r.value(), ' ');
              std::string_view word;
              int position = 0;
              while (words.Next(&word)) {
                if (word.empty()) continue;
                const auto [key, value] =
                    MergeEmission(r.key(), word, position++);
                ctx->Emit(key, value);
              }
            };
            if (combine) job.combine = join;
            job.reduce = join;
            job.reduce_parallel_safe = parallel_safe;
            auto stats = cluster.Run(job);
            ASSERT_TRUE(stats.ok()) << stats.status();
            EXPECT_GT(stats->num_mappers, 8);
            auto out = dfs.Open("out");
            ASSERT_TRUE(out.ok());
            std::vector<std::string> lines;
            for (const auto& [key, value] : RecordsOf(**out)) {
              lines.push_back(key + "\t" + value);
            }
            EXPECT_EQ(lines, reference_lines);
            if (!baseline.has_value()) {
              baseline = *stats;
              continue;
            }
            ExpectSameStats(*baseline, *stats);
            EXPECT_EQ(stats->shuffle_local_bytes,
                      baseline->shuffle_local_bytes);
            EXPECT_EQ(stats->shuffle_cross_bytes,
                      baseline->shuffle_cross_bytes);
            EXPECT_EQ(stats->shard_output_bytes, baseline->shard_output_bytes);
            EXPECT_EQ(stats->sim_seconds, baseline->sim_seconds);
          }
        }
      }
    }
  }
}

// A combiner must emit under its group's key: the runs stay sorted only
// then, and the runtime never re-sorts them. A re-keying combiner fails
// the job with an Internal error naming it.
TEST_F(ClusterTest, RekeyingCombinerFailsTheJob) {
  RecordBatch input;
  input.Add("a", "1");
  input.Add("b", "2");
  ASSERT_TRUE(dfs_.Write("input", std::move(input)).ok());
  JobConfig job;
  job.name = "rekeying-combine";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  job.combine = [](std::string_view key, const ValueSpan& values,
                   ReduceContext* ctx) {
    ctx->Emit(std::string(key) + "'", values[0]);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) { ctx->Emit(key, values[0]); };
  auto stats = cluster_.Run(job);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), Code::kInternal);
  EXPECT_NE(stats.status().message().find("rekeying-combine"),
            std::string::npos)
      << stats.status();
  EXPECT_FALSE(dfs_.Open("out").ok());
}

// Map-only jobs concatenate task outputs in split order regardless of the
// execution interleaving.
TEST(ParallelClusterTest, MapOnlyOutputOrderIsSplitOrder) {
  Dfs dfs1, dfs8;
  WriteDeterminismInputs(&dfs1);
  WriteDeterminismInputs(&dfs8);
  ClusterConfig cfg;
  cfg.exec_split_bytes = 256;
  cfg.exec_threads = 1;
  Cluster c1(cfg, &dfs1);
  cfg.exec_threads = 8;
  Cluster c8(cfg, &dfs8);

  JobConfig job;
  job.name = "identity";
  job.inputs = {"left", "right"};
  job.output = "out";
  job.map = [](const Record& r, int tag, MapContext* ctx) {
    ctx->Emit(std::to_string(tag), r.value());
  };
  auto s1 = c1.Run(job);
  auto s8 = c8.Run(job);
  ASSERT_TRUE(s1.ok() && s8.ok());
  ExpectSameStats(*s1, *s8);
  auto out1 = dfs1.Open("out");
  auto out8 = dfs8.Open("out");
  const auto records1 = RecordsOf(**out1);
  const auto records8 = RecordsOf(**out8);
  ASSERT_EQ(records1.size(), records8.size());
  for (size_t i = 0; i < records1.size(); ++i) {
    EXPECT_EQ(records1[i].second, records8[i].second);
  }
}

// Per-task state: a stateful mapper that counts records through
// MapContext::TaskState and flushes in map_finish must see every record
// exactly once across concurrent map tasks.
TEST(ParallelClusterTest, TaskStateIsPerMapTask) {
  Dfs dfs;
  RecordBatch input;
  for (int i = 0; i < 300; ++i) input.Add("k", "1");
  ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());
  ClusterConfig cfg;
  cfg.exec_split_bytes = 128;
  cfg.exec_threads = 8;
  Cluster cluster(cfg, &dfs);

  JobConfig job;
  job.name = "stateful";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record&, int, MapContext* ctx) {
    ++*ctx->TaskState<int>();
  };
  job.map_finish = [](MapContext* ctx) {
    ctx->Emit("total", std::to_string(*ctx->TaskState<int>()));
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    int64_t total = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      ParseInt64(v, &n);
      total += n;
    }
    ctx->Emit(key, std::to_string(total));
  };
  auto stats = cluster.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->num_mappers, 1);
  auto out = dfs.Open("out");
  ASSERT_EQ((*out)->size(), 1u);
  EXPECT_EQ(RecordsOf(**out)[0].second, "300");
}

// wall_seconds is recorded for every job.
TEST(ParallelClusterTest, WallSecondsRecorded) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("input", MakeBatch({{"k", "v"}})).ok());
  Cluster cluster(ClusterConfig{}, &dfs);
  JobConfig job;
  job.name = "j";
  job.inputs = {"input"};
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  auto stats = cluster.Run(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->wall_seconds, 0.0);
  EXPECT_LT(stats->wall_seconds, 60.0);
}

TEST_F(ClusterTest, HistoryAccumulates) {
  ASSERT_TRUE(dfs_.Write("input", MakeBatch({{"k", "v"}})).ok());
  JobConfig job;
  job.name = "j";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  ASSERT_TRUE(cluster_.Run(job).ok());
  ASSERT_TRUE(cluster_.Run(job).ok());
  EXPECT_EQ(cluster_.history().size(), 2u);
  cluster_.ResetHistory();
  EXPECT_TRUE(cluster_.history().empty());
}

}  // namespace
}  // namespace rapida::mr
