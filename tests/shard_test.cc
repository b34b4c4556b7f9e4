// Sharded data plane: hash-subject placement determinism, key ownership,
// shuffle-byte conservation, the three booking rules (a map emission from
// its input record's home, combiner and map_finish output from the map
// task's plurality home, a reduce emission from its key's owner), the
// final join's thread-independent output shard, and the full
// byte-identity matrix (every engine, shard counts x thread counts)
// through the differential harness. Every placement expectation is
// recomputed here from AssignShard/OwnerShard over the job's input or
// output file.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engines/dataset.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "mapreduce/sharding.h"
#include "testing/differential.h"

namespace rapida::mr {
namespace {

// ---- placement ----

TEST(ShardingSchemeTest, SplitmixMatchesReferenceVector) {
  // splitmix64's published first output for seed 0 — pins the hash-subject
  // scheme to a cross-process, cross-platform constant: two processes (or
  // machines) partitioning the same dataset always agree on placement.
  EXPECT_EQ(Splitmix64(0), 0xE220A8397B1DCDAFull);
}

TEST(ShardingSchemeTest, AssignmentIsDeterministicAndComplete) {
  for (int s : {1, 2, 4, 8}) {
    std::vector<int> counts(static_cast<size_t>(std::max(s, 1)), 0);
    for (uint64_t h = 0; h < 4096; ++h) {
      int a = AssignShard(h, s);
      EXPECT_EQ(a, AssignShard(h, s));
      ASSERT_GE(a, 0);
      ASSERT_LT(a, std::max(s, 1));
      counts[static_cast<size_t>(a)]++;
    }
    // Splitmix64 spreads consecutive hashes: every shard gets work.
    for (int c : counts) EXPECT_GT(c, 0);
  }
}

// ---- key ownership ----

TEST(ShardTest, KeyOwnershipPartitionsTheHashSpace) {
  // Every key hash has exactly one owner in [0, S), each shard owns one
  // residue class of the hash space, and S = 1 (or an unsharded 0) owns
  // every key on shard 0.
  for (int s : {1, 2, 4, 8}) {
    std::vector<int> owned(static_cast<size_t>(s), 0);
    for (uint64_t h = 0; h < 1024; ++h) {
      const int owner = OwnerShard(h, s);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, s);
      EXPECT_EQ(owner, OwnerShard(h + static_cast<uint64_t>(s), s));
      owned[static_cast<size_t>(owner)]++;
    }
    for (int n : owned) EXPECT_EQ(n, 1024 / s) << s << " shards";
  }
  EXPECT_EQ(OwnerShard(~0ull, 0), 0);
}

// ---- sharded Cluster::Run ----

/// A keyed dataset + key-preserving map/reduce job: the map emits under
/// the input record's own key, so each map emission is booked from the
/// home shard of the key it is shuffled under.
JobConfig KeyPreservingJob() {
  JobConfig job;
  job.name = "key-preserving";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };
  return job;
}

RecordBatch KeyedInput(int n) {
  RecordBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Add(std::to_string(i), "v" + std::to_string(i));
  }
  return batch;
}

TEST(ShardedClusterTest, HashSubjectSchemeCrossesShards) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Scrambled placement vs residue-owned reducers: most records move.
  EXPECT_GT(stats->shuffle_cross_bytes, 0u);
  // The map re-emits each input record unchanged, booked from its home
  // shard against its key's owner.
  auto input = dfs.Open("input");
  ASSERT_TRUE(input.ok());
  uint64_t local = 0, cross = 0;
  for (const Record& r : (*input)->records) {
    (AssignShard(r.key_hash, 4) == OwnerShard(r.key_hash, 4)
         ? local
         : cross) += r.Bytes();
  }
  EXPECT_EQ(stats->shuffle_local_bytes, local);
  EXPECT_EQ(stats->shuffle_cross_bytes, cross);
  EXPECT_EQ(stats->shuffle_local_bytes + stats->shuffle_cross_bytes,
            stats->shuffle_bytes);
}

TEST(ShardedClusterTest, UnshardedJobBooksAllShuffleAsLocal) {
  // An unsharded cluster is one shard: it homes and owns every record,
  // so nothing may be booked as crossing — and local + cross == shuffle
  // holds universally.
  Dfs dfs;
  Cluster cluster(ClusterConfig{}, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(16)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 1);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes, stats->shuffle_bytes);
  EXPECT_EQ(stats->shard_output_bytes,
            std::vector<uint64_t>{stats->output_bytes});
}

TEST(ShardedClusterTest, ResultsAreByteIdenticalToUnsharded) {
  JobConfig job = KeyPreservingJob();
  // Reference: a default (unsharded) cluster.
  Dfs ref_dfs;
  Cluster ref(ClusterConfig{}, &ref_dfs);
  ASSERT_TRUE(ref_dfs.Write("input", KeyedInput(64)).ok());
  auto ref_stats = ref.Run(job);
  ASSERT_TRUE(ref_stats.ok());
  auto ref_out = ref_dfs.Open("out");
  ASSERT_TRUE(ref_out.ok());

  for (int shards : {1, 2, 4, 8}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      Dfs dfs;
      ClusterConfig cfg;
      cfg.num_shards = shards;
      cfg.exec_threads = threads;
      Cluster cluster(cfg, &dfs);
      ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
      auto stats = cluster.Run(job);
      ASSERT_TRUE(stats.ok()) << stats.status();
      auto out = dfs.Open("out");
      ASSERT_TRUE(out.ok());
      ASSERT_EQ((*out)->records.size(), (*ref_out)->records.size());
      for (size_t i = 0; i < (*out)->records.size(); ++i) {
        EXPECT_EQ((*out)->records[i].key(), (*ref_out)->records[i].key());
        EXPECT_EQ((*out)->records[i].value(), (*ref_out)->records[i].value());
      }
      // Identical workflow counters, too: sharding is placement only.
      EXPECT_EQ(stats->shuffle_bytes, ref_stats->shuffle_bytes);
      EXPECT_EQ(stats->output_bytes, ref_stats->output_bytes);
      // Placement books every shuffled and every written byte once.
      EXPECT_EQ(stats->num_shards, shards);
      EXPECT_EQ(stats->shuffle_local_bytes + stats->shuffle_cross_bytes,
                stats->shuffle_bytes);
      uint64_t shard_bytes = 0;
      for (uint64_t b : stats->shard_output_bytes) shard_bytes += b;
      EXPECT_EQ(shard_bytes, stats->output_bytes);
      if (shards == 1) {
        EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
      }
    }
  }
}

TEST(ShardedClusterTest, CombinerOutputIsBookedFromTheTaskShard) {
  // One split of 64 keyed records over 4 shards. Without a combiner each
  // map emission is booked from its input record's home against its key's
  // owner. A combiner re-emits the task's state, and so does map_finish,
  // so their output is booked from the split's plurality home (lowest id
  // on ties) against the same owners.
  constexpr int kShards = 4;
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = kShards;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto input = dfs.Open("input");
  ASSERT_TRUE(input.ok());

  std::vector<int> homes(kShards, 0);
  for (const Record& r : (*input)->records) {
    homes[static_cast<size_t>(AssignShard(r.key_hash, kShards))]++;
  }
  const int task_home = static_cast<int>(
      std::max_element(homes.begin(), homes.end()) - homes.begin());
  uint64_t total = 0, record_local = 0, task_local = 0;
  for (const Record& r : (*input)->records) {
    const int owner = OwnerShard(r.key_hash, kShards);
    total += r.Bytes();
    if (AssignShard(r.key_hash, kShards) == owner) record_local += r.Bytes();
    if (task_home == owner) task_local += r.Bytes();
  }
  // The input tells the rules apart: the two bookings differ, and the
  // task's home is not shard 0, where an unplaced emission would land.
  ASSERT_NE(record_local, task_local);
  ASSERT_NE(task_home, 0);

  JobConfig job = KeyPreservingJob();
  auto plain = cluster.Run(job);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->num_mappers, 1);
  EXPECT_EQ(plain->shuffle_local_bytes, record_local);
  EXPECT_EQ(plain->shuffle_cross_bytes, total - record_local);

  JobConfig combining = KeyPreservingJob();
  combining.combine = [](std::string_view key, const ValueSpan& values,
                         ReduceContext* ctx) {
    for (std::string_view v : values) ctx->Emit(key, v);
  };
  auto combined = cluster.Run(combining);
  ASSERT_TRUE(combined.ok()) << combined.status();
  EXPECT_EQ(combined->shuffle_bytes, plain->shuffle_bytes);
  EXPECT_EQ(combined->shuffle_local_bytes, task_local);
  EXPECT_EQ(combined->shuffle_cross_bytes, total - task_local);

  // The same records, held in task state and emitted by map_finish.
  using Held = std::vector<std::pair<std::string, std::string>>;
  JobConfig flushing = KeyPreservingJob();
  flushing.map = [](const Record& r, int, MapContext* ctx) {
    ctx->TaskState<Held>()->emplace_back(r.key(), r.value());
  };
  flushing.map_finish = [](MapContext* ctx) {
    for (const auto& [k, v] : *ctx->TaskState<Held>()) ctx->Emit(k, v);
  };
  auto flushed = cluster.Run(flushing);
  ASSERT_TRUE(flushed.ok()) << flushed.status();
  EXPECT_EQ(flushed->shuffle_bytes, plain->shuffle_bytes);
  EXPECT_EQ(flushed->shuffle_local_bytes, task_local);
  EXPECT_EQ(flushed->shuffle_cross_bytes, total - task_local);
}

TEST(ShardedClusterTest, ShardOwnershipPartitionsTheOutput) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto out = dfs.Open("out");
  ASSERT_TRUE(out.ok());
  // The output file holds the only copy of the records. A reduce record
  // belongs to the shard owning its group key, and this reduce keeps the
  // key, so each shard's byte share is exactly the records it owns.
  std::vector<uint64_t> owned(4, 0);
  std::vector<uint64_t> homed(4, 0);
  for (const Record& r : (*out)->records) {
    owned[static_cast<size_t>(OwnerShard(r.key_hash, 4))] += r.Bytes();
    homed[static_cast<size_t>(AssignShard(r.key_hash, 4))] += r.Bytes();
  }
  // Booking from the keys' homes instead would give another split.
  ASSERT_NE(owned, homed);
  EXPECT_EQ(stats->shard_output_bytes, owned);
  uint64_t owned_bytes = 0;
  for (uint64_t b : owned) owned_bytes += b;
  EXPECT_EQ(owned_bytes, stats->output_bytes);
}

TEST(ShardedClusterTest, MapOnlyOutputFollowsRecordHomes) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 2;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(32)).ok());
  JobConfig job;
  job.name = "map-only";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key(), r.value());
  };
  auto stats = cluster.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->shuffle_bytes, 0u);
  auto out = dfs.Open("out");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->records.size(), 32u);
  // A map-only record stays on the home shard of the input record that
  // produced it; this map keeps keys, so the home follows the output key.
  std::vector<uint64_t> homed(2, 0);
  std::vector<uint64_t> owned(2, 0);
  for (const Record& r : (*out)->records) {
    homed[static_cast<size_t>(AssignShard(r.key_hash, 2))] += r.Bytes();
    owned[static_cast<size_t>(OwnerShard(r.key_hash, 2))] += r.Bytes();
  }
  // Booking from the keys' owners instead would give another split.
  ASSERT_NE(homed, owned);
  EXPECT_EQ(stats->shard_output_bytes, homed);
  uint64_t credited = 0;
  for (uint64_t b : stats->shard_output_bytes) credited += b;
  EXPECT_EQ(credited, stats->output_bytes);
}

TEST(ShardedClusterTest, ShardedSlotsScaleTheCostModel) {
  // 8 shards expose 8 nodes' worth of slots: the same job gets cheaper
  // as shards are added (this is where the scale-out speedup comes from).
  Dfs dfs;
  ClusterConfig base;
  EXPECT_EQ(base.map_slots(), base.num_nodes * base.map_slots_per_node);
  ClusterConfig sharded = base;
  sharded.num_shards = 8;
  EXPECT_EQ(sharded.map_slots(), 8 * base.map_slots_per_node);
  EXPECT_EQ(sharded.reduce_slots(), 8 * base.reduce_slots_per_node);

  JobStats stats;
  stats.input_records = 1000;
  stats.input_bytes = 400 * 1024 * 1024;
  stats.shuffle_records = 1000;
  stats.shuffle_bytes = 200 * 1024 * 1024;
  stats.shuffle_local_bytes = 150 * 1024 * 1024;
  stats.shuffle_cross_bytes = 50 * 1024 * 1024;
  stats.output_bytes = 50 * 1024 * 1024;
  stats.num_reducers = 16;

  ClusterConfig two = base;
  two.num_shards = 2;
  Cluster c2(two, &dfs);
  Dfs dfs8;
  ClusterConfig eight = base;
  eight.num_shards = 8;
  Cluster c8(eight, &dfs8);
  // More shards, more slots, cheaper job; local bytes priced at disk
  // speed keep both below an all-network split of the same volume.
  EXPECT_LT(c8.EstimateSimSeconds(stats), c2.EstimateSimSeconds(stats));
  JobStats all_cross = stats;
  all_cross.shuffle_local_bytes = 0;
  all_cross.shuffle_cross_bytes = stats.shuffle_bytes;
  EXPECT_LT(c8.EstimateSimSeconds(stats),
            c8.EstimateSimSeconds(all_cross));
}

TEST(ShardedClusterTest, FinalJoinOutputShardIsIndependentOfThreads) {
  // The final join's result rows are booked from the home shard of the
  // map task that emits them. Its two input files home to different
  // shards, and the first (task 0's, inputs sorted) is large, so a task
  // racing to emit would usually be task 1. Task 0 must emit at
  // exec_threads 8 in every run, as it does at exec_threads 1.
  constexpr int kShards = 4;
  const std::string ka = "a";
  const int home_a = AssignShard(HashKey(ka), kShards);
  std::string kb;
  for (int i = 0; kb.empty(); ++i) {
    std::string k = "b" + std::to_string(i);
    if (AssignShard(HashKey(k), kShards) != home_a) {
      kb = k;
    }
  }
  engine::Dataset dataset{rdf::Graph()};
  RecordBatch a, b;
  for (int i = 0; i < 20000; ++i) a.Add(ka, "1");
  b.Add(kb, "2");
  ASSERT_TRUE(dataset.dfs().Write("in:a", std::move(a)).ok());
  ASSERT_TRUE(dataset.dfs().Write("in:b", std::move(b)).ok());
  auto run = [&dataset](Cluster* cluster) {
    engine::RelationalOps ops(cluster, &dataset, 0, "tmp:final");
    analytics::BindingTable t({"x"});
    t.AddRow({1});
    t.AddRow({2});
    std::vector<sparql::SelectItem> items(1);
    items[0].name = "x";
    auto result = ops.FinalJoinProject("final (map-only)", {t},
                                       {"in:b", "in:a"}, items);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->NumRows(), 2u);
    ops.Cleanup();
    return cluster->history().back().shard_output_bytes;
  };
  ClusterConfig cfg;
  cfg.num_shards = kShards;
  cfg.exec_threads = 1;
  Cluster serial_cluster(cfg, &dataset.dfs());
  const std::vector<uint64_t> serial = run(&serial_cluster);
  ASSERT_EQ(serial.size(), static_cast<size_t>(kShards));
  EXPECT_GT(serial[static_cast<size_t>(home_a)], 0u);
  cfg.exec_threads = 8;
  Cluster cluster(cfg, &dataset.dfs());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(run(&cluster), serial) << "run " << i;
  }
}

// ---- full-engine byte-identity matrix ----

TEST(ShardDifferentialTest, EnginesAreByteIdenticalAcrossShardMatrix) {
  // Every engine, shard counts {2, 4} x thread counts {1, 8},
  // cross-checked against the reference evaluator and
  // the unsharded baseline's cycle/shuffle counters.
  for (uint64_t seed : {1ull, 5ull, 9ull}) {
    difftest::FuzzCase c = difftest::MakeFuzzCase(seed);
    difftest::DiffOptions opts;
    opts.shard_counts = {2, 4};
    difftest::DiffFailure f = difftest::RunDifferential(c, opts);
    EXPECT_FALSE(f.failed) << "seed " << seed << ": " << f.ToString();
  }
}

}  // namespace
}  // namespace rapida::mr
