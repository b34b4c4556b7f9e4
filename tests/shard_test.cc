// Sharded data plane: placement-scheme determinism, shard/channel
// mechanics (under TSan in scripts/check.sh), shuffle-byte conservation,
// the locality scheme's zero-cross guarantee for key-preserving jobs,
// per-shard output ownership, and the full byte-identity matrix (every
// engine, shard counts x thread counts, both schemes) through the
// differential harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "mapreduce/shard.h"
#include "mapreduce/sharding.h"
#include "testing/differential.h"

namespace rapida::mr {
namespace {

// ---- placement schemes ----

TEST(ShardingSchemeTest, LocalityIsResidueOfKeyHash) {
  for (uint64_t h : {0ull, 1ull, 12345ull, 0xDEADBEEFull, ~0ull}) {
    for (int s : {2, 4, 8}) {
      EXPECT_EQ(AssignShard(h, ShardingScheme::kLocality, s),
                static_cast<int>(h % static_cast<uint64_t>(s)));
      EXPECT_EQ(OwnerShard(h, s),
                static_cast<int>(h % static_cast<uint64_t>(s)));
      // The locality scheme's whole point: home == owner for every key.
      EXPECT_EQ(AssignShard(h, ShardingScheme::kLocality, s),
                OwnerShard(h, s));
    }
  }
}

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
      int a = AssignShard(h, ShardingScheme::kHashSubject, s);
      EXPECT_EQ(a, AssignShard(h, ShardingScheme::kHashSubject, s));
      ASSERT_GE(a, 0);
      ASSERT_LT(a, std::max(s, 1));
      counts[static_cast<size_t>(a)]++;
    }
    // Splitmix64 spreads consecutive hashes: every shard gets work.
    for (int c : counts) EXPECT_GT(c, 0);
  }
}

TEST(ShardingSchemeTest, NamesRoundTrip) {
  EXPECT_STREQ(ShardingSchemeName(ShardingScheme::kHashSubject),
               "hash-subject");
  EXPECT_STREQ(ShardingSchemeName(ShardingScheme::kLocality), "locality");
  ShardingScheme s;
  EXPECT_TRUE(ParseShardingScheme("locality", &s));
  EXPECT_EQ(s, ShardingScheme::kLocality);
  EXPECT_TRUE(ParseShardingScheme("hash-subject", &s));
  EXPECT_EQ(s, ShardingScheme::kHashSubject);
  EXPECT_TRUE(ParseShardingScheme("hash", &s));
  EXPECT_EQ(s, ShardingScheme::kHashSubject);
  EXPECT_FALSE(ParseShardingScheme("round-robin", &s));
}

// ---- Shard / ShardChannel mechanics ----

TEST(ShardTest, KeyOwnershipPartitionsTheHashSpace) {
  const int kShards = 4;
  std::vector<std::unique_ptr<Shard>> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(
        std::make_unique<Shard>(i, kShards, ShardingScheme::kLocality));
  }
  for (uint64_t h = 0; h < 1024; ++h) {
    int owners = 0;
    for (const auto& s : shards) {
      if (s->OwnsKey(h)) owners++;
      EXPECT_EQ(s->OwnsKey(h), s->dict_segment().Owns(h));
    }
    EXPECT_EQ(owners, 1) << "key hash " << h;
  }
}

TEST(ShardTest, TaskQueueIsFifo) {
  Shard shard(0, 2, ShardingScheme::kHashSubject);
  shard.EnqueueMapTask(7);
  shard.EnqueueMapTask(3);
  EXPECT_EQ(shard.QueuedMapTasks(), 2u);
  EXPECT_EQ(shard.DequeueMapTask(), std::optional<size_t>(7));
  EXPECT_EQ(shard.DequeueMapTask(), std::optional<size_t>(3));
  EXPECT_EQ(shard.DequeueMapTask(), std::nullopt);
}

TEST(ShardChannelTest, DeliverAccountsEveryEdgeAndRunsHandoffOnce) {
  ShardChannel ch(3);
  uint64_t by_bytes[3] = {10, 0, 5};
  uint64_t by_records[3] = {1, 0, 2};
  int handoffs = 0;
  ch.Deliver(2, by_bytes, by_records, [&] { handoffs++; });
  EXPECT_EQ(handoffs, 1);
  EXPECT_EQ(ch.EdgeBytes(0, 2), 10u);
  EXPECT_EQ(ch.EdgeBytes(1, 2), 0u);
  EXPECT_EQ(ch.EdgeBytes(2, 2), 5u);
  EXPECT_EQ(ch.EdgeRecords(2, 2), 2u);
  EXPECT_EQ(ch.TotalLocalBytes(), 5u);   // the 2 -> 2 loopback edge
  EXPECT_EQ(ch.TotalCrossBytes(), 10u);  // the 0 -> 2 crossing
  ch.Reset();
  EXPECT_EQ(ch.TotalLocalBytes() + ch.TotalCrossBytes(), 0u);
}

TEST(ShardChannelTest, ConcurrentDeliveriesConserveBytes) {
  // Hammered from many threads (this test runs under TSan in check.sh):
  // per-edge accounting must neither lose nor double-count a delivery,
  // and every handoff must run exactly once.
  const int kShards = 4;
  const int kThreads = 8;
  const int kDeliveriesPerThread = 500;
  ShardChannel ch(kShards);
  std::atomic<uint64_t> handoffs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDeliveriesPerThread; ++i) {
        uint64_t by_bytes[kShards] = {};
        uint64_t by_records[kShards] = {};
        int from = (t + i) % kShards;
        by_bytes[from] = 3;
        by_records[from] = 1;
        ch.Deliver(i % kShards, by_bytes, by_records,
                   [&] { handoffs.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(handoffs.load(),
            static_cast<uint64_t>(kThreads) * kDeliveriesPerThread);
  EXPECT_EQ(ch.TotalLocalBytes() + ch.TotalCrossBytes(),
            static_cast<uint64_t>(kThreads) * kDeliveriesPerThread * 3);
  uint64_t records = 0;
  for (int f = 0; f < kShards; ++f) {
    for (int to = 0; to < kShards; ++to) records += ch.EdgeRecords(f, to);
  }
  EXPECT_EQ(records, static_cast<uint64_t>(kThreads) * kDeliveriesPerThread);
}

// ---- sharded Cluster::Run ----

/// A keyed dataset + key-preserving map/reduce job: the map emits under
/// the input record's own key, so under the locality scheme every record
/// reduces on its home shard.
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

TEST(ShardedClusterTest, LocalitySchemeShufflesZeroCrossShardBytes) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.sharding = ShardingScheme::kLocality;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 4);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes, stats->shuffle_bytes);
  EXPECT_EQ(cluster.channel()->TotalCrossBytes(), 0u);
  EXPECT_EQ(cluster.channel()->TotalLocalBytes(), stats->shuffle_bytes);
}

TEST(ShardedClusterTest, HashSubjectSchemeCrossesTheChannel) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.sharding = ShardingScheme::kHashSubject;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Scrambled placement vs residue-owned reducers: most records move.
  EXPECT_GT(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes + stats->shuffle_cross_bytes,
            stats->shuffle_bytes);
  EXPECT_EQ(cluster.channel()->TotalCrossBytes(),
            stats->shuffle_cross_bytes);
  EXPECT_EQ(cluster.channel()->TotalLocalBytes(),
            stats->shuffle_local_bytes);
}

TEST(ShardedClusterTest, UnshardedJobBooksAllShuffleAsLocal) {
  // Satellite of the shuffle-accounting fix: a single address space has
  // no network between map and reduce, so nothing may be booked as
  // crossing — and local + cross == shuffle holds universally.
  Dfs dfs;
  Cluster cluster(ClusterConfig{}, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(16)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 0);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes, stats->shuffle_bytes);
  EXPECT_TRUE(stats->shard_output_bytes.empty());
}

TEST(ShardedClusterTest, ResultsAreByteIdenticalToUnsharded) {
  JobConfig job = KeyPreservingJob();
  // Reference: the legacy unsharded path.
  Dfs ref_dfs;
  Cluster ref(ClusterConfig{}, &ref_dfs);
  ASSERT_TRUE(ref_dfs.Write("input", KeyedInput(64)).ok());
  auto ref_stats = ref.Run(job);
  ASSERT_TRUE(ref_stats.ok());
  auto ref_out = ref_dfs.Open("out");
  ASSERT_TRUE(ref_out.ok());

  for (int shards : {2, 4, 8}) {
    for (ShardingScheme scheme :
         {ShardingScheme::kHashSubject, ShardingScheme::kLocality}) {
      for (int threads : {1, 8}) {
        Dfs dfs;
        ClusterConfig cfg;
        cfg.num_shards = shards;
        cfg.sharding = scheme;
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
      }
    }
  }
}

TEST(ShardedClusterTest, ShardOwnershipPartitionsTheOutput) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.sharding = ShardingScheme::kLocality;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto coordinator = dfs.Open("out");
  ASSERT_TRUE(coordinator.ok());
  // The coordinator file holds the only copy of the output. Every record
  // is owned by exactly one shard (its key's reducer range), and each
  // shard's counters and byte share are exactly the records it owns.
  ASSERT_EQ(stats->shard_output_bytes.size(), 4u);
  size_t owned_records = 0;
  uint64_t owned_bytes = 0;
  for (int s = 0; s < 4; ++s) {
    const Shard* shard = cluster.shard(s);
    uint64_t records = 0, bytes = 0;
    for (const Record& r : (*coordinator)->records) {
      if (!shard->OwnsKey(r.key_hash)) continue;
      records += 1;
      bytes += r.Bytes();
    }
    EXPECT_EQ(shard->output_records(), records) << "shard " << s;
    EXPECT_EQ(shard->output_bytes(), bytes) << "shard " << s;
    EXPECT_EQ(stats->shard_output_bytes[s], bytes) << "shard " << s;
    owned_records += records;
    owned_bytes += stats->shard_output_bytes[s];
  }
  EXPECT_EQ(owned_records, (*coordinator)->records.size());
  EXPECT_EQ(owned_bytes, stats->output_bytes);
}

TEST(ShardedClusterTest, MapOnlyOutputFollowsRecordHomes) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.sharding = ShardingScheme::kLocality;
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
  auto coordinator = dfs.Open("out");
  ASSERT_TRUE(coordinator.ok());
  ASSERT_EQ((*coordinator)->records.size(), 32u);
  // A map-only record stays on the home shard of the input record that
  // produced it; this map keeps keys, so the home follows the output key.
  uint64_t credited = 0;
  for (int s = 0; s < 2; ++s) {
    uint64_t records = 0, bytes = 0;
    for (const Record& r : (*coordinator)->records) {
      if (AssignShard(r.key_hash, cfg.sharding, 2) != s) continue;
      records += 1;
      bytes += r.Bytes();
    }
    EXPECT_EQ(cluster.shard(s)->output_records(), records) << "shard " << s;
    EXPECT_EQ(stats->shard_output_bytes[s], bytes) << "shard " << s;
    credited += cluster.shard(s)->output_records();
  }
  EXPECT_EQ(credited, 32u);
}

TEST(ShardedClusterTest, ResetHistoryClearsShardStateAndChannel) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.sharding = ShardingScheme::kHashSubject;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(32)).ok());
  ASSERT_TRUE(cluster.Run(KeyPreservingJob()).ok());
  ASSERT_GT(cluster.channel()->TotalLocalBytes() +
                cluster.channel()->TotalCrossBytes(),
            0u);
  ASSERT_EQ(cluster.shard(0)->output_records() +
                cluster.shard(1)->output_records(),
            32u);
  cluster.ResetHistory();
  EXPECT_TRUE(cluster.history().empty());
  EXPECT_EQ(cluster.channel()->TotalLocalBytes() +
                cluster.channel()->TotalCrossBytes(),
            0u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.shard(s)->map_tasks_run(), 0u);
    EXPECT_EQ(cluster.shard(s)->output_records(), 0u);
    EXPECT_EQ(cluster.shard(s)->output_bytes(), 0u);
    EXPECT_EQ(cluster.shard(s)->QueuedMapTasks(), 0u);
  }
  // The coordinator's files belong to the workflow's Dfs, not the shards.
  EXPECT_TRUE(dfs.Exists("out"));
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

// ---- full-engine byte-identity matrix ----

TEST(ShardDifferentialTest, EnginesAreByteIdenticalAcrossShardMatrix) {
  // Every engine, shard counts {2, 4} x thread counts {1, 8} x both
  // placement schemes, cross-checked against the reference evaluator and
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
