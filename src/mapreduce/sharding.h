#ifndef RAPIDA_MAPREDUCE_SHARDING_H_
#define RAPIDA_MAPREDUCE_SHARDING_H_

#include <cstdint>

namespace rapida::mr {

/// How base records (VP-table rows, triplegroups — both keyed by subject)
/// and derived shuffle keys are placed across shards. The one scheme is
/// hash-by-subject (AssignShard). No code reads the value: it stays
/// because perfbench, which compiles this library as it is, sets and
/// reads ClusterConfig::sharding and EngineOptions::sharding_scheme, and
/// goes when the benchmark next changes.
enum class ShardingScheme {
  /// Scatter by a finalized hash of the subject key. Statistically
  /// balanced, but deliberately misaligned with reducer key ownership, so
  /// almost every shuffle record crosses a shard boundary — the baseline a
  /// real hash-partitioned deployment pays.
  kHashSubject,
};

/// splitmix64 finalizer: decorrelates placement from the owner residue
/// (OwnerShard: plain key_hash mod N).
inline uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Home shard of a record whose key hashes to `key_hash`. Deterministic,
/// process-independent, dataset-content-independent, so the same dataset
/// gets the same assignment in every process and the artifact store's
/// content hash stays placement-independent.
inline int AssignShard(uint64_t key_hash, int num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<int>(Splitmix64(key_hash) %
                          static_cast<uint64_t>(num_shards));
}

/// Owner of a shuffle key: the shard whose reducers handle this key range.
/// Reducers are placed by key residue; AssignShard decides where the
/// *data* lives relative to them.
inline int OwnerShard(uint64_t key_hash, int num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<int>(key_hash % static_cast<uint64_t>(num_shards));
}

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_SHARDING_H_
