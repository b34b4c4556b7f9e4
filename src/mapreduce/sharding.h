#ifndef RAPIDA_MAPREDUCE_SHARDING_H_
#define RAPIDA_MAPREDUCE_SHARDING_H_

#include <cstdint>
#include <string_view>

namespace rapida::mr {

/// How base records (VP-table rows, triplegroups — both keyed by subject)
/// and derived shuffle keys are placed across shards. Placement is a pure
/// function of the record's key hash, so the same dataset under the same
/// scheme produces the same assignment in every process — the artifact
/// store's content hash stays placement-independent.
enum class ShardingScheme {
  /// Default: scatter by a finalized hash of the subject key. Statistically
  /// balanced, but deliberately misaligned with reducer key ownership, so
  /// almost every shuffle record crosses a shard boundary — the baseline a
  /// real hash-partitioned deployment pays.
  kHashSubject,
  /// Locality-aware: place a record on the shard that *owns its key's
  /// reducer range* (key_hash mod num_shards). Star joins re-emit the
  /// subject as the shuffle key, so every intra-star shuffle record lands
  /// on the shard it already lives on — zero cross-shard bytes for the
  /// shard-local phase of partial evaluation.
  kLocality,
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
/// process-independent, dataset-content-independent.
inline int AssignShard(uint64_t key_hash, ShardingScheme scheme,
                       int num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t h = scheme == ShardingScheme::kLocality ? key_hash
                                                   : Splitmix64(key_hash);
  return static_cast<int>(h % static_cast<uint64_t>(num_shards));
}

/// Owner of a shuffle key: the shard whose reducers handle this key range.
/// Scheme-independent — reducers are always placed by key residue; the
/// scheme only decides where the *data* lives relative to them.
inline int OwnerShard(uint64_t key_hash, int num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<int>(key_hash % static_cast<uint64_t>(num_shards));
}

const char* ShardingSchemeName(ShardingScheme scheme);
bool ParseShardingScheme(std::string_view name, ShardingScheme* out);

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_SHARDING_H_
