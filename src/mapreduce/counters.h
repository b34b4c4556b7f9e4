#ifndef RAPIDA_MAPREDUCE_COUNTERS_H_
#define RAPIDA_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rapida::mr {

/// Per-job execution statistics, filled by Cluster::Run. These are the
/// quantities the paper's evaluation reasons about: number of MR cycles,
/// bytes scanned / shuffled / materialized, and the derived simulated time.
struct JobStats {
  std::string name;
  bool map_only = false;

  uint64_t input_records = 0;
  uint64_t input_bytes = 0;         // stored bytes scanned (post-compression)
  uint64_t map_output_records = 0;  // before combine
  uint64_t map_output_bytes = 0;
  uint64_t shuffle_records = 0;     // after combine (map output to reducers)
  uint64_t shuffle_bytes = 0;
  /// Shuffle placement split (always: local + cross == shuffle_bytes). A
  /// post-combine record is local iff the shard it was emitted from owns
  /// its key (OwnerShard). An unsharded job runs on one shard, so
  /// everything is local and nothing crosses.
  uint64_t shuffle_local_bytes = 0;  // stayed on the producing shard
  uint64_t shuffle_cross_bytes = 0;  // crossed a shard boundary
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;        // stored bytes materialized

  /// Factorized-intermediate instrumentation: group records emitted by
  /// this job's operators and the flat rows they stand for (0/0 for jobs
  /// whose outputs are flat). factorization factor = flat rows / groups.
  uint64_t factorized_groups = 0;
  uint64_t factorized_flat_rows = 0;
  /// flat rows / factorized groups; 1 when the job emitted no groups.
  double FactorizationFactor() const {
    if (factorized_groups == 0) return 1.0;
    return static_cast<double>(factorized_flat_rows) /
           static_cast<double>(factorized_groups);
  }

  int num_mappers = 0;
  int num_reducers = 0;
  /// Shards the job ran on: max(ClusterConfig::num_shards, 1).
  int num_shards = 0;
  /// Per-shard output bytes (num_shards entries): index s is the stored
  /// size of the share of this job's output emitted from shard s — a
  /// map-only record's home shard, a reduce record's group-key owner.
  std::vector<uint64_t> shard_output_bytes;

  double sim_seconds = 0;   // simulated wall time from the cost model
  double wall_seconds = 0;  // real host time spent in Cluster::Run

  /// Filled by a fair-share scheduler (service layer) when one is attached
  /// to the cluster; untouched (stretch 1, sched == sim) otherwise.
  /// `sched_stretch` is the slot-contention multiplier the job suffered
  /// from concurrent sessions, and `sched_sim_seconds` the contention-
  /// adjusted simulated duration (>= sim_seconds).
  double sched_stretch = 1.0;
  double sched_sim_seconds = 0;
};

/// Aggregate over a workflow (one engine executing one query).
struct WorkflowStats {
  std::vector<JobStats> jobs;

  int NumCycles() const { return static_cast<int>(jobs.size()); }
  int NumMapOnlyCycles() const {
    int n = 0;
    for (const JobStats& j : jobs) n += j.map_only ? 1 : 0;
    return n;
  }
  uint64_t TotalInputBytes() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.input_bytes;
    return n;
  }
  uint64_t TotalShuffleBytes() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.shuffle_bytes;
    return n;
  }
  uint64_t TotalLocalShuffleBytes() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.shuffle_local_bytes;
    return n;
  }
  uint64_t TotalCrossShardBytes() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.shuffle_cross_bytes;
    return n;
  }
  uint64_t TotalOutputBytes() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.output_bytes;
    return n;
  }
  uint64_t TotalFactorizedGroups() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.factorized_groups;
    return n;
  }
  uint64_t TotalFactorizedFlatRows() const {
    uint64_t n = 0;
    for (const JobStats& j : jobs) n += j.factorized_flat_rows;
    return n;
  }
  /// Workflow-level factorization factor (1 when nothing factorized).
  double FactorizationFactor() const {
    uint64_t g = TotalFactorizedGroups();
    if (g == 0) return 1.0;
    return static_cast<double>(TotalFactorizedFlatRows()) /
           static_cast<double>(g);
  }
  double TotalSimSeconds() const {
    double s = 0;
    for (const JobStats& j : jobs) s += j.sim_seconds;
    return s;
  }
  /// Contention-adjusted total; equals TotalSimSeconds when no fair-share
  /// scheduler was attached.
  double TotalScheduledSimSeconds() const {
    double s = 0;
    for (const JobStats& j : jobs) {
      s += j.sched_sim_seconds > 0 ? j.sched_sim_seconds : j.sim_seconds;
    }
    return s;
  }
  double TotalWallSeconds() const {
    double s = 0;
    for (const JobStats& j : jobs) s += j.wall_seconds;
    return s;
  }

  std::string ToString() const;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_COUNTERS_H_
