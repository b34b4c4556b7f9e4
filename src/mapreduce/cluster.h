#ifndef RAPIDA_MAPREDUCE_CLUSTER_H_
#define RAPIDA_MAPREDUCE_CLUSTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"
#include "mapreduce/sharding.h"
#include "util/statusor.h"

namespace rapida::util {
class ThreadPool;
}  // namespace rapida::util

namespace rapida::mr {

/// Parameters of the simulated Hadoop cluster. Defaults model the paper's
/// 10-node VCL setup scaled down: what matters for reproducing the paper's
/// *shape* is the ratio between per-cycle overhead and per-byte costs, not
/// absolute magnitudes.
struct ClusterConfig {
  int num_nodes = 10;
  int map_slots_per_node = 2;
  int reduce_slots_per_node = 1;

  /// HDFS block size used by the *cost model* to derive the mapper count:
  /// effective mappers = ceil(stored_bytes * bytes_scale / block_size) —
  /// so compressed inputs get fewer mappers, as the paper observes for
  /// ORC.
  uint64_t block_size = 128 * 1024 * 1024;

  /// The in-process dataset is a 1/bytes_scale sample of the cluster-scale
  /// dataset being modeled: every byte and record count is multiplied by
  /// this factor in the cost model (execution itself runs on the real
  /// sample). 1.0 = no scaling.
  double bytes_scale = 1.0;

  /// Split size used to partition records across in-process mappers. It
  /// sets the map-task count, and each task combines on its own, so
  /// shuffle bytes and sim_seconds move with it (results do not): 128 KiB
  /// splits instead of 1 MiB took fig8b from 234 to 464 map tasks, its
  /// shuffle bytes up 1.1% and sim_seconds up 0.06%.
  uint64_t exec_split_bytes = 1024 * 1024;

  /// Host threads executing map tasks and, for a parallel-safe reduce, its
  /// key ranges (one range per thread). 0 = hardware_concurrency; 1 = every
  /// task on the calling thread. Any value produces byte-identical outputs
  /// and identical counters/simulated seconds — this knob only changes
  /// real wall time, which Cluster::Run reports in JobStats::wall_seconds.
  int exec_threads = 0;

  /// Fixed per-job cost: JVM spin-up, scheduling, commit (seconds).
  double per_job_overhead_s = 20.0;

  /// Throughputs, MB/s per active task.
  double io_mb_per_s = 60.0;
  double net_mb_per_s = 25.0;

  /// Shuffle sort amplification (spill/merge passes).
  double sort_factor = 2.0;

  /// CPU cost per record through a map or reduce function (microseconds),
  /// amortized across active tasks.
  double cpu_us_per_record = 5.0;

  /// Shards of the data plane. Every job runs on S = max(num_shards, 1)
  /// shards, so <= 1 is one shard that homes and owns every record. Each
  /// emitted record is booked from the shard that produced it (for a map
  /// emission, its input record's AssignShard home) against the shard
  /// owning its key (OwnerShard); that booking is JobStats' local/cross
  /// shuffle split and per-shard output bytes. Placement never changes
  /// what runs, so results are byte-identical at any shard x thread
  /// combination. The cost model prices num_shards > 1 shards as the
  /// cluster's nodes, with shard-local shuffle bytes at disk speed; <= 1
  /// prices num_nodes nodes whose whole shuffle crosses the network.
  int num_shards = 0;
  /// How records are placed on shards (AssignShard's scheme).
  ShardingScheme sharding = ShardingScheme::kHashSubject;

  int map_slots() const {
    return (num_shards > 1 ? num_shards : num_nodes) * map_slots_per_node;
  }
  int reduce_slots() const {
    return (num_shards > 1 ? num_shards : num_nodes) * reduce_slots_per_node;
  }
};

/// Observation/interception points a job passes through, for the serving
/// layer: per-phase cancellation (deadlines) and post-job accounting
/// (fair-share slot contention). Methods may be called from the thread
/// driving Cluster::Run; one observer may serve concurrent jobs and must
/// be internally synchronized if it keeps state.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;

  /// Called when job `job_name` reaches `phase` ("setup" before the input
  /// scan, "reduce" at the map/reduce barrier). A non-OK return aborts the
  /// job with that status — the cancellation path for deadline-exceeded
  /// queries mid-job.
  virtual Status OnPhase(const std::string& job_name, const char* phase) {
    (void)job_name;
    (void)phase;
    return Status::OK();
  }

  /// Called with the job's final statistics before they are recorded; a
  /// scheduler fills the sched_* fields here.
  virtual void OnJobComplete(JobStats* stats) { (void)stats; }
};

/// Executes MapReduce jobs against a Dfs: real map/combine/reduce functions
/// over real records (so results are exact), plus an analytic cost model
/// that turns the measured byte/record counters into simulated wall time.
///
/// Run may be called from several threads at once (concurrent jobs of
/// concurrent queries): the job history and lazy worker-pool creation are
/// mutex-protected. history()/ResetHistory still assume a quiesced cluster
/// — engines satisfy this by running their workflow on a cluster no other
/// query shares (the service layer hands each query its own Cluster over
/// the shared Dfs and slot ledger).
class Cluster {
 public:
  Cluster(const ClusterConfig& config, Dfs* dfs);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs one job to completion. The output file is written to the Dfs
  /// (capacity limits enforced). Returns the job's statistics.
  StatusOr<JobStats> Run(const JobConfig& job);

  /// Simulated time for a job with the given counters (exposed so tests
  /// and ablations can probe the model directly).
  double EstimateSimSeconds(const JobStats& stats) const;

  const ClusterConfig& config() const { return config_; }
  Dfs* dfs() { return dfs_; }

  /// Attaches (or detaches, nullptr) the observer consulted by Run. Not
  /// owned; must outlive any in-flight job.
  void SetObserver(ClusterObserver* observer) { observer_ = observer; }

  /// All jobs run since construction / last reset, in order. Only
  /// meaningful while no job is in flight.
  const std::vector<JobStats>& history() const { return history_; }
  void ResetHistory();

 private:
  /// Worker threads beyond the calling thread (which always participates);
  /// created lazily on the first job that can use them.
  util::ThreadPool* pool();

  ClusterConfig config_;
  Dfs* dfs_;
  ClusterObserver* observer_ = nullptr;
  std::mutex mu_;  // guards history_ and lazy pool_ creation
  std::vector<JobStats> history_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_CLUSTER_H_
