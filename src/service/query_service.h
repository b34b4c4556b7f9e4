#ifndef RAPIDA_SERVICE_QUERY_SERVICE_H_
#define RAPIDA_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "mapreduce/cluster.h"
#include "service/cache.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "storage/artifact_store.h"
#include "util/statusor.h"

namespace rapida::service {

/// Service-wide configuration.
struct ServiceOptions {
  /// Slot configuration of the one simulated cluster every query shares.
  /// Set cluster.num_shards > 1 to serve on the sharded data plane: the
  /// service surfaces shard-local vs cross-shard shuffle bytes plus
  /// per-shard output segments in MetricsJson.
  mr::ClusterConfig cluster;
  /// Base engine options; the service overrides tmp_namespace per query.
  engine::EngineOptions engine;
  /// Admission queue bound; a Submit beyond it is rejected with
  /// ResourceExhausted (backpressure — the client retries or sheds load).
  size_t max_queue_depth = 64;
  /// Worker threads draining the queue (concurrent query executions).
  int workers = 4;
  bool enable_plan_cache = true;
  bool enable_result_cache = true;
  uint64_t result_cache_bytes = 64ull * 1024 * 1024;
  /// Shared-scan batching: a worker serves every compatible queued query
  /// of the same dataset in one composite cycle (inter-query MQO).
  bool enable_batching = true;
  size_t max_batch = 8;
  /// How long a worker holding one query lingers for companions to arrive
  /// before executing solo. 0 = only batch what is already queued.
  double batch_window_ms = 0;
  /// Materialization-store directory; empty = no persistent store. With a
  /// store, every successful execution publishes its result as an artifact
  /// keyed on (plan fingerprint, dataset content hash), and queries probe
  /// the store before spinning up a cluster — a warm hit costs zero
  /// MapReduce jobs and survives process restarts.
  std::string store_dir;
  /// Artifact-store byte budget (0 = unlimited).
  uint64_t store_byte_budget = 256ull * 1024 * 1024;
  /// Incremental view maintenance: on Mutate, patch patchable artifacts
  /// (COUNT/SUM/MIN/MAX group-aggregates, DISTINCT extractions, append-
  /// able projections) from the delta instead of dropping them. When off,
  /// every artifact of the mutated dataset falls back to recompute.
  bool enable_ivm = true;
};

/// One query request.
struct QuerySpec {
  std::string text;     // SPARQL
  std::string dataset;  // registered dataset name
  /// Wall-clock budget in seconds from submission; 0 = none. Expiry is
  /// detected at job phase boundaries and cancels the query mid-workflow
  /// with DeadlineExceeded. Deadlined queries are never batched (a shared
  /// cancellation would take innocent bystanders down with them).
  double deadline_s = 0;
};

/// What the service returns per query.
struct Response {
  StatusOr<analytics::BindingTable> result;
  std::string fingerprint;      // canonical form (cache key component)
  /// Structural fingerprint of the canonical optimized plan; equal for
  /// queries that differ only in surface text (plan-cache level-2 key).
  std::string plan_fingerprint;
  bool result_cache_hit = false;
  /// Served from the persistent materialization store (zero MapReduce
  /// jobs; sim_seconds = 0).
  bool store_hit = false;
  size_t batch_size = 1;        // >1: served by a shared composite scan
  double queue_wait_s = 0;      // admission to execution start (wall)
  double exec_wall_s = 0;       // host execution time
  double sim_seconds = 0;       // solo simulated demand of the workflow
  double sched_sim_seconds = 0; // contention-adjusted simulated charge

  Response() : result(Status::Internal("unset")) {}
};

/// Serves SPARQL analytical queries from many concurrent sessions off one
/// shared execution substrate.
///
///   Submit ──► admission queue (bounded, typed rejections)
///                 │ workers dequeue; same-dataset compatible queries
///                 ▼ coalesce into a shared-scan batch
///          plan cache ──► result cache ──► composite pipeline on a
///          per-query Cluster over the dataset's shared Dfs
///                 │ per-job: deadline check (cancel) + fair-share
///                 ▼ accounting against the session's slot share
///              Response (result + cache/batch/scheduling telemetry)
///
/// Datasets are registered, not owned. Queries hold a dataset's shared
/// lock; Mutate takes the exclusive lock, applies Dataset::AddTriples
/// (bumping the version) and drops the dataset's result-cache entries.
///
/// Thread-safe: Submit/Execute/Mutate/MetricsJson may be called from any
/// number of threads.
class QueryService {
 public:
  explicit QueryService(const ServiceOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers `dataset` under `name`; not owned, must outlive the
  /// service.
  void RegisterDataset(const std::string& name, engine::Dataset* dataset);

  /// Opens a session with a fair-share weight; returns the session id
  /// all Submits must carry.
  int OpenSession(const std::string& name, double weight = 1.0);

  /// Admits a query. Synchronous rejections (typed): ResourceExhausted
  /// when the queue is full, NotFound for an unregistered dataset,
  /// InvalidArgument for a bad session, Unavailable after Shutdown. On
  /// admission returns a future carrying the Response.
  StatusOr<std::future<Response>> Submit(int session, const QuerySpec& spec);

  /// Submit + wait. Rejections surface in Response.result.
  Response Execute(int session, const QuerySpec& spec);

  /// Applies a mutation batch under the dataset's exclusive lock: waits
  /// for running queries on it, appends the triples, bumps the dataset
  /// version and invalidates its cached results.
  Status Mutate(const std::string& dataset,
                const std::vector<engine::Dataset::TripleUpdate>& triples);

  /// Drains the queue and joins the workers (idempotent; the destructor
  /// calls it). Queued queries still execute; new Submits are rejected.
  void Shutdown();

  /// Full service snapshot: counters, histograms, cache hit rates, and
  /// per-session scheduler accounting, as one JSON object.
  std::string MetricsJson() const;

  JobScheduler& scheduler() { return scheduler_; }
  ServiceMetrics& metrics() { return metrics_; }
  PlanCache& plan_cache() { return plan_cache_; }
  ResultCache& result_cache() { return result_cache_; }
  /// Null when ServiceOptions::store_dir is empty (or the open failed).
  storage::ArtifactStore* store() { return store_.get(); }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Registered {
    engine::Dataset* dataset = nullptr;
    /// Queries share, Mutate is exclusive.
    std::shared_mutex rw;
  };

  /// A query sitting in the admission queue.
  struct Pending {
    int session = -1;
    QuerySpec spec;
    Registered* dataset = nullptr;
    std::shared_ptr<const analytics::AnalyticalQuery> plan;
    std::string fingerprint;
    std::string plan_fingerprint;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    bool has_deadline = false;
    std::promise<Response> promise;
    uint64_t id = 0;
  };

  void WorkerLoop();
  /// Pops a batch: the head plus every compatible queued query (same
  /// dataset, no deadline, batching enabled) up to max_batch, after an
  /// optional batch window. Returns empty at shutdown.
  std::vector<std::unique_ptr<Pending>> NextBatch();
  void Serve(std::vector<std::unique_ptr<Pending>> batch);
  /// Executes one query alone (deadline observer + per-job accounting).
  void ServeSolo(Pending* p);
  /// One shared composite scan for the whole batch; falls back to solo
  /// execution per member when the patterns do not overlap.
  void ServeBatch(std::vector<std::unique_ptr<Pending>>* batch);
  Response MakeResponse(Pending* p, StatusOr<analytics::BindingTable> result,
                        std::chrono::steady_clock::time_point exec_start,
                        double sim_seconds, double sched_sim_seconds,
                        size_t batch_size, bool cache_hit);
  /// Result-cache probe under the dataset's current version.
  bool TryResultCache(Pending* p);
  /// Materialization-store probe under the dataset's current content hash:
  /// on a hit the stored rows are deserialized, positionally renamed to
  /// the probing query's column names, and served with zero MapReduce
  /// jobs. Corrupt or version-skewed artifacts degrade to a miss.
  bool TryStore(Pending* p);
  /// Publishes a successful execution's result as a store artifact, with
  /// its maintainability classification frozen into the meta.
  void PublishArtifact(Pending* p, const analytics::BindingTable& table);
  /// Post-mutation artifact maintenance: patches every patchable artifact
  /// of the dataset from the delta (re-keying it under the new content
  /// hash) and drops the rest to recompute.
  void MaintainArtifacts(const std::string& name, engine::Dataset* dataset,
                         uint64_t old_hash, std::vector<rdf::Triple> added);

  const ServiceOptions options_;
  JobScheduler scheduler_;
  PlanCache plan_cache_;
  ResultCache result_cache_;
  ServiceMetrics metrics_;
  std::unique_ptr<storage::ArtifactStore> store_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool shutdown_ = false;
  uint64_t next_query_id_ = 0;
  std::unordered_map<std::string, std::unique_ptr<Registered>> datasets_;
  std::vector<std::thread> workers_;
};

}  // namespace rapida::service

#endif  // RAPIDA_SERVICE_QUERY_SERVICE_H_
