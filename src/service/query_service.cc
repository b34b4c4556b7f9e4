#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "analytics/analytical_query.h"
#include "engines/rapid_analytics.h"
#include "engines/shared_scan.h"
#include "plan/planner.h"
#include "rdf/graph_index.h"
#include "sparql/parser.h"
#include "storage/ivm.h"
#include "util/logging.h"

namespace rapida::service {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Books one finished workflow's shuffle placement (local vs cross-shard
/// bytes, per-shard output segments) and its factorized-intermediate
/// counters (d-representation groups vs the flat rows they stand for)
/// into the service counters.
void RecordWorkflowShuffle(ServiceMetrics* metrics,
                           const std::vector<mr::JobStats>& jobs) {
  uint64_t local = 0;
  uint64_t cross = 0;
  uint64_t fgroups = 0;
  uint64_t frows = 0;
  std::vector<uint64_t> per_shard;
  for (const mr::JobStats& j : jobs) {
    local += j.shuffle_local_bytes;
    cross += j.shuffle_cross_bytes;
    fgroups += j.factorized_groups;
    frows += j.factorized_flat_rows;
    if (per_shard.size() < j.shard_output_bytes.size()) {
      per_shard.resize(j.shard_output_bytes.size(), 0);
    }
    for (size_t s = 0; s < j.shard_output_bytes.size(); ++s) {
      per_shard[s] += j.shard_output_bytes[s];
    }
  }
  metrics->RecordShuffle(local, cross, per_shard);
  if (fgroups > 0) metrics->RecordFactorization(fgroups, frows);
}

/// Per-query cluster observer: cancels the workflow at the next phase
/// boundary once the wall deadline passes, and charges every completed
/// job to the session's fair share.
class QueryObserver : public mr::ClusterObserver {
 public:
  QueryObserver(JobScheduler* scheduler, int session,
                Clock::time_point deadline, bool has_deadline)
      : scheduler_(scheduler),
        session_(session),
        deadline_(deadline),
        has_deadline_(has_deadline) {}

  Status OnPhase(const std::string& job_name, const char* phase) override {
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline expired in job '" +
                                      job_name + "' at phase '" + phase +
                                      "'");
    }
    return Status::OK();
  }

  void OnJobComplete(mr::JobStats* stats) override {
    scheduler_->Account(session_, stats);
  }

 private:
  JobScheduler* scheduler_;
  int session_;
  Clock::time_point deadline_;
  bool has_deadline_;
};

}  // namespace

QueryService::QueryService(const ServiceOptions& options)
    : options_(options),
      scheduler_(options.cluster),
      result_cache_(options.result_cache_bytes) {
  if (!options_.store_dir.empty()) {
    storage::ArtifactStore::Options so;
    so.dir = options_.store_dir;
    so.byte_budget = options_.store_byte_budget;
    StatusOr<std::unique_ptr<storage::ArtifactStore>> opened =
        storage::ArtifactStore::Open(so);
    if (opened.ok()) {
      store_ = std::move(*opened);
    } else {
      // A broken store directory degrades to store-less serving; queries
      // still execute, they just never hit or publish artifacts.
      RAPIDA_LOG(Warning) << "materialization store disabled: "
                          << opened.status().ToString();
    }
  }
  int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::RegisterDataset(const std::string& name,
                                   engine::Dataset* dataset) {
  RAPIDA_CHECK(dataset != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = datasets_[name];
  RAPIDA_CHECK(slot == nullptr) << "dataset registered twice: " << name;
  slot = std::make_unique<Registered>();
  slot->dataset = dataset;
}

int QueryService::OpenSession(const std::string& name, double weight) {
  return scheduler_.OpenSession(name, weight);
}

StatusOr<std::future<Response>> QueryService::Submit(int session,
                                                     const QuerySpec& spec) {
  if (session < 0 || session >= scheduler_.num_sessions()) {
    return Status::InvalidArgument("unknown session " +
                                   std::to_string(session));
  }

  auto pending = std::make_unique<Pending>();
  pending->session = session;
  pending->spec = spec;
  pending->submitted = Clock::now();
  if (spec.deadline_s > 0) {
    pending->has_deadline = true;
    pending->deadline =
        pending->submitted + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(spec.deadline_s));
  }

  // Parse / analyze up front (through the plan cache): a malformed query
  // is rejected synchronously and never occupies a queue slot.
  if (options_.enable_plan_cache) {
    RAPIDA_ASSIGN_OR_RETURN(PlanCache::Entry entry,
                            plan_cache_.GetOrAnalyze(spec.text));
    pending->fingerprint = std::move(entry.fingerprint);
    pending->plan_fingerprint = std::move(entry.plan_fingerprint);
    pending->plan = std::move(entry.query);
  } else {
    RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<sparql::SelectQuery> parsed,
                            sparql::ParseQuery(spec.text));
    pending->fingerprint = parsed->ToString();
    RAPIDA_ASSIGN_OR_RETURN(analytics::AnalyticalQuery analyzed,
                            analytics::AnalyzeQuery(*parsed));
    pending->plan_fingerprint = plan::CanonicalPlanFingerprint(analyzed);
    pending->plan = std::make_shared<const analytics::AnalyticalQuery>(
        std::move(analyzed));
  }

  std::future<Response> future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      metrics_.IncrRejected();
      return Status::Unavailable("service is shut down");
    }
    auto it = datasets_.find(spec.dataset);
    if (it == datasets_.end()) {
      metrics_.IncrRejected();
      return Status::NotFound("dataset not registered: " + spec.dataset);
    }
    if (queue_.size() >= options_.max_queue_depth) {
      metrics_.IncrRejected();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.max_queue_depth) +
          " queries queued); retry later");
    }
    pending->dataset = it->second.get();
    pending->id = next_query_id_++;
    queue_.push_back(std::move(pending));
    metrics_.IncrAdmitted();
    metrics_.RecordQueueDepth(static_cast<int>(queue_.size()));
  }
  queue_cv_.notify_one();
  return future;
}

Response QueryService::Execute(int session, const QuerySpec& spec) {
  StatusOr<std::future<Response>> submitted = Submit(session, spec);
  if (!submitted.ok()) {
    Response r;
    r.result = submitted.status();
    return r;
  }
  return submitted->get();
}

Status QueryService::Mutate(
    const std::string& dataset,
    const std::vector<engine::Dataset::TripleUpdate>& triples) {
  Registered* reg = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) {
      return Status::NotFound("dataset not registered: " + dataset);
    }
    reg = it->second.get();
  }
  // Exclusive: waits out every running query on this dataset, and no new
  // one starts until the layouts are dropped and the version is bumped.
  std::unique_lock<std::shared_mutex> exclusive(reg->rw);
  uint64_t old_hash = store_ != nullptr ? reg->dataset->ContentHash() : 0;
  std::vector<rdf::Triple> added;
  RAPIDA_RETURN_IF_ERROR(reg->dataset->AddTriples(
      triples, store_ != nullptr ? &added : nullptr));
  ResultCache::Invalidated dropped = result_cache_.InvalidateDataset(dataset);
  metrics_.RecordInvalidation(dropped.entries, dropped.bytes);
  if (store_ != nullptr) {
    MaintainArtifacts(dataset, reg->dataset, old_hash, std::move(added));
  }
  return Status::OK();
}

void QueryService::MaintainArtifacts(const std::string& name,
                                     engine::Dataset* dataset,
                                     uint64_t old_hash,
                                     std::vector<rdf::Triple> added) {
  uint64_t new_hash = dataset->ContentHash();
  if (new_hash == old_hash) return;  // every triple was a duplicate
  std::vector<storage::ArtifactMeta> metas =
      store_->ListForDataset(name, old_hash);
  if (metas.empty()) return;

  storage::DeltaPartition delta =
      storage::DeltaPartition::FromAdded(std::move(added));
  // One index over the post-mutation graph serves every artifact patch.
  rdf::GraphIndex index(dataset->graph());

  for (const storage::ArtifactMeta& meta : metas) {
    storage::IvmClass cls = storage::IvmClassFromName(meta.ivm_class);
    bool patched = false;
    if (options_.enable_ivm && cls != storage::IvmClass::kNone) {
      // The canonical text round-trips through the parser, so a restarted
      // process can re-analyze an artifact it never planned itself.
      StatusOr<PlanCache::Entry> entry =
          plan_cache_.GetOrAnalyze(meta.canonical_query);
      StatusOr<storage::Artifact> art =
          entry.ok() ? store_->Get(meta.plan_fingerprint, old_hash)
                     : StatusOr<storage::Artifact>(entry.status());
      StatusOr<analytics::BindingTable> base =
          art.ok() ? storage::DeserializeArtifact(*art, &dataset->dict())
                   : StatusOr<analytics::BindingTable>(art.status());
      StatusOr<analytics::BindingTable> next =
          base.ok() ? storage::PatchResult(*entry->query, cls, *base, delta,
                                           index, &dataset->dict())
                    : std::move(base);
      if (next.ok()) {
        storage::Artifact updated;
        updated.meta = meta;
        updated.meta.content_hash = new_hash;
        // The patch may break (or create) the cross-product shape, so the
        // layout is re-decided from the patched rows, never inherited.
        updated.meta.factorization.clear();
        if (!storage::FactorizeTable(*next, dataset->dict(), &updated.rows,
                                     &updated.meta.factorization)) {
          updated.rows = storage::SerializeTable(*next, dataset->dict());
        }
        if (store_->Put(updated).ok()) {
          patched = true;
          metrics_.IncrStorePatched();
          if (options_.enable_result_cache) {
            // The patched table is also the freshest in-memory answer.
            result_cache_.Put(ResultCache::Key(entry->fingerprint, name,
                                               dataset->version()),
                              std::move(*next));
          }
        }
      }
    }
    if (!patched) metrics_.IncrStoreRecompute();
    // The old-generation artifact keys a dataset state that no longer
    // exists; drop it rather than letting it age out of the budget.
    store_->Remove(meta.plan_fingerprint, old_hash);
  }
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch = NextBatch();
    if (batch.empty()) return;
    Serve(std::move(batch));
  }
}

std::vector<std::unique_ptr<QueryService::Pending>> QueryService::NextBatch() {
  std::vector<std::unique_ptr<Pending>> batch;
  std::unique_lock<std::mutex> lock(mu_);
  queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
  if (queue_.empty()) return batch;  // shutdown and drained

  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  Pending* head = batch[0].get();

  // A deadline makes a query un-batchable: the whole batch shares jobs,
  // so cancelling on one member's deadline would cancel the others too.
  if (!options_.enable_batching || head->has_deadline) return batch;

  auto collect = [&] {
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      Pending* q = it->get();
      if (q->dataset == head->dataset && !q->has_deadline) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  };
  collect();
  if (options_.batch_window_ms > 0 && batch.size() < options_.max_batch &&
      !shutdown_) {
    // Linger briefly for companions; wake early when anything arrives.
    queue_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(
                  options_.batch_window_ms),
        [this] { return shutdown_ || !queue_.empty(); });
    collect();
  }
  return batch;
}

bool QueryService::TryResultCache(Pending* p) {
  if (!options_.enable_result_cache) return false;
  std::string key = ResultCache::Key(p->fingerprint, p->spec.dataset,
                                     p->dataset->dataset->version());
  std::shared_ptr<const analytics::BindingTable> hit = result_cache_.Get(key);
  if (hit == nullptr) return false;
  Response r = MakeResponse(p, analytics::BindingTable(*hit), Clock::now(),
                            /*sim_seconds=*/0, /*sched_sim_seconds=*/0,
                            /*batch_size=*/1, /*cache_hit=*/true);
  p->promise.set_value(std::move(r));
  return true;
}

bool QueryService::TryStore(Pending* p) {
  if (store_ == nullptr) return false;
  engine::Dataset* dataset = p->dataset->dataset;
  uint64_t content_hash = dataset->ContentHash();
  StatusOr<storage::Artifact> art =
      store_->Get(p->plan_fingerprint, content_hash);
  // NotFound is a plain miss; DataLoss means the artifact was quarantined
  // and Unimplemented that it came from a future format — all three
  // degrade to recompute, never to a failed query.
  if (!art.ok()) return false;
  StatusOr<analytics::BindingTable> table =
      storage::DeserializeArtifact(*art, &dataset->dict());
  if (!table.ok()) return false;
  // Queries sharing a plan fingerprint differ only in variable names:
  // rename the stored canonical columns positionally to this query's own.
  std::vector<std::string> names = p->plan->TopColumnNames();
  if (names.size() != table->NumCols()) return false;
  table->RenameColumns(std::move(names));

  if (options_.enable_result_cache) {
    // The entry shares the decoded cells with the response.
    result_cache_.Put(
        ResultCache::Key(p->fingerprint, p->spec.dataset, dataset->version()),
        *table);
  }
  metrics_.IncrStoreHit();
  // Zero MapReduce jobs: a store hit never touches the cluster, so its
  // simulated demand (and scheduler charge) is zero by construction.
  Response r = MakeResponse(p, std::move(*table), Clock::now(),
                            /*sim_seconds=*/0, /*sched_sim_seconds=*/0,
                            /*batch_size=*/1, /*cache_hit=*/false);
  r.store_hit = true;
  p->promise.set_value(std::move(r));
  return true;
}

void QueryService::PublishArtifact(Pending* p,
                                   const analytics::BindingTable& table) {
  if (store_ == nullptr) return;
  engine::Dataset* dataset = p->dataset->dataset;
  storage::Artifact art;
  art.meta.plan_fingerprint = p->plan_fingerprint;
  art.meta.content_hash = dataset->ContentHash();
  art.meta.dataset = p->spec.dataset;
  art.meta.canonical_query = p->fingerprint;
  art.meta.ivm_class =
      storage::IvmClassName(storage::ClassifyMaintainability(*p->plan).cls);
  art.meta.columns = table.vars();
  if (!storage::FactorizeTable(table, dataset->dict(), &art.rows,
                               &art.meta.factorization)) {
    art.rows = storage::SerializeTable(table, dataset->dict());
  }
  Status st = store_->Put(art);
  if (!st.ok()) {
    RAPIDA_LOG(Warning) << "artifact publish failed for "
                        << art.meta.plan_fingerprint << ": " << st.ToString();
  }
}

Response QueryService::MakeResponse(Pending* p,
                                    StatusOr<analytics::BindingTable> result,
                                    Clock::time_point exec_start,
                                    double sim_seconds,
                                    double sched_sim_seconds,
                                    size_t batch_size, bool cache_hit) {
  Clock::time_point now = Clock::now();
  Response r;
  r.fingerprint = p->fingerprint;
  r.plan_fingerprint = p->plan_fingerprint;
  r.result_cache_hit = cache_hit;
  r.batch_size = batch_size;
  r.queue_wait_s = Seconds(p->submitted, exec_start);
  r.exec_wall_s = Seconds(exec_start, now);
  r.sim_seconds = sim_seconds;
  r.sched_sim_seconds = sched_sim_seconds;

  metrics_.queue_wait().Record(r.queue_wait_s);
  metrics_.latency().Record(Seconds(p->submitted, now));
  if (result.ok()) {
    metrics_.IncrCompleted();
  } else if (result.status().code() == Code::kDeadlineExceeded) {
    metrics_.IncrDeadlineExceeded();
  } else {
    metrics_.IncrFailed();
  }
  r.result = std::move(result);
  return r;
}

void QueryService::Serve(std::vector<std::unique_ptr<Pending>> batch) {
  // All members target the same dataset (NextBatch guarantees it); hold
  // its shared lock for the whole service step so Mutate cannot slide in
  // between the cache probe and execution.
  Registered* reg = batch[0]->dataset;
  std::shared_lock<std::shared_mutex> shared(reg->rw);

  // Result-cache probes under the now-stable version, then store probes
  // under the now-stable content hash (the cache is cheaper: no disk read,
  // no re-interning).
  std::vector<std::unique_ptr<Pending>> remaining;
  for (auto& p : batch) {
    if (!TryResultCache(p.get()) && !TryStore(p.get())) {
      remaining.push_back(std::move(p));
    }
  }
  if (remaining.empty()) return;
  if (remaining.size() == 1) {
    ServeSolo(remaining[0].get());
    return;
  }
  ServeBatch(&remaining);
}

void QueryService::ServeSolo(Pending* p) {
  Clock::time_point exec_start = Clock::now();
  engine::Dataset* dataset = p->dataset->dataset;
  uint64_t version = dataset->version();

  mr::Cluster cluster(options_.cluster, &dataset->dfs());
  QueryObserver observer(&scheduler_, p->session, p->deadline,
                         p->has_deadline);
  cluster.SetObserver(&observer);

  engine::EngineOptions eo = options_.engine;
  eo.tmp_namespace = "q" + std::to_string(p->id) + ":";
  // Engines must agree with the cluster on the shape of the data plane.
  eo.num_shards = options_.cluster.num_shards;
  eo.sharding_scheme = options_.cluster.sharding;
  engine::RapidAnalyticsEngine engine(eo);
  engine::ExecStats stats;
  StatusOr<analytics::BindingTable> result =
      engine.Execute(*p->plan, dataset, &cluster, &stats);

  if (result.ok()) {
    RecordWorkflowShuffle(&metrics_, stats.workflow.jobs);
    if (options_.enable_result_cache) {
      result_cache_.Put(
          ResultCache::Key(p->fingerprint, p->spec.dataset, version),
          analytics::BindingTable(*result));
    }
    PublishArtifact(p, *result);
  }
  Response r = MakeResponse(p, std::move(result), exec_start,
                            stats.workflow.TotalSimSeconds(),
                            stats.workflow.TotalScheduledSimSeconds(),
                            /*batch_size=*/1, /*cache_hit=*/false);
  p->promise.set_value(std::move(r));
}

void QueryService::ServeBatch(std::vector<std::unique_ptr<Pending>>* batch) {
  Clock::time_point exec_start = Clock::now();
  engine::Dataset* dataset = (*batch)[0]->dataset->dataset;
  uint64_t version = dataset->version();

  // In-batch dedup: identical fingerprints execute once; followers get a
  // copy of the leader's table, sharing its cells (with the cost split
  // among them) whether or not the result cache is on — dedup is batching,
  // not caching.
  std::vector<Pending*> leaders;
  std::map<std::string, size_t> leader_of;  // fingerprint -> leaders index
  std::vector<std::vector<Pending*>> followers;
  for (auto& p : *batch) {
    auto [it, inserted] = leader_of.emplace(p->fingerprint, leaders.size());
    if (inserted) {
      leaders.push_back(p.get());
      followers.emplace_back();
    } else {
      followers[it->second].push_back(p.get());
    }
  }

  // Greedy partition of the distinct queries into sharable groups: seed a
  // group with the first ungrouped leader, then admit each later leader
  // that keeps the whole group's pattern family overlapping. All-or-
  // nothing family overlap would forfeit sharing whenever one stranger
  // rides in the batch; greedy grouping shares what can be shared.
  std::vector<std::vector<size_t>> groups;
  std::vector<engine::SharedScanPlan> group_plans;
  std::vector<bool> grouped(leaders.size(), false);
  for (size_t i = 0; i < leaders.size(); ++i) {
    if (grouped[i]) continue;
    grouped[i] = true;
    std::vector<size_t> group{i};
    std::vector<const analytics::AnalyticalQuery*> queries{
        leaders[i]->plan.get()};
    StatusOr<engine::SharedScanPlan> plan = engine::PlanSharedScan(queries);
    for (size_t j = i + 1; j < leaders.size(); ++j) {
      if (grouped[j]) continue;
      // A group can only grow from a sharable core.
      if (!plan.ok() || !plan->sharable) break;
      std::vector<const analytics::AnalyticalQuery*> trial = queries;
      trial.push_back(leaders[j]->plan.get());
      StatusOr<engine::SharedScanPlan> trial_plan =
          engine::PlanSharedScan(trial);
      if (trial_plan.ok() && trial_plan->sharable) {
        plan = std::move(trial_plan);
        queries = std::move(trial);
        group.push_back(j);
        grouped[j] = true;
      }
    }
    groups.push_back(std::move(group));
    group_plans.push_back(plan.ok() && plan->sharable
                              ? std::move(*plan)
                              : engine::SharedScanPlan{});
  }
  if (groups.size() > 1) metrics_.IncrSharedScanFallback();

  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<size_t>& group = groups[g];
    size_t members = 0;
    for (size_t i : group) members += 1 + followers[i].size();

    // A lone query with no duplicates takes the ordinary solo path
    // (per-job fair-share accounting, nothing to split).
    if (members == 1) {
      ServeSolo(leaders[group[0]]);
      continue;
    }

    engine::EngineOptions eo = options_.engine;
    eo.tmp_namespace =
        "b" + std::to_string(leaders[group[0]]->id) + ":";
    eo.num_shards = options_.cluster.num_shards;
    eo.sharding_scheme = options_.cluster.sharding;
    mr::Cluster cluster(options_.cluster, &dataset->dfs());

    // One result slot per group leader.
    std::vector<StatusOr<analytics::BindingTable>> results;
    if (group.size() > 1) {
      std::vector<const analytics::AnalyticalQuery*> queries;
      queries.reserve(group.size());
      for (size_t i : group) queries.push_back(leaders[i]->plan.get());
      Status shared_status = engine::ExecuteCompositeBatch(
          group_plans[g], queries, dataset, &cluster, eo, &results);
      if (!shared_status.ok()) {
        results.assign(group.size(), shared_status);
      }
    } else {
      // Duplicates of one query: run its workflow once through the
      // engine (which handles its own intra-query fallback).
      engine::RapidAnalyticsEngine engine(eo);
      results.push_back(engine.Execute(*leaders[group[0]]->plan, dataset,
                                       &cluster, nullptr));
    }

    RecordWorkflowShuffle(&metrics_, cluster.history());
    double total_sim = 0;
    for (const mr::JobStats& j : cluster.history()) {
      total_sim += j.sim_seconds;
    }
    // The shared cycles served every member at once: split the cost
    // evenly and charge each session its share.
    double sim_share = total_sim / static_cast<double>(members);
    double slot_share =
        sim_share * static_cast<double>(options_.cluster.map_slots());
    metrics_.IncrBatches(members);

    for (size_t k = 0; k < group.size(); ++k) {
      size_t i = group[k];
      StatusOr<analytics::BindingTable> leader_result = std::move(results[k]);
      if (leader_result.ok()) {
        if (options_.enable_result_cache) {
          result_cache_.Put(
              ResultCache::Key(leaders[i]->fingerprint,
                               leaders[i]->spec.dataset, version),
              analytics::BindingTable(*leader_result));
        }
        PublishArtifact(leaders[i], *leader_result);
      }
      for (Pending* f : followers[i]) {
        StatusOr<analytics::BindingTable> copy =
            leader_result.ok()
                ? StatusOr<analytics::BindingTable>(
                      analytics::BindingTable(*leader_result))
                : StatusOr<analytics::BindingTable>(leader_result.status());
        double sched =
            scheduler_.AccountCost(f->session, sim_share, slot_share);
        Response r = MakeResponse(f, std::move(copy), exec_start, sim_share,
                                  sched, members, /*cache_hit=*/false);
        f->promise.set_value(std::move(r));
      }
      double sched =
          scheduler_.AccountCost(leaders[i]->session, sim_share, slot_share);
      Response r =
          MakeResponse(leaders[i], std::move(leader_result), exec_start,
                       sim_share, sched, members, /*cache_hit=*/false);
      leaders[i]->promise.set_value(std::move(r));
    }
  }
}

std::string QueryService::MetricsJson() const {
  std::string json = "{\"service\":" + metrics_.ToJson();
  json += ",\"plan_cache\":{\"hits\":" + std::to_string(plan_cache_.hits()) +
          ",\"misses\":" + std::to_string(plan_cache_.misses()) +
          ",\"plan_hits\":" + std::to_string(plan_cache_.plan_hits()) +
          ",\"distinct_plans\":" +
          std::to_string(plan_cache_.distinct_plans()) + "}";
  json += ",\"result_cache\":{\"hits\":" +
          std::to_string(result_cache_.hits()) +
          ",\"misses\":" + std::to_string(result_cache_.misses()) +
          ",\"evictions\":" + std::to_string(result_cache_.evictions()) +
          ",\"bytes_used\":" + std::to_string(result_cache_.bytes_used()) +
          ",\"byte_budget\":" + std::to_string(result_cache_.byte_budget()) +
          "}";
  if (store_ != nullptr) {
    json += ",\"store\":" + store_->StatsJson();
  }
  json += ",\"sessions\":[";
  std::vector<JobScheduler::SessionStats> sessions = scheduler_.AllStats();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const JobScheduler::SessionStats& s = sessions[i];
    if (i > 0) json += ",";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"weight\":%.6g,\"jobs\":%llu,"
                  "\"demand_sim_s\":%.6g,\"charged_sim_s\":%.6g,"
                  "\"slot_seconds\":%.6g}",
                  s.name.c_str(), s.weight,
                  static_cast<unsigned long long>(s.jobs), s.demand_sim_s,
                  s.charged_sim_s, s.slot_seconds);
    json += buf;
  }
  json += "]}";
  return json;
}

}  // namespace rapida::service
