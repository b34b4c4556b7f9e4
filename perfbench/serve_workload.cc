// serve-rw: the query service with its default options (plan and result
// caches, shared-scan batching, a persistent store with incremental view
// maintenance) over all three datasets. One generator thread submits a
// seeded draw over the catalog open loop at a fixed ladder of arrival
// rates; one writer thread inserts BSBM offers through Mutate on a fixed
// period. Two service workers at one executor thread each, plus the two
// client threads, fit in four cores. Before the ladder, a cost pass replays
// reads and writes one at a time, so that its simulated cost repeats
// exactly for a seed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/analytical_query.h"
#include "engines/rapid_analytics.h"
#include "rdf/term.h"
#include "service/query_service.h"
#include "setup.h"
#include "sparql/parser.h"
#include "trace.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workloads.h"

namespace rapida::perfbench {
namespace {

using engine::Dataset;
using service::QueryService;
using service::QuerySpec;
using service::Response;

constexpr int kWorkers = 2;
constexpr int kClusterThreads = 1;
/// Arrival-rate ladder (requests per second). The first rung is the
/// reference rate the latency metrics are reported at; it gets half of
/// the measured time, the other rungs share the rest.
constexpr double kLadderQps[] = {100, 200, 300, 400};
/// A rung meets the limit when its p90 latency stays under this and its
/// backlog does not grow: the median latency of its last quarter of
/// requests stays under it too.
constexpr double kLatencyLimitS = 0.020;
/// One insert batch every 100 ms: about ten reads per write at the
/// reference rate, so roughly a fifth of the reads miss the result cache
/// and p90 measures recomputation while p50 measures cache hits.
constexpr double kMutatePeriodS = 0.1;
constexpr int kOffersPerMutation = 5;
/// Rounds of the cost pass: one insert batch, then the whole catalog.
constexpr int kCostRounds = 4;
/// At rapida_serve's default sizes.
const char* const kDatasets[] = {"bsbm", "chem", "pubmed"};

/// Insert batch `round` of the writer: fresh offers (all-new subjects, so
/// every triple is new), deterministic in (seed, round).
std::vector<Dataset::TripleUpdate> OfferBatch(uint64_t seed, int round) {
  using rdf::Term;
  const std::string ns(workload::kBsbmNs);
  const workload::BsbmConfig shape;
  std::vector<Dataset::TripleUpdate> ups;
  for (int i = 0; i < kOffersPerMutation; ++i) {
    std::string offer = ns + "OfferW" + std::to_string(seed) + "r" +
                        std::to_string(round) + "x" + std::to_string(i);
    uint64_t k = seed * 7919 + static_cast<uint64_t>(round) * 97 +
                 static_cast<uint64_t>(i) * 13;
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "product"),
                   Term::Iri(ns + "Product" +
                             std::to_string(1 + k % shape.num_products))});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "price"),
                   Term::Literal(std::to_string(50 + (k * 17) % 9950),
                                 rdf::kXsdInteger)});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "vendor"),
                   Term::Iri(ns + "Vendor" +
                             std::to_string(1 + k % shape.num_vendors))});
  }
  return ups;
}

/// Direct execution on a private cluster: the oracle.
StatusOr<uint64_t> DirectHash(const std::string& sparql, Dataset* dataset) {
  RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<sparql::SelectQuery> parsed,
                          sparql::ParseQuery(sparql));
  RAPIDA_ASSIGN_OR_RETURN(analytics::AnalyticalQuery query,
                          analytics::AnalyzeQuery(*parsed));
  mr::ClusterConfig cfg;
  cfg.exec_threads = kClusterThreads;
  mr::Cluster cluster(cfg, &dataset->dfs());
  engine::RapidAnalyticsEngine engine;
  RAPIDA_ASSIGN_OR_RETURN(analytics::BindingTable table,
                          engine.Execute(query, dataset, &cluster, nullptr));
  return HashResult(table, dataset->dict());
}

/// Datasets plus the service over them (declared after what it borrows).
struct Env {
  std::map<std::string, std::unique_ptr<Dataset>> datasets;
  std::unique_ptr<QueryService> service;
  int session = -1;
};

/// One set-up: the three datasets and their layouts, the service over
/// them, and a cold pass over the catalog.
Status Setup(const Args& args, const std::string& store_dir, Tracer* tracer,
             int span, int repetition, Env* env, SetupTimes* times) {
  for (const char* name : kDatasets) {
    RAPIDA_ASSIGN_OR_RETURN(env->datasets[name],
                            BuildDataset(name, args.seed, 0, tracer, span,
                                         repetition, times));
  }
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  service::ServiceOptions opts;
  opts.workers = kWorkers;
  opts.cluster.exec_threads = kClusterThreads;
  // Open loop: overload must show as queueing delay, never as a refused
  // request, so the admission bound is far above any backlog the ladder
  // can build.
  opts.max_queue_depth = 1 << 16;
  opts.store_dir = store_dir;
  env->service = std::make_unique<QueryService>(opts);
  for (auto& [name, ds] : env->datasets) {
    env->service->RegisterDataset(name, ds.get());
  }
  env->session = env->service->OpenSession("perfbench");
  // Warm-up: the catalog once, one query at a time, fills the plan cache,
  // the result cache and the store.
  for (const workload::CatalogQuery& q : workload::Catalog()) {
    Response r =
        env->service->Execute(env->session, QuerySpec{q.sparql, q.dataset});
    if (!r.result.ok()) {
      return Status::Internal("warm-up " + q.id + ": " +
                              r.result.status().ToString());
    }
  }
  return Status::OK();
}

/// One submitted request and what came back.
struct Request {
  size_t query = 0;  // catalog index
  Clock::time_point due;
  Clock::time_point call;
  Clock::time_point returned;
  /// The bsbm versions the answer may have been computed at: from the
  /// version before submission to the last one whose Mutate began before
  /// the response completed.
  uint64_t version_lo = 0;
  uint64_t version_hi = 0;
  bool admitted = false;
  std::future<Response> future;
  // Filled at collection; the result table itself is reduced to its hash.
  bool ok = false;
  uint64_t hash = 0;
  double latency_s = 0;
  double queue_wait_s = 0;
  double exec_wall_s = 0;
  size_t batch_size = 1;
  bool result_cache_hit = false;
  bool store_hit = false;
  Clock::time_point exec_start;
  Clock::time_point done;
};

struct RungResult {
  double rate = 0;
  double duration_s = 0;
  size_t requests = 0;
  size_t failed = 0;
  double p50_s = 0;
  double p90_s = 0;
  double tail_p50_s = 0;  // median latency of the last quarter
  double max_s = 0;
  bool meets_limit = false;
  /// Process CPU time from the rung's first send until it drained, less
  /// the generator thread's own (its spin-wait and answer hashing are the
  /// client's, not the service's).
  double service_cpu_s = 0;
  size_t completed = 0;
  size_t cache_hits = 0;
};

/// Everything one ladder produced, for metrics and the answer check.
struct LadderRun {
  std::vector<RungResult> rungs;
  std::vector<std::unique_ptr<Request>> requests;
  std::vector<double> reference_latencies_s;
  std::vector<double> mutate_s;
  int mutations_failed = 0;
  double wall_s = 0;
  uint64_t completed = 0;
};

void WaitUntil(Clock::time_point due) {
  // Sleep most of the way, then spin: the schedule, not the timer slack,
  // decides when a request is sent.
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// The query draw: the catalog in a seeded random order, reshuffled after
/// every round, so each query is asked equally often and the mix of cache
/// misses varies little from seed to seed.
class Deck {
 public:
  Deck(size_t size, uint64_t seed) : rng_(seed), order_(size), pos_(size) {
    for (size_t i = 0; i < size; ++i) order_[i] = i;
  }
  size_t Next() {
    if (pos_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// What the cost pass produced.
struct CostPass {
  std::vector<std::unique_ptr<Request>> reads;
  int writes = 0;
  int writes_failed = 0;
  size_t reads_failed = 0;
  double sim_s = 0;  // summed over the reads' responses
  double wall_s = 0;
};

/// The cost pass: reads and writes one at a time. Each of kCostRounds
/// rounds applies the writer's next insert batch through Mutate, then
/// reads every catalog query once in the draw's order. A BSBM read after a
/// write misses the result cache unless IVM patched its artifact; every
/// other read hits. The responses' simulated seconds therefore cost the
/// read/write path (cache misses, store hits, patch versus recompute), and
/// with nothing concurrent they repeat exactly for a seed.
CostPass RunCostPass(Env* env, const Args& args, Deck* deck, int* next_round) {
  const std::vector<workload::CatalogQuery>& catalog = workload::Catalog();
  Dataset* bsbm = env->datasets["bsbm"].get();
  CostPass pass;
  Clock::time_point start = Clock::now();
  for (int round = 0; round < kCostRounds; ++round) {
    Status st =
        env->service->Mutate("bsbm", OfferBatch(args.seed, (*next_round)++));
    pass.writes++;
    if (!st.ok()) {
      std::fprintf(stderr, "mutate: %s\n", st.ToString().c_str());
      pass.writes_failed++;
    }
    for (size_t k = 0; k < catalog.size(); ++k) {
      auto req = std::make_unique<Request>();
      req->query = deck->Next();
      const workload::CatalogQuery& q = catalog[req->query];
      req->version_lo = req->version_hi = bsbm->version();
      Response r =
          env->service->Execute(env->session, QuerySpec{q.sparql, q.dataset});
      if (r.result.ok()) {
        req->ok = true;
        req->hash = HashResult(*r.result, env->datasets[q.dataset]->dict());
        pass.sim_s += r.sim_seconds;
      } else {
        std::fprintf(stderr, "error %s: %s\n", q.id.c_str(),
                     r.result.status().ToString().c_str());
        pass.reads_failed++;
      }
      pass.reads.push_back(std::move(req));
    }
  }
  pass.wall_s = Seconds(start, Clock::now());
  return pass;
}

/// Runs the ladder for `seconds` total with the writer alongside.
LadderRun RunLadder(Env* env, const Args& args, double seconds, Deck* deck,
                    int* next_round, Tracer* tracer) {
  const std::vector<workload::CatalogQuery>& catalog = workload::Catalog();
  Dataset* bsbm = env->datasets["bsbm"].get();
  QueryService* svc = env->service.get();
  LadderRun run;
  const uint64_t base_version = bsbm->version();
  /// mutate_start[r] is when the writer's r-th Mutate began (it creates
  /// bsbm version base_version + r + 1).
  std::vector<Clock::time_point> mutate_start;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Clock::time_point next = Clock::now();
    while (true) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kMutatePeriodS));
      std::this_thread::sleep_until(next);
      if (stop.load()) return;
      int round = (*next_round)++;
      Clock::time_point t0 = Clock::now();
      mutate_start.push_back(t0);
      int span = tracer->Begin("serve.mutate", -1, static_cast<uint64_t>(round));
      Status st = svc->Mutate("bsbm", OfferBatch(args.seed, round));
      tracer->End(span);
      run.mutate_s.push_back(Seconds(t0, Clock::now()));
      if (!st.ok()) {
        std::fprintf(stderr, "mutate: %s\n", st.ToString().c_str());
        run.mutations_failed++;
      }
    }
  });

  const size_t num_rungs = std::size(kLadderQps);
  Clock::time_point ladder_start = Clock::now();
  for (size_t rung = 0; rung < num_rungs; ++rung) {
    const size_t first = run.requests.size();
    const double cpu_start = ProcessCpuSeconds();
    const double client_cpu_start = ThreadCpuSeconds();
    RungResult result;
    result.rate = kLadderQps[rung];
    result.duration_s =
        rung == 0 ? seconds / 2 : seconds / 2 / static_cast<double>(num_rungs - 1);
    size_t count = static_cast<size_t>(result.rate * result.duration_s);
    Clock::time_point rung_start = Clock::now();
    for (size_t k = 0; k < count; ++k) {
      auto req = std::make_unique<Request>();
      req->query = deck->Next();
      req->due = rung_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(k) / result.rate));
      WaitUntil(req->due);
      const workload::CatalogQuery& q = catalog[req->query];
      req->version_lo = bsbm->version();
      req->call = Clock::now();
      StatusOr<std::future<Response>> f =
          svc->Submit(env->session, QuerySpec{q.sparql, q.dataset});
      req->returned = Clock::now();
      if (f.ok()) {
        req->admitted = true;
        req->future = std::move(*f);
      } else {
        std::fprintf(stderr, "rejected %s: %s\n", q.id.c_str(),
                     f.status().ToString().c_str());
      }
      run.requests.push_back(std::move(req));
    }
    // Drain this rung before the next starts.
    std::vector<double> latencies;
    for (size_t i = first; i < run.requests.size(); ++i) {
      Request& req = *run.requests[i];
      if (!req.admitted) {
        result.failed++;
        continue;
      }
      const Response r = req.future.get();
      req.queue_wait_s = r.queue_wait_s;
      req.exec_wall_s = r.exec_wall_s;
      req.batch_size = r.batch_size;
      req.result_cache_hit = r.result_cache_hit;
      req.store_hit = r.store_hit;
      // Submit stamps its admission clock on entry, so the call time stands
      // in for it: start = call + queue wait, done = start + execution.
      req.exec_start = req.call + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(r.queue_wait_s));
      req.done = req.exec_start +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.exec_wall_s));
      req.latency_s = Seconds(req.due, req.done);
      if (!r.result.ok()) {
        std::fprintf(stderr, "error %s: %s\n", catalog[req.query].id.c_str(),
                     r.result.status().ToString().c_str());
        result.failed++;
        continue;
      }
      req.ok = true;
      req.hash = HashResult(*r.result,
                            env->datasets[catalog[req.query].dataset]->dict());
      latencies.push_back(req.latency_s);
      result.cache_hits += r.result_cache_hit ? 1 : 0;
      if (rung == 0) run.reference_latencies_s.push_back(req.latency_s);
    }
    result.service_cpu_s = (ProcessCpuSeconds() - cpu_start) -
                           (ThreadCpuSeconds() - client_cpu_start);
    result.completed = latencies.size();
    result.requests = run.requests.size() - first;
    result.p50_s = Quantile(latencies, 0.5);
    result.p90_s = Quantile(latencies, 0.9);
    result.max_s = Quantile(latencies, 1.0);
    result.tail_p50_s = Quantile(
        std::vector<double>(latencies.begin() + latencies.size() * 3 / 4,
                            latencies.end()),
        0.5);
    result.meets_limit = result.failed == 0 &&
                         result.p90_s <= kLatencyLimitS &&
                         result.tail_p50_s <= kLatencyLimitS;
    run.rungs.push_back(result);
  }
  stop.store(true);
  writer.join();
  run.wall_s = Seconds(ladder_start, Clock::now());
  for (const auto& req : run.requests) {
    run.completed += req->ok ? 1 : 0;
    req->version_hi = base_version;
    for (size_t r = 0; r < mutate_start.size(); ++r) {
      if (mutate_start[r] < req->done) req->version_hi = base_version + r + 1;
    }
  }

  // Spans from the response timings: request = due -> done, split into
  // submit (the call), queue (until execution starts) and exec.
  if (tracer->enabled()) {
    for (size_t i = 0; i < run.requests.size(); ++i) {
      const Request& req = *run.requests[i];
      if (!req.admitted) continue;
      const char* id = catalog[req.query].id.c_str();
      int span = tracer->Add("serve.request", req.due, req.done, -1, i, id);
      tracer->Add("serve.submit", req.call, req.returned, span, i);
      Clock::time_point exec_start = std::max(req.exec_start, req.returned);
      Clock::time_point done = std::max(req.done, exec_start);
      tracer->Add("serve.queue", req.returned, exec_start, span, i);
      tracer->Add("serve.exec", exec_start, done, span, i);
    }
  }
  return run;
}

/// Checks every answered request against direct execution at a bsbm
/// version in its range. Chem and PubMed never change, so their queries
/// run directly on the service's datasets (the service is shut down).
/// BSBM answers are checked against a replay: fresh copies of the dataset
/// receive the same insert batches in order, and each needed (version,
/// query) pair is executed directly on one of them. The copies share the
/// pairs round-robin and run on their own threads, because a dataset
/// serves one direct execution at a time.
Status CheckAnswers(const Args& args, Env* env,
                    const std::vector<const Request*>& requests,
                    uint64_t* wrong) {
  const std::vector<workload::CatalogQuery>& catalog = workload::Catalog();
  std::map<size_t, uint64_t> unchanging;  // query -> hash
  std::set<std::pair<uint64_t, size_t>> needed;  // (bsbm version, query)
  for (const Request* req : requests) {
    if (!req->ok) continue;
    const std::string& dataset = catalog[req->query].dataset;
    if (dataset != "bsbm") {
      if (unchanging.count(req->query) == 0) {
        RAPIDA_ASSIGN_OR_RETURN(
            unchanging[req->query],
            DirectHash(catalog[req->query].sparql,
                       env->datasets[dataset].get()));
      }
      continue;
    }
    for (uint64_t v = req->version_lo; v <= req->version_hi; ++v) {
      needed.insert({v, req->query});
    }
  }
  const std::vector<std::pair<uint64_t, size_t>> pairs(needed.begin(),
                                                       needed.end());
  constexpr size_t kReplays = 4;
  std::vector<std::map<std::pair<uint64_t, size_t>, uint64_t>> found(
      kReplays);
  std::vector<Status> status(kReplays);
  std::vector<std::thread> replays;
  for (size_t t = 0; t < kReplays; ++t) {
    replays.emplace_back([&, t] {
      Dataset replay(GenerateGraph("bsbm", args.seed, 0));
      uint64_t version = 0;
      for (size_t k = t; k < pairs.size(); k += kReplays) {
        auto [v, q] = pairs[k];
        for (; version < v && status[t].ok(); ++version) {
          status[t] = replay.AddTriples(
              OfferBatch(args.seed, static_cast<int>(version)));
        }
        StatusOr<uint64_t> h = status[t].ok()
                                   ? DirectHash(catalog[q].sparql, &replay)
                                   : StatusOr<uint64_t>(status[t]);
        if (!h.ok()) {
          status[t] = h.status();
          return;
        }
        found[t][{v, q}] = *h;
      }
    });
  }
  for (std::thread& t : replays) t.join();
  std::map<std::pair<uint64_t, size_t>, uint64_t> oracle;
  for (size_t t = 0; t < kReplays; ++t) {
    RAPIDA_RETURN_IF_ERROR(status[t]);
    oracle.insert(found[t].begin(), found[t].end());
  }
  for (const Request* req : requests) {
    if (!req->ok) continue;
    bool match = false;
    if (catalog[req->query].dataset != "bsbm") {
      match = unchanging.at(req->query) == req->hash;
    } else {
      for (uint64_t v = req->version_lo; v <= req->version_hi; ++v) {
        match = match || oracle.at({v, req->query}) == req->hash;
      }
    }
    if (!match) {
      (*wrong)++;
      std::fprintf(stderr, "wrong answer: %s (bsbm versions %llu..%llu)\n",
                   catalog[req->query].id.c_str(),
                   static_cast<unsigned long long>(req->version_lo),
                   static_cast<unsigned long long>(req->version_hi));
    }
  }
  return Status::OK();
}

struct ServiceCounters {
  uint64_t plan_hits = 0, plan_misses = 0, patched = 0, recomputed = 0;
  double demand_sim_s = 0;

  static ServiceCounters Of(QueryService* svc) {
    ServiceCounters c;
    c.plan_hits = svc->plan_cache().hits();
    c.plan_misses = svc->plan_cache().misses();
    c.patched = svc->metrics().store_patched();
    c.recomputed = svc->metrics().store_recomputes();
    c.demand_sim_s = svc->scheduler().TotalDemandSimSeconds();
    return c;
  }
};

double MaxRate(const LadderRun& run) {
  double best = 0;
  for (const RungResult& r : run.rungs) {
    if (!r.meets_limit) break;
    best = static_cast<double>(r.requests) / r.duration_s;
  }
  return best;
}

}  // namespace

Status RunServeWorkload(const Args& args, Tracer* tracer, Report* report) {
  const std::vector<workload::CatalogQuery>& catalog = workload::Catalog();
  const std::string store_dir = args.scratch_dir + "/serve-store";
  std::printf("serve-rw: bsbm, chem, pubmed; %d workers x cluster "
              "exec_threads %d\n",
              kWorkers, kClusterThreads);
  Env env;
  RAPIDA_RETURN_IF_ERROR(RepeatSetup(
      tracer,
      [&] {
        env.service.reset();  // before the datasets it borrows
        env = Env();
      },
      [&](int span, int repetition, SetupTimes* times) {
        return Setup(args, store_dir, tracer, span, repetition, &env, times);
      },
      report));

  Deck deck(catalog.size(), args.seed);
  // The writer's insert batches, numbered from the generated data on: the
  // batch numbered r creates bsbm version r + 1.
  int next_round = 0;
  CostPass cost = RunCostPass(&env, args, &deck, &next_round);
  std::printf("cost pass: %zu reads, %d writes in %.2f s, sim %.6f s\n",
              cost.reads.size(), cost.writes, cost.wall_s, cost.sim_s);

  // The traced run splits its time: an untraced half gives the baseline
  // the tracing overhead is measured against.
  Tracer untraced(false);
  double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  LadderRun base =
      RunLadder(&env, args, untraced_seconds, &deck, &next_round, &untraced);
  LadderRun traced;
  ServiceCounters c1 = ServiceCounters::Of(env.service.get());
  if (args.trace) {
    traced = RunLadder(&env, args, args.seconds - untraced_seconds, &deck,
                       &next_round, tracer);
  }
  ServiceCounters c2 = ServiceCounters::Of(env.service.get());
  env.service->Shutdown();
  // Before the answer check, whose dataset copies are the benchmark's.
  const double peak_rss_mb = PeakRssMb();

  std::vector<const LadderRun*> runs = {&base};
  if (args.trace) runs.push_back(&traced);
  if (args.inject_wrong_answer) {
    for (auto& req : base.requests) {
      if (!req->ok) continue;
      req->hash ^= 1;
      break;
    }
  }
  std::vector<const Request*> requests;
  for (const auto& req : cost.reads) requests.push_back(req.get());
  for (const LadderRun* run : runs) {
    for (const auto& req : run->requests) requests.push_back(req.get());
  }
  uint64_t wrong = 0;
  Clock::time_point check_start = Clock::now();
  RAPIDA_RETURN_IF_ERROR(CheckAnswers(args, &env, requests, &wrong));
  std::printf("answers checked against direct execution in %.2f s\n",
              Seconds(check_start, Clock::now()));

  report->attempted += cost.reads.size() + static_cast<uint64_t>(cost.writes);
  report->failed +=
      cost.reads_failed + static_cast<uint64_t>(cost.writes_failed);
  for (const LadderRun* run : runs) {
    for (const RungResult& r : run->rungs) {
      report->attempted += r.requests;
      report->failed += r.failed;
    }
    report->attempted += run->mutate_s.size();
    report->failed += static_cast<uint64_t>(run->mutations_failed);
  }
  report->failed += wrong;
  report->wrong += wrong;

  for (const RungResult& r : base.rungs) {
    std::printf("rung %6.0f qps: %5zu requests, p50 %.3f ms, p90 %.3f ms, "
                "last-quarter p50 %.3f ms, max %.3f ms, cpu %.3f ms/request, "
                "cache hits %.1f%%, failed %zu -> %s\n",
                r.rate, r.requests, 1e3 * r.p50_s, 1e3 * r.p90_s,
                1e3 * r.tail_p50_s, 1e3 * r.max_s,
                1e3 * Ratio(r.service_cpu_s, static_cast<double>(r.completed)),
                100 * Ratio(static_cast<double>(r.cache_hits),
                            static_cast<double>(r.completed)),
                r.failed, r.meets_limit ? "meets limit" : "misses limit");
  }
  std::printf("reference rate %.0f qps: %zu latency samples; %zu mutations\n",
              kLadderQps[0], base.reference_latencies_s.size(),
              base.mutate_s.size());

  std::map<std::string, double>& m = report->metrics;
  m["sim_s"] = cost.sim_s;
  m["peak_rss_mb"] = peak_rss_mb;
  m["latency_p50_ms"] = 1e3 * Quantile(base.reference_latencies_s, 0.5);
  m["latency_p90_ms"] = 1e3 * Quantile(base.reference_latencies_s, 0.9);
  m["latency_samples"] = static_cast<double>(base.reference_latencies_s.size());
  m["throughput_qps"] = static_cast<double>(base.completed) / base.wall_s;
  m["max_rate_qps"] = MaxRate(base);
  m["mutate_p50_ms"] = 1e3 * Median(base.mutate_s);
  m["mutate_samples"] = static_cast<double>(base.mutate_s.size());
  double service_cpu_s = 0;
  for (const RungResult& r : base.rungs) service_cpu_s += r.service_cpu_s;
  m["cpu_ms_per_query"] =
      1e3 * Ratio(service_cpu_s, static_cast<double>(base.completed));
  if (!args.trace) return Status::OK();

  std::vector<double> exec_s, queue_s, lag_s;
  double submit_s = 0, batch_sum = 0;
  uint64_t answered = 0, cache_hits = 0, store_hits = 0;
  for (const auto& req : traced.requests) {
    if (!req->admitted) continue;
    answered++;
    exec_s.push_back(req->exec_wall_s);
    queue_s.push_back(req->queue_wait_s);
    lag_s.push_back(Seconds(req->due, req->call));
    submit_s += Seconds(req->call, req->returned);
    batch_sum += static_cast<double>(req->batch_size);
    cache_hits += req->result_cache_hit ? 1 : 0;
    store_hits += req->store_hit ? 1 : 0;
  }
  double n = static_cast<double>(answered);
  m["svc.submit_ms"] = 1e3 * Ratio(submit_s, n);
  m["svc.exec_p50_ms"] = 1e3 * Quantile(exec_s, 0.5);
  m["svc.result_cache_hit_ratio"] = Ratio(static_cast<double>(cache_hits), n);
  m["svc.plan_cache_hit_ratio"] = Ratio(
      static_cast<double>(c2.plan_hits - c1.plan_hits),
      static_cast<double>(c2.plan_hits - c1.plan_hits + c2.plan_misses -
                          c1.plan_misses));
  m["svc.store_hit_ratio"] = Ratio(static_cast<double>(store_hits), n);
  m["svc.queue_p90_ms"] = 1e3 * Quantile(queue_s, 0.9);
  m["svc.batch_mean"] = Ratio(batch_sum, n);
  m["svc.demand_sim_s"] = c2.demand_sim_s - c1.demand_sim_s;
  m["store.ivm_patch_ratio"] =
      Ratio(static_cast<double>(c2.patched - c1.patched),
            static_cast<double>(c2.patched - c1.patched + c2.recomputed -
                                c1.recomputed));
  m["svc.generator_lag_ms"] = 1e3 * Quantile(lag_s, 0.9);

  std::map<std::string, SpanTotals> totals = tracer->Totals();
  const SpanTotals& q = totals["serve.request"];
  m["trace.child_coverage"] = Ratio(q.total_s - q.self_s, q.total_s);
  double p50_base = Quantile(base.reference_latencies_s, 0.5);
  double p50_traced = Quantile(traced.reference_latencies_s, 0.5);
  m["trace.overhead_pct"] =
      p50_base > 0 ? 100.0 * (p50_traced / p50_base - 1.0) : 0;
  return Status::OK();
}

}  // namespace rapida::perfbench
