// bsbm-mg (Fig. 8b: MG1-MG4 on BSBM-large, unsharded, batch kernels) and
// pubmed-mv (Table 4 plus MG13F on PubMed, 4-shard data plane, scalar maps):
// every (query, engine) cell of the mix runs closed loop from one client,
// timed from SPARQL text to BindingTable.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "setup.h"
#include "sparql/parser.h"
#include "trace.h"
#include "workload/catalog.h"
#include "workloads.h"

namespace rapida::perfbench {
namespace {

constexpr int kExecThreads = 4;
constexpr const char* kEngines[] = {"Hive (Naive)", "Hive (MQO)",
                                    "RAPID+ (Naive)", "RAPIDAnalytics"};
constexpr const char* kEngineMetric[] = {
    "engine.hive_naive_ms", "engine.hive_mqo_ms", "engine.rapid_plus_ms",
    "engine.rapid_analytics_ms"};

struct BatchSpec {
  const char* dataset = "";
  int size = 0;  // BSBM products / PubMed publications
  std::vector<std::string> query_ids;
  int num_nodes = 0;
  double target_gb = 0;  // modelled dataset size the cost model scales to
  int shards = 0;
};

BatchSpec SpecFor(const std::string& workload) {
  BatchSpec spec;
  if (workload == "bsbm-mg") {
    spec.dataset = "bsbm";
    spec.size = 8000;  // the fig8b "large" sample
    spec.query_ids = {"MG1", "MG2", "MG3", "MG4"};
    spec.num_nodes = 50;
    spec.target_gb = 172.0;  // BSBM-2M
  } else {
    spec.dataset = "pubmed";
    spec.size = 1500;  // the Table 4 sample
    for (const std::string& id : workload::QueriesForDataset("pubmed")) {
      if (id.rfind("MG", 0) == 0) spec.query_ids.push_back(id);
    }
    spec.num_nodes = 60;
    spec.target_gb = 230.0;
    spec.shards = 4;
  }
  return spec;
}

/// One (query, engine) cell of the mix.
struct Cell {
  std::string query_id;
  std::string text;
  int engine = 0;  // index into kEngines
};

/// A dataset with its layouts built and a warmed cluster over it (declared
/// before the cluster, which borrows its Dfs).
struct Env {
  std::unique_ptr<engine::Dataset> dataset;
  std::unique_ptr<mr::Cluster> cluster;
  engine::EngineOptions options;
};

/// Text -> BindingTable through the four public entry points, one span
/// each under the `query` span.
StatusOr<analytics::BindingTable> RunCell(Env* env, const Cell& cell,
                                          Tracer* tracer,
                                          JobSpanObserver* observer,
                                          int query_span, uint64_t request,
                                          engine::ExecStats* stats) {
  std::unique_ptr<sparql::SelectQuery> parsed;
  {
    ScopedSpan span(tracer, "sparql.parse", query_span, request);
    RAPIDA_ASSIGN_OR_RETURN(parsed, sparql::ParseQuery(cell.text));
  }
  StatusOr<analytics::AnalyticalQuery> query = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "analytics.analyze", query_span, request);
    query = analytics::AnalyzeQuery(*parsed);
  }
  RAPIDA_RETURN_IF_ERROR(query.status());
  StatusOr<plan::PhysicalPlan> plan = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "plan.plan", query_span, request);
    plan = plan::PlanForEngine(kEngines[cell.engine], *query,
                               env->dataset.get(), env->options);
  }
  RAPIDA_RETURN_IF_ERROR(plan.status());
  env->dataset->dfs().ResetPeak();
  ScopedSpan span(tracer, "exec.run", query_span, request,
                  kEngines[cell.engine]);
  if (observer != nullptr) observer->SetParent(span.id(), request);
  StatusOr<analytics::BindingTable> result = plan::RunPlanAsEngine(
      *plan, env->dataset.get(), env->cluster.get(), env->options, stats);
  if (observer != nullptr) observer->CloseOpen();
  return result;
}

/// Totals of one timed loop.
struct LoopStats {
  std::vector<double> latencies_s;
  /// Mean process CPU time (all threads) of one execution, one value per
  /// pass.
  std::vector<double> pass_cpu_s;
  /// Result hash -> executions that returned it, per cell; checked against
  /// the reference answers after the loop.
  std::vector<std::map<uint64_t, uint64_t>> answers;
  double wall_s = 0;
  uint64_t executions = 0;
  uint64_t errors = 0;
  int passes = 0;
  double pass_sim_s = 0;     // simulated seconds of the first full pass
  bool sim_repeats = true;   // every pass summed to the same sim seconds
  mr::JobStats counters;     // byte / record counters summed over jobs
  uint64_t jobs = 0;
  uint64_t max_peak_dfs = 0;
};

void AddCounters(const mr::WorkflowStats& wf, LoopStats* loop) {
  for (const mr::JobStats& j : wf.jobs) {
    mr::JobStats& c = loop->counters;
    c.input_bytes += j.input_bytes;
    c.map_output_records += j.map_output_records;
    c.shuffle_records += j.shuffle_records;
    c.shuffle_bytes += j.shuffle_bytes;
    c.shuffle_cross_bytes += j.shuffle_cross_bytes;
    c.output_bytes += j.output_bytes;
    c.factorized_groups += j.factorized_groups;
    c.factorized_flat_rows += j.factorized_flat_rows;
    loop->jobs++;
  }
}

/// Runs whole passes of the mix until `seconds` have elapsed, keeping each
/// answer's hash for the check after the loop.
LoopStats RunLoop(Env* env, const std::vector<Cell>& cells, double seconds,
                  Tracer* tracer, JobSpanObserver* observer,
                  bool inject_wrong_answer, uint64_t* next_request) {
  LoopStats loop;
  loop.answers.resize(cells.size());
  env->cluster->SetObserver(observer);
  Clock::time_point start = Clock::now();
  do {
    double pass_sim = 0;
    double pass_cpu = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      uint64_t request = (*next_request)++;
      engine::ExecStats stats;
      double cpu0 = ProcessCpuSeconds();
      Clock::time_point t0 = Clock::now();
      int query_span = tracer->Begin("query", -1, request,
                                     cell.query_id.c_str());
      StatusOr<analytics::BindingTable> result = RunCell(
          env, cell, tracer, observer, query_span, request, &stats);
      tracer->End(query_span);
      Clock::time_point t1 = Clock::now();
      pass_cpu += ProcessCpuSeconds() - cpu0;
      loop.executions++;
      if (!result.ok()) {
        loop.errors++;
        std::fprintf(stderr, "error: %s on %s: %s\n", cell.query_id.c_str(),
                     kEngines[cell.engine],
                     result.status().ToString().c_str());
        continue;
      }
      loop.latencies_s.push_back(Seconds(t0, t1));
      pass_sim += stats.workflow.TotalSimSeconds();
      AddCounters(stats.workflow, &loop);
      loop.max_peak_dfs =
          std::max(loop.max_peak_dfs, env->dataset->dfs().PeakStoredBytes());
      uint64_t hash = HashResult(*result, env->dataset->dict());
      if (inject_wrong_answer && loop.executions == 1) hash ^= 1;
      loop.answers[i][hash]++;
    }
    loop.pass_cpu_s.push_back(pass_cpu / static_cast<double>(cells.size()));
    if (loop.passes == 0) {
      loop.pass_sim_s = pass_sim;
    } else if (pass_sim != loop.pass_sim_s) {
      loop.sim_repeats = false;
    }
    loop.passes++;
  } while (Seconds(start, Clock::now()) < seconds);
  loop.wall_s = Seconds(start, Clock::now());
  env->cluster->SetObserver(nullptr);
  return loop;
}

/// One set-up: the dataset and its layouts, the cluster and its worker
/// pool, and a warm-up execution per engine.
Status Setup(const BatchSpec& spec, uint64_t seed,
             const std::vector<Cell>& cells, Tracer* tracer, int span,
             int repetition, Env* env, SetupTimes* times) {
  RAPIDA_ASSIGN_OR_RETURN(env->dataset,
                          BuildDataset(spec.dataset, seed, spec.size, tracer,
                                       span, repetition, times));
  mr::ClusterConfig cfg;
  cfg.num_nodes = spec.num_nodes;
  cfg.exec_threads = kExecThreads;
  cfg.num_shards = spec.shards;
  uint64_t sample_bytes = env->dataset->graph().EstimateSerializedBytes();
  if (sample_bytes > 0) {
    cfg.bytes_scale = spec.target_gb * 1024.0 * kMiB /
                      static_cast<double>(sample_bytes);
  }
  env->cluster = std::make_unique<mr::Cluster>(cfg, &env->dataset->dfs());
  // As in the fig8 / Table 4 benches: dimension tables stay broadcastable,
  // fact tables do not.
  env->options.map_join_threshold_bytes = 8 * 1024;
  env->options.num_shards = spec.shards;
  env->options.sharding_scheme = cfg.sharding;

  // Warm-up: one execution per engine creates the worker pool and touches
  // every engine's code path before anything is timed.
  Tracer off(false);
  for (size_t e = 0; e < std::size(kEngines); ++e) {
    engine::ExecStats stats;
    RAPIDA_RETURN_IF_ERROR(
        RunCell(env, cells[e], &off, nullptr, -1, 0, &stats).status());
  }
  return Status::OK();
}

/// Reference-evaluator answer hashes on the run's data, by query id.
StatusOr<std::map<std::string, uint64_t>> ReferenceHashes(
    const BatchSpec& spec, engine::Dataset* dataset) {
  std::map<std::string, uint64_t> expected;
  for (const std::string& id : spec.query_ids) {
    RAPIDA_ASSIGN_OR_RETURN(const workload::CatalogQuery* cq,
                            workload::FindQuery(id));
    RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<sparql::SelectQuery> parsed,
                            sparql::ParseQuery(cq->sparql));
    analytics::ReferenceEvaluator ref(&dataset->graph());
    RAPIDA_ASSIGN_OR_RETURN(analytics::BindingTable table,
                            ref.Evaluate(*parsed));
    expected[id] = HashResult(table, dataset->dict());
  }
  return expected;
}

/// Executions whose answer differs from the reference.
uint64_t CountWrong(const std::vector<Cell>& cells, const LoopStats& loop,
                    const std::map<std::string, uint64_t>& expected) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    for (const auto& [hash, count] : loop.answers[i]) {
      if (hash == expected.at(cells[i].query_id)) continue;
      wrong += count;
      std::fprintf(stderr, "wrong answer: %s on %s (%llu executions)\n",
                   cells[i].query_id.c_str(), kEngines[cells[i].engine],
                   static_cast<unsigned long long>(count));
    }
  }
  return wrong;
}

double PerPass(double v, int passes) {
  return passes > 0 ? v / passes : 0;
}

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return name == "bsbm-mg" || name == "pubmed-mv";
}

Status RunBatchWorkload(const Args& args, Tracer* tracer, Report* report) {
  const BatchSpec spec = SpecFor(args.workload);
  std::printf("%s: %s, %zu queries x %zu engines, exec_threads %d, "
              "shards %d\n",
              args.workload.c_str(), spec.dataset, spec.query_ids.size(),
              std::size(kEngines), kExecThreads, std::max(1, spec.shards));
  // Engine-major inside each query, so the warm-up's first four cells are
  // one query on every engine.
  std::vector<Cell> cells;
  for (const std::string& id : spec.query_ids) {
    RAPIDA_ASSIGN_OR_RETURN(const workload::CatalogQuery* cq,
                            workload::FindQuery(id));
    for (size_t e = 0; e < std::size(kEngines); ++e) {
      cells.push_back(Cell{id, cq->sparql, static_cast<int>(e)});
    }
  }

  Env env;
  RAPIDA_RETURN_IF_ERROR(RepeatSetup(
      tracer,
      [&] {
        env.cluster.reset();  // before the dataset whose Dfs it borrows
        env = Env();
      },
      [&](int span, int repetition, SetupTimes* times) {
        return Setup(spec, args.seed, cells, tracer, span, repetition, &env,
                     times);
      },
      report));

  // The traced run splits its time: an untraced half gives the baseline
  // the tracing overhead is measured against.
  uint64_t next_request = 0;
  Tracer untraced(false);
  double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<LoopStats> loops;
  loops.push_back(RunLoop(&env, cells, untraced_seconds, &untraced, nullptr,
                          args.inject_wrong_answer, &next_request));
  JobSpanObserver observer(tracer);
  if (args.trace) {
    loops.push_back(RunLoop(&env, cells, args.seconds - untraced_seconds,
                            tracer, &observer,
                            /*inject_wrong_answer=*/false, &next_request));
  }
  // Before the reference evaluator, whose flat binding tables would
  // otherwise set the high-water mark.
  const double peak_rss_mb = PeakRssMb();

  // Expected answers from the reference evaluator on the same data,
  // outside set-up and outside timing.
  Clock::time_point ref_start = Clock::now();
  RAPIDA_ASSIGN_OR_RETURN(auto expected,
                          ReferenceHashes(spec, env.dataset.get()));
  std::printf("reference answers: %zu queries in %.2f s\n", expected.size(),
              Seconds(ref_start, Clock::now()));
  for (size_t k = 0; k < loops.size(); ++k) {
    const LoopStats& loop = loops[k];
    uint64_t wrong = CountWrong(cells, loop, expected);
    report->attempted += loop.executions;
    report->failed += loop.errors + wrong;
    report->wrong += wrong;
    if (!loop.sim_repeats) {
      std::fprintf(stderr, "sim seconds differ between passes of the mix\n");
      report->failed++;
    }
    std::printf("%s: %d passes x %zu cells, %llu executions, "
                "%zu latency samples in %.2f s\n",
                k == 0 ? "timed loop" : "traced loop", loop.passes,
                cells.size(), static_cast<unsigned long long>(loop.executions),
                loop.latencies_s.size(), loop.wall_s);
  }

  const LoopStats& base = loops[0];
  double n = static_cast<double>(base.executions);
  std::map<std::string, double>& m = report->metrics;
  m["sim_s"] = base.pass_sim_s;
  m["peak_rss_mb"] = peak_rss_mb;
  m["latency_p50_ms"] = 1e3 * Quantile(base.latencies_s, 0.5);
  m["latency_p90_ms"] = 1e3 * Quantile(base.latencies_s, 0.9);
  m["latency_samples"] = static_cast<double>(base.latencies_s.size());
  m["throughput_qps"] = n / base.wall_s;
  m["cpu_ms_per_query"] = 1e3 * Median(base.pass_cpu_s);
  if (!args.trace) return Status::OK();

  const LoopStats& traced = loops[1];
  std::map<std::string, SpanTotals> totals = tracer->Totals();
  const int p = traced.passes;
  auto self_ms = [&](const std::string& name) {
    return 1e3 * PerPass(totals[name].self_s, p);
  };
  auto total_ms = [&](const std::string& name) {
    return 1e3 * PerPass(totals[name].total_s, p);
  };
  auto mb_per_pass = [&](uint64_t bytes) {
    return PerPass(static_cast<double>(bytes) / kMiB, p);
  };
  const mr::JobStats& c = traced.counters;
  m["sparql.parse_ms"] = self_ms("sparql.parse");
  m["analytics.analyze_ms"] = self_ms("analytics.analyze");
  m["plan.plan_ms"] = self_ms("plan.plan");
  m["exec.self_ms"] = self_ms("exec.run");
  for (size_t e = 0; e < std::size(kEngines); ++e) {
    m[kEngineMetric[e]] = total_ms(std::string("exec.run/") + kEngines[e]);
  }
  m["mr.map_ms"] = self_ms("mr.map");
  m["mr.reduce_ms"] = self_ms("mr.reduce");
  m["mr.cpu_util"] = Ratio(observer.job_cpu_s(),
                           observer.job_wall_s() * kExecThreads);
  m["mr.jobs"] = PerPass(static_cast<double>(traced.jobs), p);
  m["mr.job_ms"] = total_ms("mr.job");
  m["mr.input_mb"] = mb_per_pass(c.input_bytes);
  m["mr.combine_ratio"] = Ratio(static_cast<double>(c.shuffle_records),
                                static_cast<double>(c.map_output_records));
  m["mr.shuffle_mb"] = mb_per_pass(c.shuffle_bytes);
  m["mr.output_mb"] = mb_per_pass(c.output_bytes);
  m["mr.peak_dfs_mb"] = static_cast<double>(traced.max_peak_dfs) / kMiB;
  m["mr.factorization_factor"] =
      c.factorized_groups > 0
          ? static_cast<double>(c.factorized_flat_rows) /
                static_cast<double>(c.factorized_groups)
          : 1.0;
  m["mr.shuffle_cross_mb"] = mb_per_pass(c.shuffle_cross_bytes);

  const SpanTotals& q = totals["query"];
  m["trace.child_coverage"] = Ratio(q.total_s - q.self_s, q.total_s);
  double mean_base = base.wall_s / n;
  double mean_traced =
      traced.wall_s / static_cast<double>(traced.executions);
  m["trace.overhead_pct"] = 100.0 * (mean_traced / mean_base - 1.0);
  return Status::OK();
}

}  // namespace rapida::perfbench
