// rapida_perfbench — the repository benchmark. Runs one workload, checks
// every answer, prints a report and, as its last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with every metric the run measured: the end-to-end ones, plus the
// per-layer ones with --trace 1 (run.py picks BENCHMARK.json's list from
// it). Exit code 0 only when every answer was right and nothing failed.
// See README.md for the workloads and metrics.
//
// Usage:
//   rapida_perfbench --workload bsbm-mg|pubmed-mv|serve-rw [--seed N]
//       [--seconds S] [--trace 0|1] [--scratch-dir DIR]
//       [--source-rev REV] [--inject-wrong-answer]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "setup.h"
#include "trace.h"
#include "workloads.h"

namespace rapida::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every metric a run can report, in print order: end-to-end, then
/// per-layer (traced runs only). A per-layer metric of a layer the workload
/// does not call is not reported.
constexpr MetricDef kMetrics[] = {
    {"sim_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"latency_samples", "count"},
    {"throughput_qps", "1/s"},
    {"cpu_ms_per_query", "ms"},
    {"max_rate_qps", "1/s"},
    {"mutate_p50_ms", "ms"},
    {"mutate_samples", "count"},
    {"fail_ratio", "ratio"},
    {"setup.generate_s", "s"},
    {"setup.vp_build_s", "s"},
    {"setup.tg_build_s", "s"},
    {"sparql.parse_ms", "ms"},
    {"analytics.analyze_ms", "ms"},
    {"plan.plan_ms", "ms"},
    {"exec.self_ms", "ms"},
    {"engine.hive_naive_ms", "ms"},
    {"engine.hive_mqo_ms", "ms"},
    {"engine.rapid_plus_ms", "ms"},
    {"engine.rapid_analytics_ms", "ms"},
    {"mr.map_ms", "ms"},
    {"mr.reduce_ms", "ms"},
    {"mr.cpu_util", "ratio"},
    {"mr.jobs", "count"},
    {"mr.job_ms", "ms"},
    {"mr.input_mb", "MB"},
    {"mr.combine_ratio", "ratio"},
    {"mr.shuffle_mb", "MB"},
    {"mr.output_mb", "MB"},
    {"mr.peak_dfs_mb", "MB"},
    {"mr.factorization_factor", "ratio"},
    {"mr.shuffle_cross_mb", "MB"},
    {"svc.submit_ms", "ms"},
    {"svc.exec_p50_ms", "ms"},
    {"svc.result_cache_hit_ratio", "ratio"},
    {"svc.plan_cache_hit_ratio", "ratio"},
    {"svc.store_hit_ratio", "ratio"},
    {"svc.queue_p90_ms", "ms"},
    {"svc.batch_mean", "count"},
    {"svc.demand_sim_s", "s"},
    {"store.ivm_patch_ratio", "ratio"},
    {"svc.generator_lag_ms", "ms"},
    {"trace.child_coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bsbm-mg|pubmed-mv|serve-rw [--seed N] "
               "[--seconds S] [--trace 0|1] [--scratch-dir DIR] "
               "[--source-rev REV] [--inject-wrong-answer]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      args->inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch-dir") {
      args->scratch_dir = value;
    } else if (flag == "--source-rev") {
      args->source_rev = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Writes the traced run's spans as JSON lines under the scratch dir.
Status WriteSpans(const Args& args, const Tracer& tracer) {
  std::string path = args.scratch_dir + "/spans-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".jsonl";
  char header[512];
  std::snprintf(header, sizeof(header),
                "{\"workload\":\"%s\",\"seed\":%llu,\"source_rev\":\"%s\","
                "\"host_cores\":%u}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.source_rev.c_str(), std::thread::hardware_concurrency());
  if (!tracer.WriteJsonl(path, header)) {
    return Status::Internal("cannot write " + path);
  }
  std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace rapida::perfbench

int main(int argc, char** argv) {
  using namespace rapida::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "setups=%d host_cores=%u source_rev=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kSetups,
              std::thread::hardware_concurrency(), args.source_rev.c_str());
  std::fflush(stdout);

  // Spans of the traced run; disabled (recording nothing) otherwise.
  Tracer tracer(args.trace);
  Report report;
  rapida::Status st;
  if (IsBatchWorkload(args.workload)) {
    st = RunBatchWorkload(args, &tracer, &report);
  } else if (args.workload == "serve-rw") {
    st = RunServeWorkload(args, &tracer, &report);
  } else {
    return Usage(argv[0]);
  }
  if (st.ok() && args.trace) st = WriteSpans(args, tracer);
  if (!st.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n", st.ToString().c_str());
    return 2;
  }

  report.metrics["fail_ratio"] =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::string json;
  size_t printed = 0;
  for (const MetricDef& def : kMetrics) {
    auto it = report.metrics.find(def.name);
    if (it == report.metrics.end()) continue;
    printed++;
    std::printf("metric %-28s %16.6f %s\n", def.name, it->second, def.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", def.name, it->second, def.unit);
    json += buf;
  }
  if (printed != report.metrics.size()) {
    std::fprintf(stderr, "benchmark failed: a metric has no unit\n");
    return 2;
  }
  bool correct = report.failed == 0;
  std::printf("answers: %llu attempted, %llu failed (%llu wrong)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.wrong));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return correct ? 0 : 1;
}
