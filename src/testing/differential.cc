#include "testing/differential.h"

#include <map>
#include <utility>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "plan/planner.h"
#include "service/query_service.h"
#include "testing/normalize.h"
#include "testing/query_gen.h"
#include "testing/vocab.h"
#include "util/random.h"

namespace rapida::difftest {

std::vector<TripleSpec> DecodeGraph(const rdf::Graph& graph) {
  std::vector<TripleSpec> out;
  out.reserve(graph.size());
  const rdf::Dictionary& dict = graph.dict();
  for (const rdf::Triple& t : graph.triples()) {
    out.push_back({dict.Get(t.s).ToTerm(), dict.Get(t.p).ToTerm(),
                   dict.Get(t.o).ToTerm()});
  }
  return out;
}

rdf::Graph BuildGraph(const std::vector<TripleSpec>& triples) {
  rdf::Graph g;
  for (const TripleSpec& t : triples) g.Add(t[0], t[1], t[2]);
  return g;
}

FuzzCase MakeFuzzCase(uint64_t seed) {
  return MakeFuzzCase(seed, GenOptions{});
}

FuzzCase MakeFuzzCase(uint64_t seed, const GenOptions& gen) {
  FuzzCase c;
  c.seed = seed;
  Random root(seed);
  const std::vector<VocabSchema>& schemas = AllSchemas();
  c.dataset = schemas[root.Uniform(schemas.size())].dataset;
  Random data_rng = root.Split(1);
  Random query_rng = root.Split(2);
  rdf::Graph graph = GenerateFuzzGraph(c.dataset, &data_rng, gen.multival);
  c.triples = DecodeGraph(graph);
  c.query = GenerateQuery(SchemaFor(c.dataset), &query_rng, gen);
  return c;
}

namespace {

/// Decorator that corrupts an inner engine's results — the "known bug" the
/// shrinker acceptance test and --inject mode must be able to catch.
class FaultyEngine : public engine::Engine {
 public:
  FaultyEngine(std::unique_ptr<engine::Engine> inner, FaultKind fault)
      : inner_(std::move(inner)), fault_(fault) {}

  std::string name() const override { return inner_->name(); }

  StatusOr<analytics::BindingTable> Execute(
      const analytics::AnalyticalQuery& query, engine::Dataset* dataset,
      mr::Cluster* cluster, engine::ExecStats* stats) override {
    StatusOr<analytics::BindingTable> result =
        inner_->Execute(query, dataset, cluster, stats);
    if (!result.ok() || result.value().NumRows() == 0) return result;
    analytics::BindingTable table = std::move(result).value();
    bool perturbed = false;
    if (fault_ == FaultKind::kPerturbAggregate) {
      for (rdf::TermId& cell : table.MutableRow(0)) {
        if (auto num = dataset->dict().AsNumber(cell)) {
          cell = dataset->dict().InternDouble(*num + 1);
          perturbed = true;
          break;
        }
      }
    }
    if (fault_ == FaultKind::kDropRow || !perturbed) {
      table.TruncateRows(table.NumRows() - 1);
    }
    return table;
  }

 private:
  std::unique_ptr<engine::Engine> inner_;
  FaultKind fault_;
};

DiffFailure Fail(std::string kind, std::string engine, int threads,
                 std::string detail) {
  DiffFailure f;
  f.failed = true;
  f.kind = std::move(kind);
  f.engine = std::move(engine);
  f.threads = threads;
  f.detail = std::move(detail);
  return f;
}

}  // namespace

std::string DiffFailure::ToString() const {
  if (!failed) return "ok";
  std::string out = kind;
  if (!engine.empty()) out += " [" + engine + "]";
  if (threads > 0) out += " (exec_threads=" + std::to_string(threads) + ")";
  if (!detail.empty()) out += ": " + detail;
  return out;
}

DiffFailure RunDifferential(const FuzzCase& c, const DiffOptions& opts) {
  StatusOr<analytics::AnalyticalQuery> analyzed =
      analytics::AnalyzeQuery(*c.query);
  if (!analyzed.ok()) {
    return Fail("analyze", "", 0, analyzed.status().ToString());
  }

  rdf::Graph ref_graph = BuildGraph(c.triples);
  analytics::ReferenceEvaluator reference(&ref_graph);
  StatusOr<analytics::BindingTable> ref_result = reference.Evaluate(*c.query);
  if (!ref_result.ok()) {
    return Fail("reference", "", 0, ref_result.status().ToString());
  }
  NormalizedTable expected =
      Normalize(ref_result.value(), ref_graph.dict());

  // engine name -> cycle count, to check cross-thread determinism and the
  // paper's cycle-count orderings once all runs are in.
  std::map<std::pair<std::string, int>, int> cycles;
  // Unsharded (engine, threads) baseline the sharded runs must match:
  // sharding changes placement and transport accounting, never the
  // workflow shape or the shuffled volume.
  struct Baseline {
    int cycles = 0;
    uint64_t shuffle_bytes = 0;
  };
  std::map<std::pair<std::string, int>, Baseline> baselines;

  // Run matrix: the legacy unsharded data plane first (it is the
  // reference the sharded runs are held to), then every requested shard
  // count.
  std::vector<int> shard_configs{0};
  for (int s : opts.shard_counts) {
    if (s > 1) shard_configs.push_back(s);  // <= 1 is the unsharded path
  }

  for (int threads : opts.thread_counts) {
    for (int shards : shard_configs) {
      const std::string config_tag =
          shards > 1 ? " [shards=" + std::to_string(shards) + "]" : "";
      engine::Dataset dataset(BuildGraph(c.triples));
      mr::ClusterConfig cfg;
      cfg.exec_threads = threads;
      cfg.exec_split_bytes = opts.exec_split_bytes;
      cfg.num_shards = shards;
      mr::Cluster cluster(cfg, &dataset.dfs());
      for (std::unique_ptr<engine::Engine>& eng :
           engine::MakeAllEngines(opts.engine_options)) {
        std::unique_ptr<engine::Engine> run = std::move(eng);
        if (opts.fault != FaultKind::kNone &&
            run->name() == opts.fault_engine) {
          run = std::make_unique<FaultyEngine>(std::move(run), opts.fault);
        }
        engine::ExecStats stats;
        StatusOr<analytics::BindingTable> result =
            run->Execute(analyzed.value(), &dataset, &cluster, &stats);
        if (!result.ok()) {
          return Fail("engine-error", run->name() + config_tag, threads,
                      result.status().ToString());
        }
        std::string diff =
            CompareNormalized(expected, Normalize(result.value(),
                                                  dataset.dict()));
        if (!diff.empty()) {
          return Fail("mismatch", run->name() + config_tag, threads, diff);
        }
        // Shuffle accounting must always reconcile: every shuffled byte
        // either stays on the shard it was emitted from or crosses to the
        // shard owning its key.
        for (const mr::JobStats& j : stats.workflow.jobs) {
          if (j.shuffle_local_bytes + j.shuffle_cross_bytes !=
              j.shuffle_bytes) {
            return Fail("shard-invariant", run->name() + config_tag, threads,
                        "job '" + j.name + "': local " +
                            std::to_string(j.shuffle_local_bytes) +
                            " + cross " +
                            std::to_string(j.shuffle_cross_bytes) +
                            " != shuffle " +
                            std::to_string(j.shuffle_bytes));
          }
        }
        if (shards <= 1) {
          cycles[{run->name(), threads}] = stats.workflow.NumCycles();
          baselines[{run->name(), threads}] =
              Baseline{stats.workflow.NumCycles(),
                       stats.workflow.TotalShuffleBytes()};
        } else {
          const Baseline& base = baselines[{run->name(), threads}];
          if (stats.workflow.NumCycles() != base.cycles ||
              stats.workflow.TotalShuffleBytes() != base.shuffle_bytes) {
            return Fail(
                "shard-invariant", run->name() + config_tag, threads,
                "sharded workflow diverged from unsharded baseline: " +
                    std::to_string(stats.workflow.NumCycles()) + " cycles/" +
                    std::to_string(stats.workflow.TotalShuffleBytes()) +
                    " shuffle bytes vs " + std::to_string(base.cycles) +
                    "/" + std::to_string(base.shuffle_bytes));
          }
        }

        // Plan-IR invariant: the physical plan the engine just ran
        // promises its estimated cycle count, and a successful execution
        // must spend exactly that many MR cycles. (Skipped for a
        // fault-wrapped engine — injected faults change the executed
        // workflow by design.)
        if (opts.fault == FaultKind::kNone ||
            run->name() != opts.fault_engine) {
          StatusOr<plan::PhysicalPlan> physical = plan::PlanForEngine(
              run->name(), analyzed.value(), &dataset, opts.engine_options);
          if (!physical.ok()) {
            return Fail("plan-cycles", run->name() + config_tag, threads,
                        "planner failed after successful execution: " +
                            physical.status().ToString());
          }
          if (physical->EstimatedCycles() != stats.workflow.NumCycles()) {
            return Fail("plan-cycles", run->name() + config_tag, threads,
                        "plan estimated " +
                            std::to_string(physical->EstimatedCycles()) +
                            " cycles, engine executed " +
                            std::to_string(stats.workflow.NumCycles()));
          }
        }
      }
    }
  }

  if (opts.check_cost_invariants) {
    for (size_t i = 1; i < opts.thread_counts.size(); ++i) {
      int t0 = opts.thread_counts[0];
      int ti = opts.thread_counts[i];
      for (const char* name : {"Hive (Naive)", "Hive (MQO)",
                               "RAPID+ (Naive)", "RAPIDAnalytics"}) {
        if (cycles[{name, t0}] != cycles[{name, ti}]) {
          return Fail("cost-invariant", name, ti,
                      "cycle count changed with exec_threads: " +
                          std::to_string(cycles[{name, t0}]) + " at " +
                          std::to_string(t0) + " threads vs " +
                          std::to_string(cycles[{name, ti}]));
        }
      }
    }
    int t = opts.thread_counts[0];
    if (cycles[{"RAPIDAnalytics", t}] > cycles[{"RAPID+ (Naive)", t}]) {
      return Fail("cost-invariant", "RAPIDAnalytics", t,
                  "took more MR cycles (" +
                      std::to_string(cycles[{"RAPIDAnalytics", t}]) +
                      ") than RAPID+ (" +
                      std::to_string(cycles[{"RAPID+ (Naive)", t}]) + ")");
    }
    // No Hive MQO-vs-naive cycle assertion: sharing scans can legitimately
    // add a materialization cycle on trivial queries; MQO's win is bytes
    // and work, not unconditionally fewer cycles.
  }
  return DiffFailure{};
}

DiffFailure RunServiceDifferential(const FuzzCase& c) {
  rdf::Graph ref_graph = BuildGraph(c.triples);
  analytics::ReferenceEvaluator reference(&ref_graph);
  StatusOr<analytics::BindingTable> ref_result = reference.Evaluate(*c.query);
  if (!ref_result.ok()) {
    return Fail("reference", "", 0, ref_result.status().ToString());
  }
  NormalizedTable expected = Normalize(ref_result.value(), ref_graph.dict());

  engine::Dataset dataset(BuildGraph(c.triples));
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.enable_batching = true;
  opts.batch_window_ms = 1;
  opts.cluster.exec_split_bytes = 4 * 1024;
  service::QueryService svc(opts);
  svc.RegisterDataset(c.dataset, &dataset);
  std::string text = c.query->ToString();

  // Burst: four sessions each submit the query twice, concurrently. The
  // service is free to dedup, batch, or serve from cache — every returned
  // table must still match the reference.
  std::vector<std::future<service::Response>> futures;
  for (int s = 0; s < 4; ++s) {
    int session = svc.OpenSession("fuzz" + std::to_string(s));
    for (int rep = 0; rep < 2; ++rep) {
      StatusOr<std::future<service::Response>> submitted =
          svc.Submit(session, service::QuerySpec{text, c.dataset});
      if (!submitted.ok()) {
        return Fail("service-admit", "", 0, submitted.status().ToString());
      }
      futures.push_back(std::move(*submitted));
    }
  }
  int i = 0;
  for (auto& f : futures) {
    service::Response r = f.get();
    if (!r.result.ok()) {
      return Fail("service-error", "QueryService", 0,
                  "burst query " + std::to_string(i) + ": " +
                      r.result.status().ToString());
    }
    std::string diff =
        CompareNormalized(expected, Normalize(*r.result, dataset.dict()));
    if (!diff.empty()) {
      return Fail("service-mismatch", "QueryService", 0,
                  "burst query " + std::to_string(i) + " (batch_size=" +
                      std::to_string(r.batch_size) +
                      ", cache_hit=" + (r.result_cache_hit ? "1" : "0") +
                      "): " + diff);
    }
    i++;
  }

  // Hot retry: must be a result-cache hit and still identical.
  int session = svc.OpenSession("fuzz-hot");
  service::Response hot =
      svc.Execute(session, service::QuerySpec{text, c.dataset});
  if (!hot.result.ok()) {
    return Fail("service-error", "QueryService", 0,
                "hot retry: " + hot.result.status().ToString());
  }
  std::string diff =
      CompareNormalized(expected, Normalize(*hot.result, dataset.dict()));
  if (!diff.empty()) {
    return Fail("service-mismatch", "QueryService", 0, "hot retry: " + diff);
  }
  if (!hot.result_cache_hit) {
    return Fail("service-cache", "QueryService", 0,
                "hot retry was not served from the result cache");
  }
  return DiffFailure{};
}

}  // namespace rapida::difftest
