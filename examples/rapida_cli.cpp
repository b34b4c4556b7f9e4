// rapida_cli — run SPARQL analytical queries from the command line.
//
// Usage:
//   rapida_cli [options]
//     --data FILE.nt|.ttl    load an N-Triples or Turtle file
//     --workload NAME        or generate a synthetic workload:
//                            bsbm | chem | pubmed
//     --scale N              workload size knob (bsbm products /
//                            chem assays / pubmed publications)
//     --engine NAME          reference (default) | ra | rapid+ | hive | mqo
//     --query FILE.rq        SPARQL query file ('-' = stdin)
//     --query-id ID          or a catalog query (G1..G9, MG1..MG18, AQ1,
//                            R1, R2)
//     --nodes N              simulated cluster size (default 10)
//     --list                 list catalog queries and exit
//     --explain              print the engine's physical plan (per-node
//                            cycle/byte estimates, pass log) and exit
//     --explain-json         the same plan as JSON
//     --plan                 each engine's estimated MR cycles, one
//                            line per cycle (dataset-free plans)
//     --trace                after running, print the executed MapReduce
//                            workflow breakdown
//
// Examples:
//   rapida_cli --workload bsbm --query-id MG3 --engine ra --explain
//   rapida_cli --data mydata.nt --query query.rq --engine hive
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "plan/planner.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace {

struct CliOptions {
  std::string data_file;
  std::string workload;
  int scale = 0;
  std::string engine = "reference";
  std::string query_file;
  std::string query_id;
  int nodes = 10;
  bool list = false;
  bool explain = false;
  bool explain_json = false;
  bool plan = false;
  bool trace = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--data FILE.nt | --workload bsbm|chem|pubmed "
               "[--scale N]) (--query FILE.rq | --query-id ID) "
               "[--engine reference|ra|rapid+|hive|mqo] [--nodes N] "
               "[--explain] [--explain-json] [--plan] [--trace] [--list]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (!v) return false;
      opts->data_file = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (!v) return false;
      opts->workload = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opts->scale = std::atoi(v);
    } else if (arg == "--engine") {
      const char* v = next();
      if (!v) return false;
      opts->engine = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (!v) return false;
      opts->query_file = v;
    } else if (arg == "--query-id") {
      const char* v = next();
      if (!v) return false;
      opts->query_id = v;
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      opts->nodes = std::atoi(v);
    } else if (arg == "--list") {
      opts->list = true;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if (arg == "--explain-json") {
      opts->explain_json = true;
    } else if (arg == "--plan") {
      opts->plan = true;
    } else if (arg == "--trace") {
      opts->trace = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

rapida::StatusOr<rapida::rdf::Graph> LoadGraph(const CliOptions& opts) {
  if (!opts.data_file.empty()) {
    std::ifstream in(opts.data_file);
    if (!in) {
      return rapida::Status::NotFound("cannot open " + opts.data_file);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    rapida::rdf::Graph g;
    bool turtle = opts.data_file.size() >= 4 &&
                  opts.data_file.substr(opts.data_file.size() - 4) == ".ttl";
    if (turtle) {
      RAPIDA_RETURN_IF_ERROR(rapida::rdf::ParseTurtle(buf.str(), &g));
    } else {
      RAPIDA_RETURN_IF_ERROR(rapida::rdf::ParseNTriples(buf.str(), &g));
    }
    return g;
  }
  if (opts.workload == "bsbm") {
    rapida::workload::BsbmConfig cfg;
    if (opts.scale > 0) cfg.num_products = opts.scale;
    return rapida::workload::GenerateBsbm(cfg);
  }
  if (opts.workload == "chem") {
    rapida::workload::ChemConfig cfg;
    if (opts.scale > 0) cfg.num_assays = opts.scale;
    return rapida::workload::GenerateChem2Bio(cfg);
  }
  if (opts.workload == "pubmed") {
    rapida::workload::PubmedConfig cfg;
    if (opts.scale > 0) cfg.num_publications = opts.scale;
    return rapida::workload::GeneratePubmed(cfg);
  }
  return rapida::Status::InvalidArgument(
      "give --data FILE.nt or --workload bsbm|chem|pubmed");
}

/// Display name for an --engine value; empty for "reference" or unknown.
std::string EngineName(const std::string& engine) {
  if (engine == "ra") return "RAPIDAnalytics";
  if (engine == "rapid+") return "RAPID+ (Naive)";
  if (engine == "hive") return "Hive (Naive)";
  if (engine == "mqo") return "Hive (MQO)";
  return "";
}

rapida::StatusOr<std::string> LoadQueryText(const CliOptions& opts) {
  if (!opts.query_id.empty()) {
    RAPIDA_ASSIGN_OR_RETURN(const rapida::workload::CatalogQuery* cq,
                            rapida::workload::FindQuery(opts.query_id));
    return cq->sparql;
  }
  if (opts.query_file == "-") {
    std::stringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  if (!opts.query_file.empty()) {
    std::ifstream in(opts.query_file);
    if (!in) {
      return rapida::Status::NotFound("cannot open " + opts.query_file);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  return rapida::Status::InvalidArgument(
      "give --query FILE.rq or --query-id ID");
}

int Run(const CliOptions& opts) {
  if (opts.list) {
    for (const auto& q : rapida::workload::Catalog()) {
      std::printf("%-6s %-8s %s\n", q.id.c_str(), q.dataset.c_str(),
                  q.description.c_str());
    }
    return 0;
  }

  auto graph = LoadGraph(opts);
  if (!graph.ok()) {
    std::fprintf(stderr, "data: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto query_text = LoadQueryText(opts);
  if (!query_text.ok()) {
    std::fprintf(stderr, "query: %s\n",
                 query_text.status().ToString().c_str());
    return 1;
  }
  auto parsed = rapida::sparql::ParseQuery(*query_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }

  if (opts.plan) {
    auto q = rapida::analytics::AnalyzeQuery(**parsed);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    // The dataset-free plan of each engine: its estimated cycle total and
    // one line per cycle (the node that runs it).
    for (const char* engine : {"Hive (Naive)", "Hive (MQO)",
                               "RAPID+ (Naive)", "RAPIDAnalytics"}) {
      auto physical = rapida::plan::PlanForEngine(
          engine, *q, /*dataset=*/nullptr, rapida::engine::EngineOptions());
      if (!physical.ok()) {
        std::printf("%s: %s\n\n", engine,
                    physical.status().ToString().c_str());
        continue;
      }
      std::printf("%s: %d MR cycles\n", engine,
                  physical->EstimatedCycles());
      int cycle = 0;
      for (const rapida::plan::PlanNode& n : physical->nodes) {
        for (int c = 0; c < n.est_cycles; ++c) {
          std::printf("  MR%d  %s\n", ++cycle, n.describe.c_str());
        }
      }
      std::printf("\n");
    }
    return 0;
  }

  if (opts.explain || opts.explain_json) {
    std::string engine_name = EngineName(opts.engine);
    if (engine_name.empty()) {
      std::fprintf(stderr,
                   "--explain requires --engine ra|rapid+|hive|mqo\n");
      return 2;
    }
    auto q = rapida::analytics::AnalyzeQuery(**parsed);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    rapida::engine::Dataset dataset(std::move(*graph));
    rapida::engine::EngineOptions eo;
    auto physical =
        rapida::plan::PlanForEngine(engine_name, *q, &dataset, eo);
    if (!physical.ok()) {
      // Composite construction failed: explain the engine's fallback
      // pipeline, exactly what Execute would run.
      if (engine_name == "Hive (MQO)") {
        physical = rapida::plan::PlanHiveNaive(*q, &dataset, eo);
      } else if (engine_name == "RAPIDAnalytics") {
        physical = rapida::plan::PlanRapidPlus(*q, &dataset, eo);
      }
      if (physical.ok()) physical->engine = engine_name;
    }
    if (!physical.ok()) {
      std::fprintf(stderr, "%s\n", physical.status().ToString().c_str());
      return 1;
    }
    if (opts.explain_json) {
      std::printf("%s\n", physical->ExplainJson().c_str());
    } else {
      std::printf("%s", physical->ExplainText().c_str());
    }
    return 0;
  }

  if (opts.engine == "reference") {
    rapida::analytics::ReferenceEvaluator ref(&*graph);
    auto result = ref.Evaluate(**parsed);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->ToString(graph->dict(), 50).c_str());
    return 0;
  }

  std::string engine_name = EngineName(opts.engine);
  if (engine_name.empty()) {
    std::fprintf(stderr, "unknown engine: %s\n", opts.engine.c_str());
    return 2;
  }

  auto query = rapida::analytics::AnalyzeQuery(**parsed);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  rapida::engine::Dataset dataset(std::move(*graph));
  rapida::mr::ClusterConfig cluster_cfg;
  cluster_cfg.num_nodes = opts.nodes;
  rapida::mr::Cluster cluster(cluster_cfg, &dataset.dfs());

  std::unique_ptr<rapida::engine::Engine> eng;
  for (auto& e : rapida::engine::MakeAllEngines()) {
    if (e->name() == engine_name) eng = std::move(e);
  }
  rapida::engine::ExecStats stats;
  auto result = eng->Execute(*query, &dataset, &cluster, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", result->ToString(dataset.dict(), 50).c_str());
  std::printf("\n[%s] %d MR cycles (%d map-only), %.1f simulated s, "
              "%.0f ms wall\n",
              engine_name.c_str(), stats.workflow.NumCycles(),
              stats.workflow.NumMapOnlyCycles(),
              stats.workflow.TotalSimSeconds(),
              stats.wall_seconds * 1000);
  if (opts.trace) {
    std::printf("\n%s", stats.workflow.ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage(argv[0]);
  return Run(opts);
}
