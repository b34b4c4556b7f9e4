#include "setup.h"

#include <cstdio>
#include <vector>

#include "workload/bsbm.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace rapida::perfbench {

rdf::Graph GenerateGraph(const std::string& name, uint64_t seed, int size) {
  if (name == "bsbm") {
    workload::BsbmConfig cfg;
    if (size > 0) cfg.num_products = size;
    cfg.seed = seed;
    return workload::GenerateBsbm(cfg);
  }
  if (name == "chem") {
    workload::ChemConfig cfg;
    cfg.seed = seed;
    return workload::GenerateChem2Bio(cfg);
  }
  workload::PubmedConfig cfg;
  if (size > 0) cfg.num_publications = size;
  cfg.seed = seed;
  return workload::GeneratePubmed(cfg);
}

StatusOr<std::unique_ptr<engine::Dataset>> BuildDataset(
    const char* name, uint64_t seed, int size, Tracer* tracer, int span,
    int repetition, SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  auto dataset =
      std::make_unique<engine::Dataset>(GenerateGraph(name, seed, size));
  Clock::time_point t1 = Clock::now();
  RAPIDA_RETURN_IF_ERROR(dataset->EnsureVpTables());
  Clock::time_point t2 = Clock::now();
  RAPIDA_RETURN_IF_ERROR(dataset->EnsureTripleGroups());
  Clock::time_point t3 = Clock::now();
  tracer->Add("setup.generate", t0, t1, span, repetition, name);
  tracer->Add("setup.vp_build", t1, t2, span, repetition, name);
  tracer->Add("setup.tg_build", t2, t3, span, repetition, name);
  times->generate_s += Seconds(t0, t1);
  times->vp_build_s += Seconds(t1, t2);
  times->tg_build_s += Seconds(t2, t3);
  return dataset;
}

Status RepeatSetup(
    Tracer* tracer, const std::function<void()>& reset,
    const std::function<Status(int span, int repetition, SetupTimes*)>& setup,
    Report* report) {
  std::vector<double> total_s, generate_s, vp_build_s, tg_build_s;
  for (int i = 0; i < kSetups; ++i) {
    reset();
    SetupTimes times;
    Clock::time_point start = Clock::now();
    int span = tracer->Begin("setup", -1, static_cast<uint64_t>(i));
    RAPIDA_RETURN_IF_ERROR(setup(span, i, &times));
    tracer->End(span);
    total_s.push_back(Seconds(start, Clock::now()));
    generate_s.push_back(times.generate_s);
    vp_build_s.push_back(times.vp_build_s);
    tg_build_s.push_back(times.tg_build_s);
  }
  std::printf("set-ups: %d, wall s", kSetups);
  for (double s : total_s) std::printf(" %.4f", s);
  std::printf("\n");
  report->metrics["setup_s"] = Median(total_s);
  report->metrics["setup.generate_s"] = Median(generate_s);
  report->metrics["setup.vp_build_s"] = Median(vp_build_s);
  report->metrics["setup.tg_build_s"] = Median(tg_build_s);
  return Status::OK();
}

}  // namespace rapida::perfbench
