// Set-up shared by the workloads: generating a dataset and building its
// layouts, and repeating a workload's whole set-up so that setup_s is a
// statistic over several builds rather than one.
#ifndef RAPIDA_PERFBENCH_SETUP_H_
#define RAPIDA_PERFBENCH_SETUP_H_

#include <functional>
#include <memory>
#include <string>

#include "common.h"
#include "engines/dataset.h"
#include "rdf/graph.h"
#include "trace.h"
#include "util/status.h"

namespace rapida::perfbench {

/// Set-ups per run, all before timing; setup_s is their median.
constexpr int kSetups = 5;

/// Wall time of the layout phases of one set-up, summed over its datasets.
struct SetupTimes {
  double generate_s = 0;
  double vp_build_s = 0;
  double tg_build_s = 0;
};

/// Generates "bsbm", "chem" or "pubmed" with `seed`. `size` > 0 sets the
/// main size knob (BSBM products, PubMed publications); 0 keeps the
/// generator's default size.
rdf::Graph GenerateGraph(const std::string& name, uint64_t seed, int size);

/// Generates a dataset and builds its VP and triplegroup layouts, adding
/// each phase's time to `times` and a `setup.generate` / `setup.vp_build` /
/// `setup.tg_build` span (detail = dataset) under `span`. `name` must
/// outlive the tracer (a string literal).
StatusOr<std::unique_ptr<engine::Dataset>> BuildDataset(
    const char* name, uint64_t seed, int size, Tracer* tracer,
    int span, int repetition, SetupTimes* times);

/// Builds a workload's state kSetups times: `reset` drops the previous
/// state (untimed), `setup(span, repetition, times)` builds it from scratch
/// inside a `setup` span; the last state built is the one the run keeps.
/// Reports setup_s (the median wall time) and the medians of the layout
/// phases.
Status RepeatSetup(
    Tracer* tracer, const std::function<void()>& reset,
    const std::function<Status(int span, int repetition, SetupTimes*)>& setup,
    Report* report);

}  // namespace rapida::perfbench

#endif  // RAPIDA_PERFBENCH_SETUP_H_
