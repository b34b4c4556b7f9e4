#ifndef RAPIDA_PERFBENCH_WORKLOADS_H_
#define RAPIDA_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"
#include "util/status.h"

namespace rapida::perfbench {

/// bsbm-mg and pubmed-mv: the paper's multi-grouping mixes run closed loop
/// by one client through parse -> analyze -> plan -> execute, every answer
/// checked against the reference evaluator.
bool IsBatchWorkload(const std::string& name);
Status RunBatchWorkload(const Args& args, Tracer* tracer, Report* report);

/// serve-rw: the query service under an open-loop read ladder with a
/// periodic writer, every answer checked against direct execution at a
/// dataset version inside the request's lifetime.
Status RunServeWorkload(const Args& args, Tracer* tracer, Report* report);

}  // namespace rapida::perfbench

#endif  // RAPIDA_PERFBENCH_WORKLOADS_H_
