// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the library's public entry points (and
// from the ClusterObserver hooks); nothing inside the library is touched.
// A disabled tracer records nothing, so the untraced run pays one branch
// per boundary.
#ifndef RAPIDA_PERFBENCH_TRACE_H_
#define RAPIDA_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "mapreduce/cluster.h"

namespace rapida::perfbench {

struct Span {
  const char* name = "";
  /// Optional static label (engine name, query id); "" when unused.
  const char* detail = "";
  int64_t start_ns = 0;  // since the tracer's origin
  int64_t end_ns = -1;   // -1 while open
  int parent = -1;       // index into the span list, -1 for a root
  uint64_t request = 0;
};

/// Per-name totals: inclusive duration, self time (duration minus the part
/// covered by child spans) and span count.
struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
  uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span at the current time; returns its id (-1 when disabled).
  int Begin(const char* name, int parent, uint64_t request,
            const char* detail = "");
  /// Closes span `id` at the current time (no-op for -1).
  void End(int id);
  /// Records a span whose bounds were measured elsewhere.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, uint64_t request, const char* detail = "");

  /// Totals keyed by span name, and keyed by "name/detail" for spans that
  /// carry a detail. Open spans are ignored.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON object per span plus a leading header line.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

  size_t size() const;

 private:
  int64_t Now() const;
  int64_t Ns(Clock::time_point t) const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, uint64_t request,
             const char* detail = "")
      : tracer_(tracer), id_(tracer->Begin(name, parent, request, detail)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Records mr.job / mr.map / mr.reduce spans from the cluster's observer
/// hooks: "setup" opens the job and its map phase, "reduce" (the map
/// barrier) switches to the reduce phase, OnJobComplete closes both. Also
/// accumulates process CPU time over each job for mr.cpu_util. Serves one
/// job at a time (the batch workloads drive the cluster from one thread).
class JobSpanObserver : public mr::ClusterObserver {
 public:
  explicit JobSpanObserver(Tracer* tracer) : tracer_(tracer) {}

  /// Parent span and request id for the jobs that follow.
  void SetParent(int parent, uint64_t request) {
    parent_ = parent;
    request_ = request;
  }
  /// Closes spans a failed job left open.
  void CloseOpen();

  Status OnPhase(const std::string& job_name, const char* phase) override;
  void OnJobComplete(mr::JobStats* stats) override;

  double job_cpu_s() const { return job_cpu_s_; }
  double job_wall_s() const { return job_wall_s_; }

 private:
  Tracer* tracer_;
  int parent_ = -1;
  uint64_t request_ = 0;
  int job_ = -1;
  int phase_ = -1;
  double cpu_at_start_ = 0;
  Clock::time_point wall_at_start_;
  double job_cpu_s_ = 0;
  double job_wall_s_ = 0;
};

}  // namespace rapida::perfbench

#endif  // RAPIDA_PERFBENCH_TRACE_H_
