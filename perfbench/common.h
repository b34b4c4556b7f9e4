// Shared pieces of the end-to-end benchmark: command-line options, the
// report a workload fills, sample statistics, process counters and result
// hashing.
#ifndef RAPIDA_PERFBENCH_COMMON_H_
#define RAPIDA_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "rdf/dictionary.h"

namespace rapida::perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics from spans instead of end-to-end ones.
  bool trace = false;
  /// Directory for the run's own files (service store, span dump).
  std::string scratch_dir = ".";
  /// Corrupts one checked answer, to prove the check fails the run.
  bool inject_wrong_answer = false;
  /// Recorded with the result only.
  std::string source_rev = "unknown";
};

/// What one workload run reports. `failed` counts errors, typed rejections
/// and wrong answers alike; `wrong` is the wrong-answer part. `metrics` is
/// keyed by metric name (main.cc owns the units and print order): the
/// end-to-end figures on every run, the per-layer ones on a traced run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::map<std::string, double> metrics;
};

/// Linear-interpolated quantile (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Process high-water resident set size, MiB.
double PeakRssMb();
/// CPU seconds used by every thread of the process so far.
double ProcessCpuSeconds();
/// CPU seconds used by the calling thread so far.
double ThreadCpuSeconds();

/// FNV-1a over the sorted rendered rows: equal iff the result multisets
/// render identically.
uint64_t HashRows(const std::vector<std::string>& sorted_rows);
uint64_t HashResult(const analytics::BindingTable& table,
                    const rdf::Dictionary& dict);

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace rapida::perfbench

#endif  // RAPIDA_PERFBENCH_COMMON_H_
