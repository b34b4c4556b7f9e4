#ifndef RAPIDA_SERVICE_SCHEDULER_H_
#define RAPIDA_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"

namespace rapida::service {

/// Weighted fair-share accounting of the simulated cluster across
/// concurrent sessions.
///
/// The execution substrate is exact but *simulated*: every MR job reports
/// the solo simulated duration the cost model derives from its counters.
/// When several sessions' jobs are in flight, each query no longer owns
/// all map/reduce slots — the scheduler extends the cost model with slot
/// contention by running a generalized-processor-sharing fluid model over
/// simulated time: while k weighted sessions have backlogged work, session
/// s progresses at rate w_s / Σw, so a job's scheduled duration stretches
/// by the inverse of its session's share instead of waiting behind entire
/// foreign queries (FIFO). That is the fairness property: a light query
/// competing with a heavy one pays a proportional slowdown, never the
/// heavy query's full latency.
///
/// All methods are thread-safe; accounting order is the arrival order of
/// completed jobs.
class JobScheduler {
 public:
  struct SessionStats {
    std::string name;
    double weight = 1.0;
    uint64_t jobs = 0;
    /// Simulated instant the session's accounted work finishes.
    double busy_until_sim_s = 0;
    /// Σ solo simulated seconds of the session's jobs (its raw demand).
    double demand_sim_s = 0;
    /// Σ contention-adjusted simulated seconds actually charged.
    double charged_sim_s = 0;
    /// Σ slot·seconds the session occupied (solo duration × parallel
    /// slots the cost model granted the job).
    double slot_seconds = 0;
  };

  explicit JobScheduler(const mr::ClusterConfig& cluster_config);

  /// Registers a session; heavier weights get proportionally larger slot
  /// shares under contention. Returns the session id.
  int OpenSession(std::string name, double weight = 1.0);

  /// Accounts one completed MR job of `session`: computes the scheduled
  /// (contention-stretched) duration, fills stats->sched_stretch /
  /// sched_sim_seconds, and advances the session's simulated clock.
  void Account(int session, mr::JobStats* stats);

  /// Accounts `sim_seconds` of raw demand without per-job counters (a
  /// session's share of a batched shared scan). Returns the scheduled
  /// duration charged.
  double AccountCost(int session, double sim_seconds, double slot_seconds);

  SessionStats Stats(int session) const;
  std::vector<SessionStats> AllStats() const;
  int num_sessions() const;

  /// Σ raw demand over all sessions (what a serial, share-nothing replay
  /// of the same jobs would cost in simulated time).
  double TotalDemandSimSeconds() const;

 private:
  /// GPS fluid model: processes `demand` simulated seconds of session `s`
  /// work starting at its clock, sharing capacity with every other
  /// session whose accounted work extends past that instant. Returns the
  /// scheduled duration. Caller holds mu_.
  double ScheduleLocked(size_t s, double demand);

  const int map_slots_;
  mutable std::mutex mu_;
  std::vector<SessionStats> sessions_;
};

}  // namespace rapida::service

#endif  // RAPIDA_SERVICE_SCHEDULER_H_
