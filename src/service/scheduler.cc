#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace rapida::service {

JobScheduler::JobScheduler(const mr::ClusterConfig& cluster_config)
    : map_slots_(cluster_config.map_slots()) {}

int JobScheduler::OpenSession(std::string name, double weight) {
  RAPIDA_CHECK(weight > 0) << "session weight must be positive";
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats s;
  s.name = std::move(name);
  s.weight = weight;
  sessions_.push_back(std::move(s));
  return static_cast<int>(sessions_.size()) - 1;
}

double JobScheduler::ScheduleLocked(size_t s, double demand) {
  // Fluid GPS over simulated time. The session's work starts at its own
  // clock (its jobs are sequential) and progresses at rate
  // w_s / Σ{w_o : session o still busy}. Other sessions' busy_until
  // instants partition the timeline into intervals of constant rate;
  // integrate demand across them.
  SessionStats& self = sessions_[s];
  double t = self.busy_until_sim_s;
  double remaining = demand;

  while (remaining > 1e-12) {
    double active_weight = self.weight;
    double next_boundary = std::numeric_limits<double>::infinity();
    for (size_t o = 0; o < sessions_.size(); ++o) {
      if (o == s) continue;
      if (sessions_[o].busy_until_sim_s > t) {
        active_weight += sessions_[o].weight;
        next_boundary = std::min(next_boundary, sessions_[o].busy_until_sim_s);
      }
    }
    double rate = self.weight / active_weight;  // fraction of the cluster
    if (!std::isfinite(next_boundary)) {
      t += remaining / rate;
      remaining = 0;
      break;
    }
    double interval = next_boundary - t;
    double progress = interval * rate;
    if (progress >= remaining) {
      t += remaining / rate;
      remaining = 0;
    } else {
      remaining -= progress;
      t = next_boundary;
    }
  }

  double scheduled = t - self.busy_until_sim_s;
  self.busy_until_sim_s = t;
  return scheduled;
}

void JobScheduler::Account(int session, mr::JobStats* stats) {
  RAPIDA_CHECK(stats != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDA_CHECK(session >= 0 &&
               static_cast<size_t>(session) < sessions_.size())
      << "unknown session " << session;
  SessionStats& self = sessions_[static_cast<size_t>(session)];
  double demand = stats->sim_seconds;
  double scheduled = ScheduleLocked(static_cast<size_t>(session), demand);
  stats->sched_sim_seconds = scheduled;
  stats->sched_stretch = demand > 0 ? scheduled / demand : 1.0;
  self.jobs++;
  self.demand_sim_s += demand;
  self.charged_sim_s += scheduled;
  // The cost model already caps a job's parallelism at the slot count, so
  // solo duration × slots bounds the slot·seconds it occupied.
  self.slot_seconds += demand * map_slots_;
}

double JobScheduler::AccountCost(int session, double sim_seconds,
                                 double slot_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDA_CHECK(session >= 0 &&
               static_cast<size_t>(session) < sessions_.size())
      << "unknown session " << session;
  SessionStats& self = sessions_[static_cast<size_t>(session)];
  double scheduled = ScheduleLocked(static_cast<size_t>(session), sim_seconds);
  self.jobs++;
  self.demand_sim_s += sim_seconds;
  self.charged_sim_s += scheduled;
  self.slot_seconds += slot_seconds;
  return scheduled;
}

JobScheduler::SessionStats JobScheduler::Stats(int session) const {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDA_CHECK(session >= 0 &&
               static_cast<size_t>(session) < sessions_.size())
      << "unknown session " << session;
  return sessions_[static_cast<size_t>(session)];
}

int JobScheduler::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

std::vector<JobScheduler::SessionStats> JobScheduler::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_;
}

double JobScheduler::TotalDemandSimSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const SessionStats& s : sessions_) total += s.demand_sim_s;
  return total;
}

}  // namespace rapida::service
