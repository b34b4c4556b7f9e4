#include "trace.h"

#include <cstdio>
#include <cstring>

namespace rapida::perfbench {

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::Now() const { return Ns(Clock::now()); }

int Tracer::Begin(const char* name, int parent, uint64_t request,
                  const char* detail) {
  if (!enabled_) return -1;
  int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, detail, now, -1, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int Tracer::Add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent, uint64_t request,
                const char* detail) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, detail, Ns(start), Ns(end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                  1e-9;
    for (int keyed = 0; keyed < 2; ++keyed) {
      if (keyed == 1 && *s.detail == '\0') break;
      std::string key =
          keyed == 0 ? s.name : std::string(s.name) + "/" + s.detail;
      SpanTotals& t = totals[key];
      t.total_s += dur;
      t.self_s += self;
      t.count++;
    }
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"detail\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}\n",
                 i, s.name, s.detail, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void JobSpanObserver::CloseOpen() {
  tracer_->End(phase_);
  tracer_->End(job_);
  phase_ = job_ = -1;
}

Status JobSpanObserver::OnPhase(const std::string& job_name,
                                const char* phase) {
  (void)job_name;
  if (std::strcmp(phase, "setup") == 0) {
    CloseOpen();
    cpu_at_start_ = ProcessCpuSeconds();
    wall_at_start_ = Clock::now();
    job_ = tracer_->Begin("mr.job", parent_, request_);
    phase_ = tracer_->Begin("mr.map", job_, request_);
  } else if (std::strcmp(phase, "reduce") == 0) {
    tracer_->End(phase_);
    phase_ = tracer_->Begin("mr.reduce", job_, request_);
  }
  return Status::OK();
}

void JobSpanObserver::OnJobComplete(mr::JobStats* stats) {
  (void)stats;
  CloseOpen();
  job_cpu_s_ += ProcessCpuSeconds() - cpu_at_start_;
  job_wall_s_ += Seconds(wall_at_start_, Clock::now());
}

}  // namespace rapida::perfbench
