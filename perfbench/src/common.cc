#include "common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

namespace citbench {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a run
  // started from a larger parent (python, a shell) would report its peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void Digest::Add(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Report::Fail(const std::string& why, int64_t n) {
  correct = false;
  failed += n;
  for (const auto& f : facts) {
    if (f.first == "failure" && f.second == why) return;
  }
  Fact("failure", why);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowS();
    setup();
    times.push_back(NowS() - t0);
  }
  return Median(times);
}

uint64_t SpanLog::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(const char* name, uint64_t id, uint64_t parent,
                  int64_t start_ns, int64_t end_ns) {
  const int thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, start_ns, end_ns, thread});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& registry_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"dropped\": %llu,\n \"registry\": %s,\n \"spans\": [\n",
               static_cast<unsigned long long>(dropped_),
               registry_json.empty() ? "{}" : registry_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"thread\": %d}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

void ApplyReconciliation(const std::vector<Reconcile>& checks, Report* r) {
  for (const Reconcile& c : checks) {
    const double frac = c.parent > 0.0 ? c.children / c.parent : 0.0;
    const bool ok = c.parent > 0.0 && frac >= c.min_frac && frac <= c.max_frac;
    r->Fact("reconcile." + c.what,
            FormatDouble(frac) + " in [" + FormatDouble(c.min_frac) + ", " +
                FormatDouble(c.max_frac) + "]" + (ok ? " ok" : " FAILED"));
    if (!ok) r->Fail("reconciliation failed: " + c.what);
  }
}

}  // namespace citbench
