#ifndef CITBENCH_COMMON_H_
#define CITBENCH_COMMON_H_

// Shared pieces of the repository benchmark program: command-line options,
// the per-run report, sample statistics, output digests, and the span log
// the traced run keeps in memory.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace citbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// Dense per-thread index (0 for the first thread that asks), used to tag
// spans and per-thread busy time.
int ThreadIndex();

// Pool thread count the benchmark runs at: min(nproc, 4), the default
// users get on a small host.
int BenchThreads();

// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 for none.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// FNV-1a 64 over exact bytes: equal digests across commits mean bitwise
// equal outputs.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void Add(double v) { Add(&v, sizeof v); }
  void Add(const std::vector<double>& v) {
    if (!v.empty()) Add(v.data(), v.size() * sizeof(double));
  }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline bool BitwiseEqual(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  Digest da, db;
  da.Add(a);
  db.Add(b);
  return da.Hex() == db.Hex();
}

// The result of one benchmark run: metrics in emission order plus the
// correctness tally and free-form facts (fingerprint, digests, checks).
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  // Records `n` failed operations and marks the run incorrect; each
  // distinct reason is kept once as a "failure" fact.
  void Fail(const std::string& why, int64_t n = 1);
};

std::string FormatDouble(double v);

// Runs `setup` `reps` times and returns the median wall time in seconds.
// Each repetition must fully rebuild what it sets up, so the last one's
// state is what the measurement then uses.
double MedianSetupSeconds(int reps, const std::function<void()>& setup);

// In-memory span log of the traced run. Each span carries its own id, its
// parent's id (0 = root), and the thread that recorded it. The log keeps
// at most `capacity` spans and counts the rest as dropped; metrics are
// accumulated separately, so a full log loses no metric.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    int thread;
  };

  explicit SpanLog(size_t capacity = 200000) : capacity_(capacity) {}

  uint64_t NewId();
  void Add(const char* name, uint64_t id, uint64_t parent, int64_t start_ns,
           int64_t end_ns);
  size_t size() const;
  uint64_t dropped() const;
  // Writes {"spans": [...], "dropped": n, "registry": <registry_json>}.
  bool WriteJson(const std::string& path,
                 const std::string& registry_json) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// Readers of the library's own obs::Registry instruments (created empty
// on first use, so a layer that never ran reads as zero).
inline uint64_t RegistryCount(const char* name) {
  return cit::obs::Registry::Global().GetCounter(name).Total();
}
inline cit::obs::Histogram::Snapshot RegistryHist(const char* name) {
  return cit::obs::Registry::Global().GetHistogram(name).Get();
}
// Sum of a microsecond histogram, in seconds.
inline double HistSeconds(const char* name) {
  return static_cast<double>(RegistryHist(name).sum) * 1e-6;
}

// Reconciliation check of a traced layer: the children's time must sum to
// within [min_frac, max_frac] of the parent's time.
struct Reconcile {
  std::string what;
  double children = 0.0;
  double parent = 0.0;
  double min_frac = 0.0;
  double max_frac = 1.0;
};
// Records each check as a fact and fails the report for any out of range.
void ApplyReconciliation(const std::vector<Reconcile>& checks, Report* r);

}  // namespace citbench

#endif  // CITBENCH_COMMON_H_
