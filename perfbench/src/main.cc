// citbench — the repository benchmark program.
//
//   citbench --workload paper_run|sweep|serve --seed N --seconds S
//            --trace 0|1 [--out DIR] [--git-sha SHA] [--source-digest D]
//
// Prints one "fact"/"metric" line per item, then the result as a single
// JSON line {"correct", "attempted", "failed", "metrics"}, and writes the
// same report (plus, when traced, the span log with an obs::Registry
// snapshot) under --out. Exit code 0 means the run completed; correctness
// is carried by the JSON, not the exit code. perfbench/run.py builds this
// binary and is the entry point BENCHMARK.json names.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "common/thread_pool.h"
#include "math/kernels.h"
#include "obs/telemetry.h"
#include "workloads.h"

namespace {

using namespace citbench;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "citbench: %s\nusage: citbench --workload paper_run|sweep|"
               "serve --seed N --seconds S --trace 0|1 [--out DIR] "
               "[--git-sha SHA] [--source-digest D]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (flag == "--out") {
      o.out_dir = v;
    } else if (flag == "--git-sha") {
      o.git_sha = v;
    } else if (flag == "--source-digest") {
      o.source_digest = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(const Report& r) {
  std::string js = "{\"correct\": ";
  js += r.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Report::Metric& m = r.metrics[i];
    if (i > 0) js += ", ";
    js += JsonString(m.name) + ": {\"value\": " + FormatDouble(m.value) +
          ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return js + "}}";
}

std::string FactsJson(const Report& r) {
  std::string js = "{";
  for (size_t i = 0; i < r.facts.size(); ++i) {
    if (i > 0) js += ", ";
    js += JsonString(r.facts[i].first) + ": " + JsonString(r.facts[i].second);
  }
  return js + "}";
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);

  // The pool runs at min(nproc, 4) threads whatever the environment says;
  // a pool clamped below that is not a measurement of this configuration.
  const int requested = BenchThreads();
  cit::ThreadPool::Global().SetNumThreads(requested);
  const int effective = cit::ThreadPool::Global().num_threads();

  if (!MakeDirs(opts.out_dir)) {
    std::fprintf(stderr, "citbench: cannot create %s\n", opts.out_dir.c_str());
    return 1;
  }
  SpanLog spans;
  Report report;
  if (opts.workload == "paper_run") {
    report = RunPaperRun(opts, &spans);
  } else if (opts.workload == "sweep") {
    report = RunSweepWorkload(opts, &spans);
  } else if (opts.workload == "serve") {
    report = RunServeWorkload(opts, &spans);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }

  Report out;
  out.Fact("workload", opts.workload);
  out.Fact("seed", std::to_string(opts.seed));
  out.Fact("seconds", FormatDouble(opts.seconds));
  out.Fact("trace", opts.trace ? "1" : "0");
  out.Fact("host.nproc", std::to_string(std::thread::hardware_concurrency()));
  out.Fact("pool.threads_requested", std::to_string(requested));
  out.Fact("pool.threads_effective", std::to_string(effective));
  out.Fact("kernels.simd_isa", cit::math::kernels::SimdIsaName());
  out.Fact("kernels.backend",
           cit::math::kernels::ActiveBackend() ==
                   cit::math::kernels::Backend::kSimd
               ? "simd"
               : "scalar");
  out.Fact("build.native_arch", CIT_BENCH_NATIVE_ARCH ? "1" : "0");
  out.Fact("build.obs_compiled_in", cit::obs::kCompiledIn ? "1" : "0");
  out.Fact("build.compiler", __VERSION__);
  out.Fact("build.git_sha", opts.git_sha);
  out.Fact("build.source_digest", opts.source_digest);
  out.correct = report.correct;
  out.attempted = report.attempted;
  out.failed = report.failed;
  out.metrics = report.metrics;
  for (const auto& f : report.facts) out.facts.push_back(f);
  if (effective < requested) {
    out.Fail("invalid run: pool clamped to " + std::to_string(effective) +
                 " of " + std::to_string(requested) + " threads",
             0);
  }
  if (out.attempted < 1) out.Fail("no operation attempted", 0);

  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0");
  if (opts.trace) {
    const std::string path = stem + ".spans.json";
    if (!spans.WriteJson(path, cit::obs::Registry::Global().SnapshotJson())) {
      std::fprintf(stderr, "citbench: cannot write %s\n", path.c_str());
      return 1;
    }
    out.Fact("trace.spans_file", path);
  }

  for (const auto& [k, v] : out.facts) {
    std::printf("fact %s = %s\n", k.c_str(), v.c_str());
  }
  for (const Report::Metric& m : out.metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(),
                FormatDouble(m.value).c_str(), m.unit.c_str());
  }
  const std::string result = ResultJson(out);
  std::FILE* f = std::fopen((stem + ".json").c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "citbench: cannot write %s.json\n", stem.c_str());
    return 1;
  }
  std::fprintf(f, "{\"facts\": %s,\n \"result\": %s}\n", FactsJson(out).c_str(),
               result.c_str());
  if (std::fclose(f) != 0) return 1;
  std::printf("%s\n", result.c_str());
  return 0;
}
