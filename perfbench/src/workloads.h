#ifndef CITBENCH_WORKLOADS_H_
#define CITBENCH_WORKLOADS_H_

#include "common.h"

namespace citbench {

// Each workload builds its inputs from opts.seed, measures for about
// opts.seconds, checks its outputs, and reports every end-to-end metric
// (opts.trace false) or its per-layer metrics (opts.trace true). A traced
// run spends half its time untraced so it can report the tracing overhead.
Report RunPaperRun(const Options& opts, SpanLog* spans);
Report RunSweepWorkload(const Options& opts, SpanLog* spans);
Report RunServeWorkload(const Options& opts, SpanLog* spans);

}  // namespace citbench

#endif  // CITBENCH_WORKLOADS_H_
