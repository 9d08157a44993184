// The benchmark's workloads. Each builds its inputs from the run's seed,
// sets up outside the timed phase, measures a fixed amount of work, checks
// the library's outputs and fills in a Result.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace perfbench {

Result RunServeSession(const RunOptions& options);
Result RunOfflineSdss(const RunOptions& options);
Result RunLabelDisk(const RunOptions& options);

/// Adds proc.cpu_s / proc.cpu_us_per_op for a phase that used `cpu_s` CPU
/// seconds on `ops` operations.
void SetCpuMetrics(Result* result, double cpu_s, uint64_t ops);

/// Adds self_ms_per_op.<layer> for every layer the traced spans cover,
/// trace.spans, and writes the spans to `options.trace_out`.
void ReportTrace(const RunOptions& options, uint64_t ops, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
