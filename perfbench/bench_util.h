// Shared helpers of the benchmark binary: clocks, order statistics, process
// counters and the result record every workload fills in.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds since a process-wide steady epoch (span timestamps).
int64_t NowNs();

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// `values` as a space-separated list, `decimals` digits after the point.
std::string FormatList(const std::vector<double>& values, int decimals);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, MiB.
double PeakRssMiB();

/// What one invocation asked for.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;  ///< sizes the fixed work of the run (not a time limit)
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Everything a workload reports. `metrics` holds both end-to-end and
/// per-layer values; the launcher prints the set the run asked for.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Sample counts behind each percentile and other header facts.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check; the run then reports correct=false.
  void CheckFailed(const std::string& what);
};

/// Prints `result` as the single-line JSON object the launcher parses.
void PrintResultJson(const Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
