// Benchmark binary: runs one workload against libsqlfacil's public API and
// prints a run header, the sample counts behind each percentile, and, as its
// last line, one JSON object with every metric the workload measured.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--trace-out <file.jsonl>]
//
// Workloads: serve_session, offline_sdss, label_disk (see
// README.md). `--seconds` sizes each workload's fixed amount of work; a run
// never stops on a timer. run.py builds this binary and is the intended
// entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "span_recorder.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

void SetCpuMetrics(Result* result, double cpu_s, uint64_t ops) {
  result->Set("proc.cpu_s", cpu_s, "s");
  result->Set("proc.cpu_us_per_op",
              ops == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(ops), "us");
}

void ReportTrace(const RunOptions& options, uint64_t ops, Result* result) {
  const std::vector<Span> spans = tracing::Collect();
  result->Set("trace.spans", static_cast<double>(spans.size()), "count");
  for (const auto& [layer, seconds] : SelfSecondsByLayer(spans)) {
    result->Set("self_ms_per_op." + layer,
                ops == 0 ? 0.0 : seconds * 1e3 / static_cast<double>(ops),
                "ms");
  }
  if (!options.trace_out.empty() &&
      !tracing::WriteJsonLines(spans, options.trace_out)) {
    result->CheckFailed("cannot write spans to " + options.trace_out);
  }
  result->notes.push_back(std::to_string(spans.size()) + " spans written to " +
                          options.trace_out);
}

}  // namespace perfbench

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_session|offline_sdss|"
               "label_disk --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds < 1) {
    Usage(argv[0]);
    return 2;
  }

  std::printf("# dispatch: %s\n", sqlfacil::nn::simd::DispatchReport().c_str());
  std::printf("# precision: %s\n",
              sqlfacil::nn::quant::PrecisionName(
                  sqlfacil::nn::quant::ActivePrecision()));
  std::printf("# pool threads: %d\n",
              sqlfacil::ThreadPool::Global()->num_threads());
  std::printf("# workload: %s seed: %llu seconds: %d trace: %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Result result;
  if (options.workload == "serve_session") {
    result = perfbench::RunServeSession(options);
  } else if (options.workload == "offline_sdss") {
    result = perfbench::RunOfflineSdss(options);
  } else if (options.workload == "label_disk") {
    result = perfbench::RunLabelDisk(options);
  } else {
    Usage(argv[0]);
    return 2;
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  perfbench::PrintResultJson(result);
  return 0;
}
