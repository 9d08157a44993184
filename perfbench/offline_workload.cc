// offline_sdss: the offline path that turns a query log into labels and
// trained models,
//   workload::BuildSdssWorkload -> core::BuildTask -> Model::Fit
//     -> core::EvaluateClassification
// for mfreq, ctfidf, ccnn and clstm on the error-classification task. It
// generates the SDSS log, labels it on the mem engine, trains and scores;
// serving is bypassed entirely.
//
// The pipeline runs `passes` times on identical inputs: throughput_qps is
// the workload's unique statements per second of the median pass (the wait
// from log to evaluated models).
// Set-up is a small warm-up pass (thread pool start-up, first-touch
// allocation) on a log drawn from a fixed seed, so its cost does not vary
// with the run's seed; it is repeated and reported as a median.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "span_recorder.h"
#include "sqlfacil/core/evaluator.h"
#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/core/tasks.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/sdss.h"
#include "sqlfacil/workload/split.h"
#include "timed_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kModels[] = {"mfreq", "ctfidf", "ccnn", "clstm"};
constexpr uint64_t kWarmupSeed = 99;

struct Sizes {
  double scale = 0.2;
  double warmup_scale = 0.06;
  int epochs = 3;
  int passes = 4;
  int setups = 5;
};

Sizes SizesFor(int seconds) {
  Sizes s;
  s.passes = std::max(1, seconds * 2 / 5);
  return s;
}

struct PassResult {
  double total_s = 0.0;
  double build_s = 0.0;
  double task_s = 0.0;
  size_t unique_statements = 0;
  size_t session_samples = 0;
  std::map<std::string, double> fit_s, eval_s, loss;
  TimedModel::Stats predict;  // summed over the evaluated models
};

PassResult RunPipeline(double scale, int epochs, uint64_t seed) {
  PassResult r;
  ScopedSpan pass_span("bench.pipeline");
  const Clock::time_point t0 = Clock::now();

  sqlfacil::workload::SdssBuildResult built;
  {
    ScopedSpan span("workload.build_sdss");
    sqlfacil::workload::SdssWorkloadConfig config;
    config.scale = scale;
    config.seed = seed;
    built = sqlfacil::workload::BuildSdssWorkload(config);
  }
  const Clock::time_point t1 = Clock::now();
  r.build_s = SecondsBetween(t0, t1);
  r.unique_statements = built.workload.queries.size();
  r.session_samples = built.num_session_samples;

  sqlfacil::core::TaskData task;
  {
    ScopedSpan span("core.build_task");
    sqlfacil::Rng split_rng(sqlfacil::MixSeed(seed, 11));
    const auto split = sqlfacil::workload::RandomSplit(built.workload,
                                                       &split_rng);
    task = sqlfacil::core::BuildTask(
        built.workload, split, sqlfacil::core::Problem::kErrorClassification);
  }
  r.task_s = SecondsBetween(t1, Clock::now());

  sqlfacil::core::ZooConfig zoo;
  zoo.epochs = epochs;
  for (const char* name : kModels) {
    auto model = sqlfacil::core::MakeModel(name, zoo);
    sqlfacil::Rng rng(sqlfacil::MixSeed(seed, std::hash<std::string>{}(name)));
    const Clock::time_point f0 = Clock::now();
    {
      ScopedSpan span("model.fit");
      model->Fit(task.train, task.valid, &rng);
    }
    const Clock::time_point f1 = Clock::now();
    TimedModel timed(model.get());
    {
      ScopedSpan span("core.evaluate");
      r.loss[name] = sqlfacil::core::EvaluateClassification(timed, task.test)
                         .loss;
    }
    r.fit_s[name] = SecondsBetween(f0, f1);
    r.eval_s[name] = SecondsBetween(f1, Clock::now());
    const TimedModel::Stats st = timed.GetStats();
    r.predict.calls += st.calls;
    r.predict.rows += st.rows;
    r.predict.busy_s += st.busy_s;
    r.predict.call_us.insert(r.predict.call_us.end(), st.call_us.begin(),
                             st.call_us.end());
  }
  r.total_s = SecondsBetween(t0, Clock::now());
  return r;
}

}  // namespace

Result RunOfflineSdss(const RunOptions& options) {
  Result result;
  const Sizes sizes = SizesFor(options.seconds);

  std::vector<double> setup_s;
  for (int i = 0; i < sizes.setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    RunPipeline(sizes.warmup_scale, 1, kWarmupSeed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  double untraced_s = 0.0;
  if (options.trace) {
    untraced_s = RunPipeline(sizes.scale, sizes.epochs, options.seed).total_s;
    tracing::SetEnabled(true);
  }
  const double cpu0 = ProcessCpuSeconds();
  std::vector<PassResult> passes;
  for (int p = 0; p < sizes.passes; ++p) {
    passes.push_back(RunPipeline(sizes.scale, sizes.epochs, options.seed));
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  tracing::SetEnabled(false);

  // Checks: every learned model beats mfreq on test loss, and every pass
  // reproduces the first pass's losses bit for bit.
  const PassResult& first = passes.front();
  result.attempted = static_cast<uint64_t>(passes.size()) * std::size(kModels);
  for (const PassResult& pass : passes) {
    for (const char* name : kModels) {
      const std::string n = name;
      bool ok = pass.loss.at(n) == first.loss.at(n);
      if (!ok) result.CheckFailed(n + " test loss differs between passes");
      if (n != "mfreq" && !(pass.loss.at(n) < pass.loss.at("mfreq"))) {
        ok = false;
        result.CheckFailed(n + " test loss is not below mfreq's");
      }
      if (!ok) ++result.failed;
    }
  }

  std::vector<double> total_s;
  for (const PassResult& pass : passes) total_s.push_back(pass.total_s);
  const double median_s = Median(total_s);
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("throughput_qps",
             static_cast<double>(first.unique_statements) / median_s, "1/s");
  result.Set("peak_rss_mb", PeakRssMiB(), "MiB");

  // Per-layer numbers come from the last pass.
  const PassResult& last = passes.back();
  result.Set("workload.build_sdss_s", last.build_s, "s");
  result.Set("workload.unique_statements",
             static_cast<double>(last.unique_statements), "count");
  result.Set("workload.session_samples",
             static_cast<double>(last.session_samples), "count");
  result.Set("core.build_task_s", last.task_s, "s");
  for (const char* name : kModels) {
    const std::string n = name;
    result.Set("model.fit_s." + n, last.fit_s.at(n), "s");
    result.Set("model.eval_s." + n, last.eval_s.at(n), "s");
    result.Set("model.test_loss." + n, last.loss.at(n), "nats");
  }
  const TimedModel::Stats& pr = last.predict;
  result.Set("model.predict_calls", static_cast<double>(pr.calls), "count");
  result.Set("model.rows_per_call",
             pr.calls == 0 ? 0.0 : static_cast<double>(pr.rows) / pr.calls,
             "count");
  result.Set("model.predict_us_p50", Percentile(pr.call_us, 50.0), "us");
  result.Set("model.us_per_row",
             pr.rows == 0 ? 0.0 : pr.busy_s * 1e6 / pr.rows, "us");
  result.Set("model.busy_s", pr.busy_s, "s");

  SetCpuMetrics(&result, cpu_s, first.unique_statements * passes.size());
  if (options.trace) {
    result.Set("trace.overhead_pct",
               (last.total_s - untraced_s) / untraced_s * 100.0, "%");
    ReportTrace(options, passes.size(), &result);
  }
  result.notes.push_back(
      "throughput_qps: median of " + std::to_string(passes.size()) +
      " pipeline passes at SDSS scale " + FormatList({sizes.scale}, 2) + ", " +
      std::to_string(sizes.epochs) + " epochs, " +
      std::to_string(first.unique_statements) +
      " unique statements (pass seconds: " + FormatList(total_s, 3) + ")");
  result.notes.push_back("setup_s: median of " +
                         std::to_string(sizes.setups) +
                         " warm-up passes at scale " +
                         FormatList({sizes.warmup_scale}, 2) + " (s: " +
                         FormatList(setup_s, 3) + ")");
  return result;
}

}  // namespace perfbench
