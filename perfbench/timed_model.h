// Forwarding models::Model decorator that times every inference call into
// the wrapped model. In the serving workloads it sits below the prediction
// cache (ResilientModel wraps it in its CachedModel), so it sees exactly the
// cache misses; in the offline workload it wraps each trained model while
// core::EvaluateClassification scores it.
#ifndef PERFBENCH_TIMED_MODEL_H_
#define PERFBENCH_TIMED_MODEL_H_

#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "span_recorder.h"
#include "sqlfacil/models/model.h"

namespace perfbench {

class TimedModel : public sqlfacil::models::Model {
 public:
  /// Called after each traced PredictBatch with the batch and its interval;
  /// lets the caller attribute the call to the requests it served. Without
  /// a hook the call is recorded as a child of the thread's open span.
  using BatchHook = std::function<void(std::span<const std::string>,
                                       int64_t start_ns, int64_t end_ns)>;

  /// Borrows `inner`, which must outlive this decorator.
  explicit TimedModel(sqlfacil::models::Model* inner, BatchHook hook = {})
      : inner_(inner), hook_(std::move(hook)) {}

  std::string name() const override { return inner_->name(); }
  void Fit(const sqlfacil::models::Dataset& train,
           const sqlfacil::models::Dataset& valid,
           sqlfacil::Rng* rng) override {
    inner_->Fit(train, valid, rng);
  }
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override {
    const int64_t t0 = NowNs();
    std::vector<float> out = inner_->Predict(statement, opt_cost);
    Note(std::span<const std::string>(&statement, 1), t0, NowNs());
    return out;
  }
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override {
    const int64_t t0 = NowNs();
    auto out = inner_->PredictBatch(statements, opt_costs);
    Note(statements, t0, NowNs());
    return out;
  }
  size_t vocab_size() const override { return inner_->vocab_size(); }
  size_t num_parameters() const override { return inner_->num_parameters(); }

  struct Stats {
    uint64_t calls = 0;
    uint64_t rows = 0;
    double busy_s = 0.0;
    std::vector<double> call_us;  ///< one entry per call
  };
  Stats GetStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  void Note(std::span<const std::string> statements, int64_t t0,
            int64_t t1) const {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.calls;
      stats_.rows += statements.size();
      stats_.busy_s += static_cast<double>(t1 - t0) * 1e-9;
      stats_.call_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    if (!tracing::Enabled()) return;
    if (hook_) {
      hook_(statements, t0, t1);
      return;
    }
    tracing::Record(Span{"model.predict_batch", tracing::CurrentTraceId(),
                         tracing::NewId(), tracing::CurrentSpanId(), t0, t1});
  }

  sqlfacil::models::Model* inner_;
  BatchHook hook_;
  mutable std::mutex mu_;
  mutable Stats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_MODEL_H_
