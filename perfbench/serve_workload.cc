// serve_session: the online path
//   serving::Server -> PredictionCache -> Model::PredictBatch
// driven by one load-generating thread through Server::Submit callbacks.
//
// Set-up (timed as setup_s, repeated and reported as a median): build the
// request logs, train the served ccnn, construct the Server and warm it up
// on statements disjoint from every log. Then two kinds of measured parts
// on the same server, interleaved through the run, each replaying one log
// on a cold cache (the logs are cycled):
//   * closed loop: each segment sends one log with 3-4 x max_batch
//     requests in flight, topped up a batch at a time, so the batcher
//     never idles on hand-offs and the generator wakes once per batch;
//     throughput_qps is the median segment's ok replies per second;
//   * open loop: each part sends one log at a fixed rate of about a third
//     of the closed loop's, each request timed from when it was due;
//     serving.latency_p50_ms (per layer) is the median over every
//     open-loop request. Its spread across runs on a shared host is too
//     wide to gate (README.md).
// Medians over many parts keep one slow second of a shared host from
// moving the result. The prediction cache holds fewer entries than a log
// has distinct statements, so every part also runs the eviction path.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "span_recorder.h"
#include "sqlfacil/core/model_zoo.h"
#include "sqlfacil/models/baselines.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/serving/prediction_cache.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/random.h"
#include "timed_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sqlfacil::Rng;
using sqlfacil::StatusCode;
using sqlfacil::models::Dataset;
using sqlfacil::models::Model;
using sqlfacil::serving::ModelRef;
using sqlfacil::serving::NormalizeStatement;
using sqlfacil::serving::ResilientModel;
using sqlfacil::serving::Server;
using sqlfacil::serving::ServerOptions;
using sqlfacil::serving::ServerReply;
using sqlfacil::serving::Tier;

// The paper's statement redundancy (Query2Vec's 18.5%) as the trace's
// explicit replay share; the generator's own repeats come on top, which
// puts the session trace's cache hit rate near the paper's ~60%.
constexpr double kSessionDuplicateRate = 0.185;

// Prediction-cache capacity: below the ~8.5k distinct statements of one
// log, so the later inserts of every part evict (LRU) while the hot,
// Zipf-skewed repeats stay cached.
constexpr size_t kCacheCapacity = 8192;

struct Sizes {
  size_t warmup = 2000;
  int logs = 5;               ///< distinct request logs, cycled
  size_t log_len = 20000;     ///< requests per log
  int segments = 0;           ///< closed-loop segments (one log each)
  int open_parts = 0;         ///< open-loop parts (one log each)
  double open_rate_qps = 5000.0;
  int setups = 5;
  size_t sample_every = 64;   ///< 1-in-N replies checked against Predict
  size_t train = 512;
};

Sizes SizesFor(int seconds) {
  Sizes s;
  s.segments = std::max(2, seconds * 6 / 5);
  s.open_parts = std::max(1, seconds / 5);
  return s;
}

// Trains on a syntactic aggregate-vs-lookup label of session traffic: the
// task is irrelevant to serving cost, the served vocabulary is not.
Dataset BuildTrainData(size_t n, uint64_t seed) {
  Dataset data;
  data.kind = sqlfacil::models::TaskKind::kClassification;
  data.num_classes = 2;
  data.statements = sqlfacil::serving::BuildSessionTrace(n, 0.0, seed);
  data.opt_costs.assign(n, 0.0);
  for (const std::string& s : data.statements) {
    const bool agg = s.find("COUNT") != std::string::npos ||
                     s.find("GROUP BY") != std::string::npos ||
                     s.find("count(") != std::string::npos;
    data.labels.push_back(agg ? 1 : 0);
  }
  return data;
}

// The request logs and a warm-up set disjoint from all of them (by cache
// key).
struct Traces {
  std::vector<std::string> warmup;
  std::vector<std::vector<std::string>> logs;
};

Traces BuildTraces(const Sizes& sizes, uint64_t seed) {
  Traces t;
  std::unordered_set<std::string> keys;
  // Session logs with the paper's repeat share; each part replays its log
  // on a cold cache, so every part sees that share.
  for (int g = 0; g < sizes.logs; ++g) {
    t.logs.push_back(sqlfacil::serving::BuildSessionTrace(
        sizes.log_len, kSessionDuplicateRate, sqlfacil::MixSeed(seed, 10 + g)));
    for (const std::string& s : t.logs.back()) {
      keys.insert(NormalizeStatement(s));
    }
  }
  for (uint64_t chunk = 0; t.warmup.size() < sizes.warmup; ++chunk) {
    for (std::string& s : sqlfacil::serving::BuildSessionTrace(
             sizes.warmup, 0.0, sqlfacil::MixSeed(seed, 2 + 1000 * chunk))) {
      if (t.warmup.size() == sizes.warmup) break;
      if (keys.insert(NormalizeStatement(s)).second) {
        t.warmup.push_back(std::move(s));
      }
    }
  }
  return t;
}

// Joins model calls to the requests they served in the traced run: the
// generator registers each statement's latest request id before Submit.
struct TraceJoin {
  std::mutex mu;
  std::unordered_map<std::string, uint64_t> request_of;

  void Register(const std::string& statement, uint64_t request_id) {
    std::lock_guard<std::mutex> lock(mu);
    request_of[statement] = request_id;
  }
  void OnBatch(std::span<const std::string> statements, int64_t t0,
               int64_t t1) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& s : statements) {
      auto it = request_of.find(s);
      if (it == request_of.end()) continue;
      tracing::Record(Span{"model.predict_batch", it->second,
                           tracing::NewId(), it->second, t0, t1});
    }
  }
};

// One request's outcome, written once by the batcher thread.
struct Outcome {
  int64_t start_ns = 0;   // submit (closed loop) or due time (open loop)
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  double queue_us = 0.0;
  double total_us = 0.0;
  StatusCode code = StatusCode::kOk;
  Tier tier = Tier::kFailed;
  uint64_t request_id = 0;
  std::vector<float> prediction;  // kept for sampled requests only
};

// State shared by the generator and the reply callbacks of one phase.
class Phase {
 public:
  Phase(size_t n, size_t sample_every)
      : outcomes_(n), sample_every_(sample_every) {}
  // Reply callbacks hold the Phase's address.
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  // Blocks until at most `limit` requests are in flight. Replies wake the
  // generator only when that point is reached, not once per reply.
  void WaitAtMost(size_t limit) {
    std::unique_lock<std::mutex> lock(mu_);
    wake_at_ = limit;
    waiting_ = true;
    cv_.wait(lock, [&] { return in_flight_ <= limit; });
    waiting_ = false;
  }
  // Counts `n` requests as in flight; call before submitting them.
  void Claim(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ += n;
  }

  void Complete(size_t i, ServerReply reply) {
    const int64_t now = NowNs();
    Outcome& o = outcomes_[i];
    o.done_ns = now;
    o.queue_us = reply.queue_us;
    o.total_us = reply.total_us;
    o.code = reply.status.code();
    o.tier = reply.tier;
    if (i % sample_every_ == 0) o.prediction = std::move(reply.prediction);
    if (tracing::Enabled()) {
      tracing::Record(Span{"serving.request", o.request_id, o.request_id, 0,
                           o.start_ns, now});
      tracing::Record(Span{"queue.wait", o.request_id,
                           tracing::NewId(), o.request_id, o.submit_ns,
                           o.submit_ns + static_cast<int64_t>(
                                             reply.queue_us * 1e3)});
    }
    // Notify under the lock: once in_flight_ reaches 0 the generator may
    // destroy this Phase as soon as it can re-acquire mu_.
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (waiting_ && in_flight_ <= wake_at_) cv_.notify_one();
  }

  std::vector<Outcome>& outcomes() { return outcomes_; }

 private:
  std::vector<Outcome> outcomes_;
  const size_t sample_every_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  size_t wake_at_ = 0;
  bool waiting_ = false;
};

// A trained model behind a running server.
struct Setup {
  Traces traces;
  std::unique_ptr<Model> model;
  std::unique_ptr<Model> baseline;
  TraceJoin join;
  TimedModel* timed = nullptr;  // owned by the server's shard
  std::unique_ptr<Server> server;
};

void Submit(Setup& setup, Phase& phase, size_t i, const std::string& stmt,
            int64_t start_ns) {
  Outcome& o = phase.outcomes()[i];
  if (tracing::Enabled()) {
    o.request_id = tracing::NewId();
    setup.join.Register(stmt, o.request_id);
  }
  o.submit_ns = NowNs();
  o.start_ns = start_ns < 0 ? o.submit_ns : start_ns;
  Phase* p = &phase;
  setup.server->Submit(stmt, 0.0,
                       [p, i](ServerReply reply) {
                         p->Complete(i, std::move(reply));
                       },
                       /*deadline_us=*/0);
}

// Closed loop: keeps between depth - burst and depth requests in flight,
// topping up a burst at a time so the generator wakes once per burst.
void RunClosed(Setup& setup, Phase& phase,
               std::span<const std::string> statements, size_t depth,
               size_t burst) {
  for (size_t i = 0; i < statements.size(); i += burst) {
    const size_t n = std::min(burst, statements.size() - i);
    phase.WaitAtMost(depth - n);
    phase.Claim(n);
    for (size_t j = i; j < i + n; ++j) {
      Submit(setup, phase, j, statements[j], -1);
    }
  }
  phase.WaitAtMost(0);
}

// Open loop: request i is due at start + i / rate whatever the server does.
// Returns how late the generator submitted each request, microseconds.
std::vector<double> RunOpen(Setup& setup, Phase& phase,
                            std::span<const std::string> statements,
                            double rate_qps) {
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / rate_qps));
  std::vector<double> lag_us(statements.size());
  const Clock::time_point start = Clock::now();
  const int64_t start_ns = NowNs();
  for (size_t i = 0; i < statements.size(); ++i) {
    const Clock::time_point due_tp = start + interval * i;
    std::this_thread::sleep_until(due_tp);
    const int64_t due_ns = start_ns + interval.count() * static_cast<int64_t>(i);
    phase.Claim(1);
    Submit(setup, phase, i, statements[i], due_ns);
    lag_us[i] = static_cast<double>(phase.outcomes()[i].submit_ns - due_ns) * 1e-3;
  }
  phase.WaitAtMost(0);
  return lag_us;
}

std::unique_ptr<Setup> BuildSetup(const Sizes& sizes, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->traces = BuildTraces(sizes, seed);

  sqlfacil::core::ZooConfig zoo;
  zoo.epochs = 1;
  setup->model = sqlfacil::core::MakeModel("ccnn", zoo);
  const Dataset train = BuildTrainData(sizes.train, sqlfacil::MixSeed(seed, 3));
  Rng rng(sqlfacil::MixSeed(seed, 4));
  setup->model->Fit(train, train, &rng);
  setup->baseline = std::make_unique<sqlfacil::models::MfreqModel>();
  setup->baseline->Fit(train, train, &rng);

  ServerOptions options = ServerOptions::FromEnv();
  options.num_shards = 1;
  options.default_deadline_us = 0;
  Setup* s = setup.get();
  setup->server = std::make_unique<Server>(
      [s](size_t) {
        auto timed = std::make_unique<TimedModel>(
            s->model.get(),
            [s](std::span<const std::string> stmts, int64_t t0, int64_t t1) {
              s->join.OnBatch(stmts, t0, t1);
            });
        s->timed = timed.get();
        sqlfacil::serving::ResilientOptions resilient;
        resilient.cache_capacity = kCacheCapacity;
        return std::make_unique<ResilientModel>(
            std::move(timed), std::make_unique<ModelRef>(s->baseline.get()),
            resilient);
      },
      options);

  Phase warm(setup->traces.warmup.size(), SIZE_MAX);
  RunClosed(*setup, warm, setup->traces.warmup, 4 * options.max_batch,
            options.max_batch);
  return setup;
}

// Drops every cached prediction, so the next segment starts cold.
void ClearCache(Setup& setup) {
  setup.server->shard_model(0).primary()->cache().Clear();
}

}  // namespace

Result RunServeSession(const RunOptions& options) {
  Result result;
  const Sizes sizes = SizesFor(options.seconds);

  // Set-up, repeated; the last one serves the measured phases.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < sizes.setups; ++r) {
    setup.reset();
    const Clock::time_point t0 = Clock::now();
    setup = BuildSetup(sizes, options.seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  Server& server = *setup->server;
  const size_t depth = 4 * server.options().max_batch;
  const Traces& traces = setup->traces;

  // Each part replays one log (cycled) on a cold cache.
  using Parts = std::vector<std::unique_ptr<Phase>>;
  auto log_of = [&](int part) -> const std::vector<std::string>& {
    return traces.logs[part % traces.logs.size()];
  };
  // Batching and model-call counters summed over the closed-loop segments.
  struct ClosedCounters {
    uint64_t batches = 0, completed = 0, calls = 0, rows = 0;
    double busy_s = 0.0;
    std::vector<double> call_us;
  };
  auto run_segment = [&](int g, Parts* parts, std::vector<double>* seconds,
                         ClosedCounters* counters) {
    ClearCache(*setup);
    parts->push_back(
        std::make_unique<Phase>(log_of(g).size(), sizes.sample_every));
    const Server::Stats s0 = server.GetStats();
    const TimedModel::Stats m0 = setup->timed->GetStats();
    const Clock::time_point t0 = Clock::now();
    RunClosed(*setup, *parts->back(), log_of(g), depth,
              server.options().max_batch);
    seconds->push_back(SecondsBetween(t0, Clock::now()));
    const Server::Stats s1 = server.GetStats();
    const TimedModel::Stats m1 = setup->timed->GetStats();
    counters->batches += s1.batches - s0.batches;
    counters->completed += s1.completed - s0.completed;
    counters->calls += m1.calls - m0.calls;
    counters->rows += m1.rows - m0.rows;
    counters->busy_s += m1.busy_s - m0.busy_s;
    counters->call_us.insert(
        counters->call_us.end(),
        m1.call_us.begin() + static_cast<std::ptrdiff_t>(m0.call_us.size()),
        m1.call_us.end());
  };
  // With tracing on, the closed segments first run untraced on the same
  // server and logs, so trace.overhead_pct compares like with like.
  double untraced_closed_s = 0.0;
  if (options.trace) {
    Parts parts;
    std::vector<double> seconds;
    ClosedCounters ignored;
    for (int g = 0; g < sizes.segments; ++g) {
      run_segment(g, &parts, &seconds, &ignored);
    }
    for (double s : seconds) untraced_closed_s += s;
    tracing::SetEnabled(true);
  }

  // Each open-loop part runs in the middle of its share of the closed
  // segments, so both metrics sample the same stretch of the run.
  const double cpu0 = ProcessCpuSeconds();
  const Server::Stats s0 = server.GetStats();
  Parts closed, open;
  std::vector<double> segment_s, lag_us;
  ClosedCounters cc;
  int next_segment = 0;
  for (int k = 0; k < sizes.open_parts; ++k) {
    for (const int end =
             sizes.segments * (2 * k + 1) / (2 * sizes.open_parts);
         next_segment < end; ++next_segment) {
      run_segment(next_segment, &closed, &segment_s, &cc);
    }
    ClearCache(*setup);
    open.push_back(
        std::make_unique<Phase>(log_of(k).size(), sizes.sample_every));
    const std::vector<double> lag =
        RunOpen(*setup, *open.back(), log_of(k), sizes.open_rate_qps);
    lag_us.insert(lag_us.end(), lag.begin(), lag.end());
  }
  for (; next_segment < sizes.segments; ++next_segment) {
    run_segment(next_segment, &closed, &segment_s, &cc);
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  tracing::SetEnabled(false);
  const Server::Stats s2 = server.GetStats();

  // Outcomes, failures and the 1-in-N bit-identity sample.
  std::vector<double> open_latency_ms, queue_us, service_us, segment_qps;
  uint64_t attempted = 0, failed = 0, sampled = 0, mismatched = 0;
  auto scan = [&](Phase& phase, const std::vector<std::string>& stmts,
                  bool open_loop) {
    uint64_t ok = 0;
    for (size_t i = 0; i < stmts.size(); ++i) {
      ++attempted;
      const Outcome& o = phase.outcomes()[i];
      if (o.code != StatusCode::kOk || o.tier != Tier::kPrimary) {
        ++failed;
        continue;
      }
      ++ok;
      if (open_loop) {
        queue_us.push_back(o.queue_us);
        service_us.push_back(o.total_us - o.queue_us);
        open_latency_ms.push_back(static_cast<double>(o.done_ns - o.start_ns) *
                                  1e-6);
      }
      if (i % sizes.sample_every == 0) {
        ++sampled;
        const std::vector<float> want = setup->model->Predict(stmts[i], 0.0);
        if (want.size() != o.prediction.size() ||
            std::memcmp(want.data(), o.prediction.data(),
                        want.size() * sizeof(float)) != 0) {
          ++mismatched;
        }
      }
    }
    return ok;
  };
  for (int g = 0; g < sizes.segments; ++g) {
    const uint64_t ok = scan(*closed[g], log_of(g), false);
    segment_qps.push_back(static_cast<double>(ok) / segment_s[g]);
  }
  for (int k = 0; k < sizes.open_parts; ++k) scan(*open[k], log_of(k), true);

  result.attempted = attempted;
  result.failed = failed;
  if (failed > 0) {
    result.CheckFailed(std::to_string(failed) +
                       " replies not OK on the primary tier");
  }
  if (mismatched > 0) {
    result.CheckFailed(std::to_string(mismatched) + " of " +
                       std::to_string(sampled) +
                       " sampled replies differ from Model::Predict");
  }
  const uint64_t hits = s2.cache.hits - s0.cache.hits;
  const uint64_t misses = s2.cache.misses - s0.cache.misses;

  result.Set("setup_s", Median(setup_s), "s");
  result.Set("throughput_qps", Median(segment_qps), "1/s");
  result.Set("peak_rss_mb", PeakRssMiB(), "MiB");

  // Open-loop latency and its stage split.
  result.Set("serving.latency_p50_ms", Percentile(open_latency_ms, 50.0),
             "ms");
  result.Set("serving.latency_p99_ms", Percentile(open_latency_ms, 99.0),
             "ms");
  result.Set("serving.queue_wait_us_p50", Percentile(queue_us, 50.0), "us");
  result.Set("serving.service_us_p50", Percentile(service_us, 50.0), "us");
  result.Set("serving.generator_lag_us_p99", Percentile(lag_us, 99.0), "us");
  // Closed-loop batching (what throughput_qps is made of).
  result.Set("serving.batches", static_cast<double>(cc.batches), "count");
  result.Set("serving.batch_size_mean",
             cc.batches == 0 ? 0.0
                             : static_cast<double>(cc.completed) /
                                   static_cast<double>(cc.batches),
             "count");
  result.Set("serving.rejected",
             static_cast<double>(s2.rejected_queue_full +
                                 s2.rejected_unavailable -
                                 s0.rejected_queue_full -
                                 s0.rejected_unavailable),
             "count");
  result.Set("serving.expired", static_cast<double>(s2.expired - s0.expired),
             "count");

  result.Set("cache.hits", static_cast<double>(hits), "count");
  result.Set("cache.misses", static_cast<double>(misses), "count");
  result.Set("cache.hit_rate",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses),
             "ratio");
  result.Set("cache.evictions",
             static_cast<double>(s2.cache.evictions - s0.cache.evictions),
             "count");

  // Model calls below the cache during the closed loop.
  result.Set("model.predict_calls", static_cast<double>(cc.calls), "count");
  result.Set("model.rows_per_call",
             cc.calls == 0 ? 0.0 : static_cast<double>(cc.rows) / cc.calls,
             "count");
  result.Set("model.predict_us_p50", Percentile(cc.call_us, 50.0), "us");
  result.Set("model.us_per_row",
             cc.rows == 0 ? 0.0 : cc.busy_s * 1e6 / cc.rows, "us");
  result.Set("model.busy_s", cc.busy_s, "s");

  SetCpuMetrics(&result, cpu_s, attempted);
  if (options.trace) {
    double traced_closed_s = 0.0;
    for (double s : segment_s) traced_closed_s += s;
    result.Set("trace.overhead_pct",
               (traced_closed_s - untraced_closed_s) / untraced_closed_s *
                   100.0,
               "%");
    ReportTrace(options, attempted, &result);
  }

  result.notes.push_back(
      "throughput_qps: median of " + std::to_string(sizes.segments) +
      " closed-loop segments of " + std::to_string(sizes.log_len) +
      " requests, each on a cold cache, in-flight depth " +
      std::to_string(depth));
  result.notes.push_back("segment throughputs (1/s): " +
                         FormatList(segment_qps, 0));
  result.notes.push_back("serving.latency_p50_ms / p99_ms: " +
                         std::to_string(open_latency_ms.size()) +
                         " open-loop requests in " +
                         std::to_string(sizes.open_parts) + " parts at " +
                         std::to_string(static_cast<int>(sizes.open_rate_qps)) +
                         "/s");
  result.notes.push_back(
      "cache: capacity " + std::to_string(kCacheCapacity) + ", hit rate " +
      FormatList({hits + misses == 0 ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(hits + misses)},
                 3) +
      ", " +
      std::to_string(s2.cache.evictions - s0.cache.evictions) +
      " evictions");
  result.notes.push_back("setup_s: median of " +
                         std::to_string(sizes.setups) + " set-ups (s: " +
                         FormatList(setup_s, 3) + ")");
  result.notes.push_back("bit-identity sample: " + std::to_string(sampled) +
                         " replies (1 in " +
                         std::to_string(sizes.sample_every) + ")");
  server.Shutdown();
  return result;
}

}  // namespace perfbench
