#include "sqlfacil/serving/loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/querygen.h"

namespace sqlfacil::serving {

namespace {

using Clock = std::chrono::steady_clock;

// Traffic mix over the SDSS session classes, weighted towards the classes
// that dominate the paper's logs (bots and programs are the heavy hitters;
// see fig3_sdss_structure).
constexpr workload::SessionClass kTrafficClasses[] = {
    workload::SessionClass::kBot,      workload::SessionClass::kBot,
    workload::SessionClass::kProgram,  workload::SessionClass::kProgram,
    workload::SessionClass::kBrowser,  workload::SessionClass::kAnonymous,
    workload::SessionClass::kNoWebHit, workload::SessionClass::kAdmin,
};

struct ClientResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t unavailable = 0;
  uint64_t expired = 0;
  uint64_t failed = 0;
  LatencyHistogram latency_ns;
};

}  // namespace

std::vector<std::string> BuildSessionTrace(size_t n, double duplicate_rate,
                                           uint64_t seed, int schema_epoch,
                                           std::vector<int>* labels) {
  Rng rng(seed);
  workload::QueryGenerator gen(&rng);
  gen.SetSchemaEpoch(schema_epoch);
  std::vector<std::string> trace;
  trace.reserve(n);
  if (labels != nullptr) {
    labels->clear();
    labels->reserve(n);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!trace.empty() && rng.Bernoulli(duplicate_rate)) {
      // Replay skews towards hot statements (Zipf over the history), the
      // shape that makes a server-side cache worth having.
      const size_t replay = rng.Zipf(trace.size(), 1.0);
      trace.push_back(trace[replay]);
      if (labels != nullptr) labels->push_back((*labels)[replay]);
      continue;
    }
    const auto cls =
        kTrafficClasses[rng.NextUint64(std::size(kTrafficClasses))];
    trace.push_back(gen.Generate(cls));
    if (labels != nullptr) labels->push_back(static_cast<int>(cls));
  }
  return trace;
}

LoadReport RunLoadGen(Server& server, const LoadGenOptions& options) {
  const size_t clients = std::max<size_t>(1, options.num_clients);
  // Per-client arrival interval that sums to the requested total rate.
  const double interval_s =
      options.arrival_rate_qps > 0.0
          ? static_cast<double>(clients) / options.arrival_rate_qps
          : 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_s));

  std::vector<ClientResult> results(clients);
  std::vector<std::vector<std::string>> traces(clients);
  for (size_t c = 0; c < clients; ++c) {
    traces[c] = BuildSessionTrace(options.trace_len, options.duplicate_rate,
                                  MixSeed(options.seed, c));
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.warmup_s));
  const Clock::time_point end =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.duration_s));

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& res = results[c];
      const std::vector<std::string>& trace = traces[c];
      // Stagger client phases across one interval so the aggregate arrival
      // process approximates a uniform stream instead of synchronized
      // clients-wide bursts every interval.
      const Clock::duration phase = interval * c / clients;
      size_t qi = 0;
      uint64_t tick = 0;
      while (Clock::now() < end && !train::DrainRequested()) {
        if (interval.count() > 0) {
          // Open-loop schedule: submission slots are fixed at
          // start + tick*interval, so a temporarily slow server sees the
          // backlog as arrival pressure rather than stretching the
          // schedule. The closed loop below bounds each client to one
          // outstanding request.
          const Clock::time_point slot = start + phase + tick * interval;
          if (slot > Clock::now()) std::this_thread::sleep_until(slot);
          ++tick;
        }
        const std::string& q = trace[qi];
        qi = (qi + 1) % trace.size();
        const Clock::time_point t0 = Clock::now();
        const ServerReply reply = server.Call(q, 0.0, options.deadline_us);
        const Clock::time_point t1 = Clock::now();
        if (reply.status.code() == StatusCode::kUnavailable &&
            train::DrainRequested()) {
          break;  // the drain that ends the run landed after the loop check
        }
        if (t1 < measure_start) continue;  // warmup traffic is not recorded
        ++res.issued;
        switch (reply.status.code()) {
          case StatusCode::kOk:
            ++res.ok;
            res.latency_ns.Record(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
            break;
          case StatusCode::kResourceExhausted:
            ++res.rejected;
            break;
          case StatusCode::kUnavailable:
            ++res.unavailable;
            break;
          case StatusCode::kDeadlineExceeded:
            ++res.expired;
            break;
          default:
            ++res.failed;
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double measured_s = std::max(
      1e-9,
      std::chrono::duration<double>(Clock::now() - measure_start).count());

  LoadReport report;
  for (const ClientResult& res : results) {
    report.issued += res.issued;
    report.ok += res.ok;
    report.rejected += res.rejected;
    report.unavailable += res.unavailable;
    report.expired += res.expired;
    report.failed += res.failed;
    report.latency_ns.Merge(res.latency_ns);
  }
  report.duration_s = measured_s;
  report.offered_qps = options.arrival_rate_qps;
  report.achieved_qps =
      measured_s > 0.0 ? static_cast<double>(report.ok) / measured_s : 0.0;
  report.server = server.GetStats();
  return report;
}

}  // namespace sqlfacil::serving
