#include "span_recorder.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "bench_util.h"

namespace perfbench {
namespace tracing {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Every thread's buffer, owned here so spans outlive the thread that
// recorded them (the server's batcher thread ends before the run reports).
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

std::vector<Span>* ThreadBuffer() {
  thread_local std::vector<Span>* buffer = [] {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 12);
    std::vector<Span>* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

thread_local uint64_t t_trace_id = 0;
thread_local uint64_t t_span_id = 0;

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Record(const Span& span) {
  if (!Enabled()) return;
  ThreadBuffer()->push_back(span);
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"trace\": %" PRIu64 ", \"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 s.name, s.trace_id, s.span_id, s.parent_id, s.start_ns,
                 s.end_ns);
  }
  return std::fclose(f) == 0;
}

uint64_t CurrentTraceId() { return t_trace_id; }
uint64_t CurrentSpanId() { return t_span_id; }

}  // namespace tracing

ScopedSpan::ScopedSpan(const char* name) {
  if (!tracing::Enabled()) return;
  active_ = true;
  saved_trace_ = tracing::t_trace_id;
  saved_span_ = tracing::t_span_id;
  span_.name = name;
  span_.span_id = tracing::NewId();
  span_.parent_id = saved_span_;
  span_.trace_id = saved_trace_ != 0 ? saved_trace_ : span_.span_id;
  tracing::t_trace_id = span_.trace_id;
  tracing::t_span_id = span_.span_id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tracing::t_trace_id = saved_trace_;
  tracing::t_span_id = saved_span_;
  tracing::Record(span_);
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent_id != 0) {
      children[s.parent_id].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self_s;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0, run_end = -1;
      for (const auto& [a0, b0] : kids) {
        const int64_t a = std::max(a0, s.start_ns);
        const int64_t b = std::min(b0, s.end_ns);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_s[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self_s;
}

}  // namespace perfbench
