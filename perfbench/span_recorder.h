// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its calls into the library's public functions
// (nothing inside the library is instrumented), kept in per-thread buffers,
// and written out as JSON lines when the run ends.
#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. `name` is "<layer>.<what>" and must be a string
/// literal. Spans of one request (or one pipeline pass) share `trace_id`;
/// `parent_id` is 0 for a root.
struct Span {
  const char* name = "";
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide switch and storage. Disabled by default: every recording
/// call is then a single relaxed load.
namespace tracing {

void SetEnabled(bool on);
bool Enabled();
uint64_t NewId();
/// Appends to the calling thread's buffer (no cross-thread locking on the
/// hot path beyond the first span of a thread).
void Record(const Span& span);
/// All spans recorded so far, in no particular order. Call it once the
/// threads that record have stopped (or synchronized with the caller).
std::vector<Span> Collect();
/// Writes `spans` as JSON lines; returns false on I/O failure.
bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

/// Trace and span id of the innermost open ScopedSpan on this thread
/// (0, 0 when none), used as the parent of spans recorded without one.
uint64_t CurrentTraceId();
uint64_t CurrentSpanId();

}  // namespace tracing

/// RAII span on the calling thread; nests under the thread's innermost open
/// ScopedSpan. A root span starts a new trace id. No-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
  uint64_t saved_trace_ = 0;
  uint64_t saved_span_ = 0;
};

/// Self time of each layer: every span's duration minus the part of its
/// interval covered by its children, summed per layer (the name's prefix
/// before the first '.'), in seconds.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
