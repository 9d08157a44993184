#ifndef SQLFACIL_SERVING_ADMISSION_QUEUE_H_
#define SQLFACIL_SERVING_ADMISSION_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace sqlfacil::serving {

/// Bounded MPMC admission queue for the serving front end. Admission never
/// blocks the caller: a full (or closed) queue rejects the push and the
/// server translates that into a typed status immediately, so overload
/// surfaces as fast rejection instead of unbounded queueing delay
/// (load-shedding at the door, not at the tail).
///
/// The consumer side is built for a greedy batcher: PopBatch blocks for the
/// batch's first request, then takes whatever else is already queued and
/// returns at once — no timer, so a request is never held back waiting for
/// company. Close() ends admission but lets consumers drain every queued
/// item before PopBatch returns false — shutdown never drops an accepted
/// request.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t depth) : depth_(depth == 0 ? 1 : depth) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues unless the queue is full or closed; never blocks. Returns
  /// whether the item was admitted. `item` is moved from only on admission,
  /// so a rejected caller still owns it intact.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= depth_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until at least one item is queued, then appends it and up to
  /// `max - 1` (`max` >= 1) further already-queued items to `*out` without
  /// waiting for more. Returns false only when the queue is closed AND
  /// fully drained.
  bool PopBatch(std::vector<T>* out, size_t max) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    for (size_t n = 0; n < max && !items_.empty(); ++n) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return true;
  }

  /// Stops admission (TryPush fails from here on) and wakes every waiting
  /// consumer so queued items drain and PopBatch can return false.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace sqlfacil::serving

#endif  // SQLFACIL_SERVING_ADMISSION_QUEUE_H_
