// Multi-producer single-consumer blocking channel. RegistryServer's inbox:
// transport delivery threads push, its one worker thread pops. FIFO per
// producer and globally FIFO with respect to push completion order.
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sigma::net {

template <typename T>
class Channel {
 public:
  /// Enqueue one item. Returns false (dropping the item) if the channel
  /// has been closed.
  bool push(T&& item) SIGMA_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking pop: waits for an item or close. Empty optional means the
  /// channel is closed *and* drained.
  std::optional<T> pop() SIGMA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) cv_.wait(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocking pop with a deadline. Empty optional means either the
  /// deadline passed with nothing queued, or the channel is closed and
  /// drained — callers that need to tell the two apart check closed().
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline)
      SIGMA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (;;) {
      if (!items_.empty()) break;
      if (closed_) return std::nullopt;
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        // Re-check: a push may have raced the timeout.
        if (items_.empty()) return std::nullopt;
        break;
      }
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Close the channel: future pushes fail, pops drain what remains.
  void close() SIGMA_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const SIGMA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

 private:
  mutable Mutex mu_{LockRank::kChannel};
  CondVar cv_;
  std::deque<T> items_ SIGMA_GUARDED_BY(mu_);
  bool closed_ SIGMA_GUARDED_BY(mu_) = false;
};

}  // namespace sigma::net
