// The mutex + condition_variable queue that the lock-free BoundedQueue
// (src/runtime/request_queue.h) is tested against.
//
// Every operation serializes on one mutex, so its correctness is a matter
// of reading each method once. That simplicity is the point: it is the
// oracle. It exposes BoundedQueue's public surface and contract, so the
// contract suites and the litmus harnesses run as typed tests over both
// and the differential test drives both in lockstep. Only tests include
// this header.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace milr::runtime {

template <typename T>
class MutexQueue {
 public:
  explicit MutexQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  MutexQueue(const MutexQueue&) = delete;
  MutexQueue& operator=(const MutexQueue&) = delete;

  bool Push(T item) {
    return PushWith(std::move(item), [](T&) {});
  }

  template <typename AdmitFn>
  bool PushWith(T item, AdmitFn on_admit) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    on_admit(item);
    items_.push_back(std::move(item));
    PublishDepth();
    not_empty_.notify_one();
    return true;
  }

  bool TryPush(T& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    PublishDepth();
    not_empty_.notify_one();
    return true;
  }

  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    PublishDepth();
    not_full_.notify_one();
    return item;
  }

  std::size_t TryPopBatch(std::vector<T>& out, std::size_t max_items,
                          std::chrono::microseconds linger) {
    if (max_items == 0) max_items = 1;
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return 0;
    std::size_t taken = 0;
    // The counter republishes after EVERY pop_front below, while the mutex
    // is held, so the published value always equals the exact deque size
    // at some instant inside the lock — it can never transiently underflow
    // past zero or run ahead of the deque the way a detached counter
    // could. PublishDepth's assert pins the matching upper bound.
    const auto take_available = [&] {
      while (!items_.empty() && taken < max_items) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
        PublishDepth();
        ++taken;
        not_full_.notify_one();
      }
    };
    take_available();
    if (taken < max_items && linger.count() > 0 && !closed_) {
      const auto deadline = std::chrono::steady_clock::now() + linger;
      while (taken < max_items && !closed_) {
        if (!not_empty_.wait_until(lock, deadline, [&] {
              return closed_ || !items_.empty();
            })) {
          break;  // linger window expired
        }
        take_available();
      }
    }
    return taken;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  void Reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t DepthRelaxed() const {
    return depth_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

 private:
  /// Callers hold mutex_, so the counter always republishes the exact
  /// deque size; relaxed suffices because readers tolerate staleness.
  void PublishDepth() {
    assert(items_.size() <= capacity_ &&
           "published depth exceeds queue capacity");
    depth_.store(items_.size(), std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::atomic<std::size_t> depth_{0};
  bool closed_ = false;
};

}  // namespace milr::runtime
