// Bounded single-producer / single-consumer ring buffer.
//
// The monitor fleet's handoffs are structurally SPSC: on each link
// between a packet producer (the fleet's pump, or a bound tap's
// injecting thread) and a shard worker, exactly one thread routes
// packets in and the one worker drains them, and the worker hands
// spent frame buffers back the other way on a second ring. This ring
// makes those handoffs lock-free in the steady state — one
// release store and one acquire load per operation, with cached
// counterpart indices so an uncontended push/pop touches a single
// shared cache line — and keeps a mutex/condvar pair strictly for the
// park/unpark edge when the ring runs full (producer backpressure) or
// empty (idle consumer).
//
// Wakeup protocol: a parking side publishes its parked flag with
// sequential consistency, then rechecks the ring before sleeping; the
// other side publishes its index update, fences, then checks the flag.
// Either the parker sees the update and never sleeps, or the peer sees
// the flag and notifies. A short timed wait backstops the handshake so
// no missed edge can ever become a deadlock.
//
// Thread roles are a contract: try_push/push from the one producer
// thread, try_pop/pop from the one consumer thread. close() may be
// called from the producer (or an owner) and wakes both sides.
//
// Each side counts the parks that actually slept (producer_parks(),
// consumer_parks()); the count lives on the slow path only, so a ring
// that never parks pays nothing for it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "wm/util/thread_annotations.hpp"

namespace wm::util {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer: push without blocking. False when the ring is full (the
  /// value is left untouched in that case).
  [[nodiscard]] bool try_push(T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    wake(consumer_parked_, consumer_cv_);
    return true;
  }

  /// Producer: push, parking when full. False only when the ring was
  /// closed before space appeared (the value is dropped then — a
  /// closed ring accepts nothing).
  bool push(T value) {
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (try_push(value)) return true;
      park(producer_parked_, producer_cv_, producer_parks_,
           [this] { return !full() || closed_.load(std::memory_order_relaxed); });
    }
  }

  /// Producer: push up to `count` values without blocking, returning
  /// how many were accepted (values [0, n) are moved-from). One index
  /// acquire, one release store, and one wake edge amortized over the
  /// whole batch — the per-item seq_cst wake fence is what lets a
  /// mutex+deque with batched locking catch a per-item ring (ROADMAP
  /// item 2); batching restores the expected gap.
  [[nodiscard]] std::size_t try_push_n(T* values, std::size_t count) {
    if (count == 0) return 0;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = slots_.size() - static_cast<std::size_t>(tail - head_cache_);
    if (free < count) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = slots_.size() - static_cast<std::size_t>(tail - head_cache_);
      if (free == 0) return 0;
    }
    const std::size_t n = free < count ? free : count;
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(values[i]);
    }
    tail_.store(tail + n, std::memory_order_release);
    wake(consumer_parked_, consumer_cv_);
    return n;
  }

  /// Producer: push all `count` values, parking when full. Returns how
  /// many were accepted — short only when the ring closes mid-batch.
  std::size_t push_n(T* values, std::size_t count) {
    std::size_t done = 0;
    while (done < count) {
      if (closed_.load(std::memory_order_acquire)) break;
      done += try_push_n(values + done, count - done);
      if (done == count) break;
      park(producer_parked_, producer_cv_, producer_parks_,
           [this] { return !full() || closed_.load(std::memory_order_relaxed); });
    }
    return done;
  }

  /// Consumer: pop without blocking. False when the ring is empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    wake(producer_parked_, producer_cv_);
    return true;
  }

  /// Consumer: pop up to `max` values into `out` without blocking,
  /// returning how many were taken. Amortizes the index publish and
  /// wake edge exactly like try_push_n.
  [[nodiscard]] std::size_t try_pop_n(T* out, std::size_t max) {
    if (max == 0) return 0;
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < max ? avail : max;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    wake(producer_parked_, producer_cv_);
    return n;
  }

  /// Consumer: pop, parking when empty. False means closed AND fully
  /// drained — the stream is over.
  bool pop(T& out) {
    for (;;) {
      if (try_pop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // close() happens after the final push; one refreshed retry
        // cannot miss it.
        return try_pop(out);
      }
      park(consumer_parked_, consumer_cv_, consumer_parks_,
           [this] { return !empty() || closed_.load(std::memory_order_relaxed); });
    }
  }

  /// End the stream: consumers drain what is queued then see false;
  /// blocked producers unblock with false.
  void close() WM_EXCLUDES(park_mutex_) {
    {
      const LockGuard lock(park_mutex_);
      closed_.store(true, std::memory_order_release);
    }
    producer_cv_.notify_all();
    consumer_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// Times the producer (consumer) slept on a full (empty) ring. Each
  /// counter has one writer, its side's thread; any thread may read.
  [[nodiscard]] std::uint64_t producer_parks() const noexcept {
    return producer_parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_parks() const noexcept {
    return consumer_parks_.load(std::memory_order_relaxed);
  }

  /// Approximate occupancy (exact only from a quiesced ring).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }

 private:
  [[nodiscard]] bool full() const noexcept {
    return tail_.load(std::memory_order_relaxed) -
               head_.load(std::memory_order_relaxed) ==
           slots_.size();
  }
  [[nodiscard]] bool empty() const noexcept {
    return tail_.load(std::memory_order_relaxed) ==
           head_.load(std::memory_order_relaxed);
  }

  template <typename Ready>
  void park(std::atomic<bool>& parked_flag, std::condition_variable_any& cv,
            std::atomic<std::uint64_t>& parks, Ready ready)
      WM_EXCLUDES(park_mutex_) {
    UniqueLock lock(park_mutex_);
    parked_flag.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!ready()) {
      // Only the parking side writes its counter: no read-modify-write.
      parks.store(parks.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
      // Timed backstop: a missed edge costs a blip, never a deadlock.
      cv.wait_for(lock, std::chrono::milliseconds(10), ready);
    }
    parked_flag.store(false, std::memory_order_relaxed);
  }

  void wake(std::atomic<bool>& parked_flag, std::condition_variable_any& cv)
      WM_EXCLUDES(park_mutex_) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_flag.load(std::memory_order_seq_cst)) {
      // Empty critical section orders the notify against the parker's
      // flag-set/recheck window.
      { const LockGuard lock(park_mutex_); }
      cv.notify_all();
    }
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;

  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  std::uint64_t tail_cache_ = 0;                    // consumer-owned
  std::atomic<std::uint64_t> consumer_parks_{0};    // consumer-owned
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  std::uint64_t head_cache_ = 0;                    // producer-owned
  std::atomic<std::uint64_t> producer_parks_{0};    // producer-owned
  alignas(64) std::atomic<bool> closed_{false};

  // Park/unpark edge only; never touched on the lock-free fast path.
  // wm-lint: allow(mutex): required by condition_variable for blocking
  // waits; try_push/try_pop never take it.
  // wm-lint: allow(guarded): guards no member — it serializes the
  // parked-flag/condvar wakeup protocol; ring state crosses threads via
  // the acquire/release index atomics above.
  Mutex park_mutex_;
  std::condition_variable_any producer_cv_;
  std::condition_variable_any consumer_cv_;
  std::atomic<bool> producer_parked_{false};
  std::atomic<bool> consumer_parked_{false};
};

}  // namespace wm::util
