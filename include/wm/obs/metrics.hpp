// Low-overhead metric primitives for the observability layer.
//
// Counters and histograms are lock-free atomics: the hot path does one
// relaxed-address fetch_add with release ordering, and snapshot readers
// load with acquire ordering, so a snapshot taken from another thread
// (e.g. inside an EventSink while workers are still feeding) is
// torn-free — every value read is some value the counter actually held.
// The acquire/release pairing additionally guarantees that when a
// writer increments counter A and then counter B, a reader that
// observes B's increment and *then* loads A observes A's too.
//
// Every call site holds a possibly-null pointer and goes through the
// inc()/observe() helpers, so a run with no registry attached costs one
// predictable branch per event and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace wm::obs {

/// How a metric's final value behaves across runs and configurations,
/// for the same input capture and seed. Determines which section of a
/// Snapshot the metric lands in, and therefore which determinism
/// guarantee tests may assert on it.
enum class Stability : std::uint8_t {
  /// Identical for a fixed input: across repeated runs and across fleet
  /// shard counts. Byte-stable in snapshots.
  kStable,
  /// Deterministic for a fixed (input, configuration) pair but varies
  /// with the shard count (per-shard breakdowns, sweep-cadence totals).
  kSharded,
  /// Run-dependent: scheduling or wall-clock artefacts (backpressure
  /// waits, queue peaks). Never asserted byte-identical.
  kVolatile,
};

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // Release: pairs with value()'s acquire so cross-counter increment
    // order survives into snapshots (see file header).
    value_.fetch_add(n, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Null-safe increment: the uninstrumented path is one branch.
inline void inc(Counter* counter, std::uint64_t n = 1) noexcept {
  if (counter != nullptr) counter->add(n);
}

/// Fixed-bucket histogram: values are counted into the first bucket
/// whose upper bound is >= value, with an implicit overflow bucket, and
/// accumulated into count/sum. Bounds are fixed at construction so
/// snapshots of the same metric are always bucket-compatible (and
/// summable across shards).
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> upper_bounds)
      : bounds_(std::move(upper_bounds)),
        buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1)) {}

  void observe(std::uint64_t value) noexcept {
    std::size_t index = 0;
    while (index < bounds_.size() && value > bounds_[index]) ++index;
    // Release, in bucket -> sum -> count order: a reader that loads
    // count first (acquire) then buckets can never see count exceed
    // the bucket total (registry.cpp snapshot relies on this).
    buckets_[index].fetch_add(1, std::memory_order_release);
    sum_.fetch_add(value, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& upper_bounds() const {
    return bounds_;
  }
  /// Bucket i counts observations <= upper_bounds()[i]; bucket
  /// upper_bounds().size() is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_acquire);
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Null-safe observation.
inline void observe(Histogram* histogram, std::uint64_t value) noexcept {
  if (histogram != nullptr) histogram->observe(value);
}

/// Accumulated wall/CPU time of one named stage. Always Volatile:
/// timing never participates in deterministic snapshots.
class TimingSpan {
 public:
  void record(std::uint64_t wall_ns, std::uint64_t cpu_ns) noexcept {
    wall_ns_.fetch_add(wall_ns, std::memory_order_release);
    cpu_ns_.fetch_add(cpu_ns, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t wall_ns() const noexcept {
    return wall_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t cpu_ns() const noexcept {
    return cpu_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> wall_ns_{0};
  std::atomic<std::uint64_t> cpu_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace wm::obs
