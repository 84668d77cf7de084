// wm::obs — the observability registry.
//
// A Registry owns named counters, histograms and timing spans with
// hierarchical dotted names ("monitor.shard[2].viewers.opened"). Modules
// resolve their metric pointers once, at construction, and then touch
// only the atomics on the hot path; registration is mutex-protected
// but rare. A metric name registered twice returns the same object, so
// independent components may share an aggregate counter.
//
// Rollups: a per-shard counter may declare a rollup name ("monitor.
// viewers.opened"); snapshot() publishes the rollup as the sum of its
// members. A sum over per-shard counters of a per-flow quantity is
// shard-count-invariant, which is how the snapshot's *stable* section
// stays byte-identical across fleet shard counts for the same capture.
//
// Snapshots segregate metrics by Stability (see metrics.hpp) and keep
// timing in its own section, so `stable` / `deterministic` exports are
// byte-stable and assertable in tests while wall/CPU time still rides
// along in the full report.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wm/obs/metrics.hpp"
#include "wm/util/thread_annotations.hpp"

namespace wm::obs {

/// A point-in-time, acquire-consistent copy of every metric in a
/// Registry. Plain data: safe to keep, compare and serialize after the
/// registry (or the run that fed it) is gone.
struct Snapshot {
  /// Stability::kStable counters and histogram buckets, plus rollups
  /// declared stable. Byte-identical across runs and shard counts.
  std::map<std::string, std::uint64_t> stable;
  /// Stability::kSharded metrics: deterministic for a fixed
  /// configuration, different across shard counts.
  std::map<std::string, std::uint64_t> sharded;
  /// Stability::kVolatile counters (backpressure waits and friends).
  std::map<std::string, std::uint64_t> runtime;

  struct Timing {
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Timing> timings;

  /// The stable section as canonical compact JSON (sorted keys).
  /// Byte-identical across runs and across fleet shard counts for the
  /// same input — the assertable artefact of the differential and
  /// golden-trace suites.
  [[nodiscard]] std::string stable_json() const;
  /// Stable + sharded sections: deterministic for a fixed
  /// configuration, still excludes anything run-dependent.
  [[nodiscard]] std::string deterministic_json() const;
  /// Every section, timing included, as one JSON document.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable stage report (counters grouped by prefix, timings
  /// with wall/CPU milliseconds).
  [[nodiscard]] std::string to_text() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve (registering on first use) a counter. Re-registration
  /// under the same name returns the same counter; the first
  /// registration's stability and rollup win.
  Counter* counter(const std::string& name,
                   Stability stability = Stability::kStable)
      WM_EXCLUDES(mutex_);
  /// As above, additionally contributing to rollup `rollup_name`,
  /// published at snapshot time as the members' sum with
  /// `rollup_stability`.
  Counter* counter(const std::string& name, Stability stability,
                   const std::string& rollup_name,
                   Stability rollup_stability = Stability::kStable)
      WM_EXCLUDES(mutex_);

  /// Resolve a fixed-bucket histogram. The first registration fixes the
  /// bounds; later calls under the same name ignore `upper_bounds`.
  Histogram* histogram(const std::string& name,
                       std::vector<std::uint64_t> upper_bounds,
                       Stability stability = Stability::kStable)
      WM_EXCLUDES(mutex_);
  Histogram* histogram(const std::string& name,
                       std::vector<std::uint64_t> upper_bounds,
                       Stability stability, const std::string& rollup_name,
                       Stability rollup_stability = Stability::kStable)
      WM_EXCLUDES(mutex_);

  /// Resolve a timing span (always reported under timings).
  TimingSpan* timing(const std::string& name) WM_EXCLUDES(mutex_);

  /// Acquire-consistent copy of every metric, rollups included.
  [[nodiscard]] Snapshot snapshot() const WM_EXCLUDES(mutex_);

 private:
  struct CounterEntry {
    Stability stability = Stability::kStable;
    std::unique_ptr<Counter> counter;
  };
  struct HistogramEntry {
    Stability stability = Stability::kStable;
    std::unique_ptr<Histogram> histogram;
  };
  struct CounterRollup {
    Stability stability = Stability::kStable;
    std::vector<const Counter*> members;
  };
  struct HistogramRollup {
    Stability stability = Stability::kStable;
    std::vector<const Histogram*> members;
  };

  /// Protects the registration maps only; metric *values* are lock-free
  /// atomics read via acquire loads (see metrics.hpp).
  mutable util::Mutex mutex_;
  std::map<std::string, CounterEntry> counters_ WM_GUARDED_BY(mutex_);
  std::map<std::string, HistogramEntry> histograms_ WM_GUARDED_BY(mutex_);
  std::map<std::string, CounterRollup> counter_rollups_ WM_GUARDED_BY(mutex_);
  std::map<std::string, HistogramRollup> histogram_rollups_
      WM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<TimingSpan>> timings_
      WM_GUARDED_BY(mutex_);
};

/// RAII wall + thread-CPU timer: records into a TimingSpan (or does
/// nothing when constructed against a null registry/span) on scope
/// exit.
class StageTimer {
 public:
  explicit StageTimer(TimingSpan* span);
  /// Convenience: resolve `name` in `registry` (null registry ok).
  StageTimer(Registry* registry, const std::string& name);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  TimingSpan* span_;
  std::uint64_t wall_start_ns_ = 0;
  std::uint64_t cpu_start_ns_ = 0;
};

}  // namespace wm::obs
