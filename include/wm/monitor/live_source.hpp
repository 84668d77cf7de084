// Live packet sources for the continuous monitor.
//
// Capture-file replay hands the monitor packets as fast as the disk
// can read them — correct for batch scoring, useless for exercising
// the *time-driven* parts of a long-running service (evidence-window
// timers, idle eviction, load shedding under sustained pressure).
// Two sources close that gap:
//
//  * InjectableTap — an in-process tap. A producer thread injects
//    packets (a capture replayer, a test, eventually a NIC reader)
//    into a MonitorFleet source slot (MonitorFleet::attach(
//    InjectableTap&)): inject routes on the producer's thread
//    straight into the fleet's shard rings, lock-free in the steady
//    state, and parks when a shard falls behind. A single monitor
//    with a live tap is a one-shard fleet.
//
//  * TimedReplaySource — timing-faithful replay. Wraps any inner
//    source and paces delivery by the original capture timestamps at
//    a configurable speed (1x reproduces the recorded cadence, Nx
//    compresses a day of monitoring into minutes). Soak tests use it
//    to drive the monitor the way a live vantage point would.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "wm/core/engine/source.hpp"
#include "wm/net/packet.hpp"
#include "wm/util/time.hpp"

namespace wm::monitor {

class MonitorFleet;
namespace detail {
class SourceRoute;
}

/// In-process packet tap: a handle to one MonitorFleet source slot.
/// MonitorFleet::attach(InjectableTap&) binds it; from then on one
/// producer thread injects, and each inject routes into the slot's
/// shard rings, sized by FleetConfig::ring_capacity, parking when
/// those are full. A tap binds once. Until it is bound, and once it is
/// closed, every inject is refused (false / 0); try_inject and
/// inject_batch then leave their packets untouched. close() ends the
/// slot, from any thread; from then on the tap never touches the
/// fleet, so either may be destroyed first.
class InjectableTap final {
 public:
  /// Blocking inject. False when the tap is unbound or closed (or
  /// closes while the call is parked).
  bool inject(net::Packet packet);
  /// Non-blocking inject. False when a shard ring is full or the tap
  /// is unbound or closed; the packet is left untouched then, and
  /// moved-from when accepted.
  [[nodiscard]] bool try_inject(net::Packet& packet);
  /// Blocking batch inject; returns packets accepted (0 when unbound
  /// or closed, short only when the tap closes mid-batch). Packets
  /// [0, n) are moved-from.
  std::size_t inject_batch(net::Packet* packets, std::size_t count);
  /// End the stream, from any thread: the fleet's workers drain the
  /// shard rings, and the call returns once any inject still running
  /// on the producer has returned (it may return short), then ends the
  /// fleet's source slot. Closing an unbound tap makes its later bind
  /// end the slot at once. Idempotent.
  void close();
  [[nodiscard]] bool closed() const {
    return (route_calls_.load(std::memory_order_acquire) & kRouteClosed) != 0;
  }
  /// Packets in the slot's shard rings (0 when unbound or closed). Any
  /// thread.
  [[nodiscard]] std::size_t queued_approx() const;

 private:
  friend class MonitorFleet;  // binds route_
  class RouteUse;

  /// The fleet source slot the tap is bound to; null when unbound. Set
  /// once, by the bind, before the producer starts; read through a
  /// RouteUse only, since the slot is gone once the tap has closed and
  /// its fleet is destroyed.
  detail::SourceRoute* route_ = nullptr;
  /// Calls on route_ in flight, plus kRouteClosed once close() has
  /// begun. close() waits for the count to fall to zero before it ends
  /// the slot, so no call can touch a route the fleet may free.
  static constexpr std::uint32_t kRouteClosed = 1u << 31;
  mutable std::atomic<std::uint32_t> route_calls_{0};
};

/// Paces an inner source by its capture timestamps: packet k is
/// delivered no earlier than wall_start + (ts_k - ts_0) / speed. The
/// monitor consuming through this source experiences the recorded
/// traffic cadence — quiet periods included — so its timers fire in
/// the same relative order they would at a live vantage point.
class TimedReplaySource final : public engine::PacketSource {
 public:
  struct Config {
    /// Replay speed multiplier: 1.0 = original cadence, 10.0 = ten
    /// capture-seconds per wall-second. Values <= 0 are treated as
    /// "as fast as possible" (no pacing).
    double speed = 1.0;
    /// Longest single sleep while waiting for a packet to come due;
    /// long capture gaps are slept in slices of this so a driver
    /// thread stays responsive.
    util::Duration max_sleep = util::Duration::millis(50);
  };

  /// `inner` must outlive this source.
  TimedReplaySource(engine::PacketSource& inner, Config config)
      : inner_(inner), config_(config) {}
  explicit TimedReplaySource(engine::PacketSource& inner)
      : TimedReplaySource(inner, Config()) {}

  std::optional<net::Packet> next() override;
  /// Waits until the inner source's next packet is due, then delivers
  /// it plus every further packet already due *now* (up to `max`) —
  /// a burst in the capture replays as a burst, not as `max` sleeps.
  [[nodiscard]] std::size_t read_batch(engine::PacketBatch& out,
                                       std::size_t max) override;
  [[nodiscard]] const std::optional<Error>& error() const override {
    return inner_.error();
  }

  /// Capture time of the most recently delivered packet.
  [[nodiscard]] util::SimTime replay_position() const { return position_; }

 private:
  /// Wall-clock instant `ts` comes due (epoch fixed by first packet).
  [[nodiscard]] std::chrono::steady_clock::time_point due_at(
      util::SimTime ts) const;
  void wait_until_due(util::SimTime ts);
  /// Pull the next inner packet into pending_ (if not already there).
  bool fill_pending();

  engine::PacketSource& inner_;
  Config config_;
  std::optional<net::Packet> pending_;
  bool epoch_set_ = false;
  std::chrono::steady_clock::time_point wall_start_{};
  std::int64_t capture_start_nanos_ = 0;
  util::SimTime position_;
};

}  // namespace wm::monitor
