#include "wm/monitor/live_source.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "source_route.hpp"

namespace wm::monitor {

/// One call on a bound tap's route: get() is null once close() has
/// begun, and close() waits for every live RouteUse to end.
class InjectableTap::RouteUse {
 public:
  explicit RouteUse(const InjectableTap& tap) : tap_(tap) {
    if ((tap_.route_calls_.fetch_add(1, std::memory_order_acquire) & kRouteClosed) == 0) {
      route_ = tap_.route_;
    }
  }
  ~RouteUse() {
    // The last call out after close() began wakes the closer.
    if (tap_.route_calls_.fetch_sub(1, std::memory_order_release) == (kRouteClosed | 1)) {
      tap_.route_calls_.notify_all();
    }
  }
  RouteUse(const RouteUse&) = delete;
  RouteUse& operator=(const RouteUse&) = delete;

  [[nodiscard]] detail::SourceRoute* get() const { return route_; }

 private:
  const InjectableTap& tap_;
  detail::SourceRoute* route_ = nullptr;
};

bool InjectableTap::inject(net::Packet packet) {
  const RouteUse use(*this);
  return use.get() != nullptr && use.get()->route(&packet, 1, /*refill=*/false) == 1;
}

bool InjectableTap::try_inject(net::Packet& packet) {
  const RouteUse use(*this);
  return use.get() != nullptr && use.get()->try_route(packet);
}

std::size_t InjectableTap::inject_batch(net::Packet* packets, std::size_t count) {
  const RouteUse use(*this);
  return use.get() != nullptr ? use.get()->route(packets, count, /*refill=*/false) : 0;
}

void InjectableTap::close() {
  std::uint32_t calls = route_calls_.fetch_or(kRouteClosed, std::memory_order_acquire);
  // Closed before, or not bound yet (the bind ends the slot then).
  if ((calls & kRouteClosed) != 0 || route_ == nullptr) return;
  // Wake a producer parked on a full shard ring, let every call in
  // flight return, then end the slot: after that the fleet may go.
  route_->close_links();
  calls |= kRouteClosed;
  while (calls != kRouteClosed) {
    route_calls_.wait(calls, std::memory_order_acquire);
    calls = route_calls_.load(std::memory_order_acquire);
  }
  route_->end();
}

std::size_t InjectableTap::queued_approx() const {
  const RouteUse use(*this);
  return use.get() != nullptr ? use.get()->queued_approx() : 0;
}

std::chrono::steady_clock::time_point TimedReplaySource::due_at(
    util::SimTime ts) const {
  const double capture_delta =
      static_cast<double>(ts.nanos() - capture_start_nanos_);
  const double wall_delta = capture_delta / config_.speed;
  return wall_start_ +
         std::chrono::nanoseconds(static_cast<std::int64_t>(wall_delta));
}

void TimedReplaySource::wait_until_due(util::SimTime ts) {
  if (config_.speed <= 0.0) return;
  if (!epoch_set_) {
    epoch_set_ = true;
    wall_start_ = std::chrono::steady_clock::now();
    capture_start_nanos_ = ts.nanos();
    return;
  }
  const auto deadline = due_at(ts);
  const auto max_slice =
      std::chrono::nanoseconds(std::max<std::int64_t>(
          config_.max_sleep.total_nanos(), 1));
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    const auto remaining = deadline - now;
    std::this_thread::sleep_for(remaining < max_slice ? remaining : max_slice);
  }
}

bool TimedReplaySource::fill_pending() {
  if (pending_.has_value()) return true;
  pending_ = inner_.next();
  return pending_.has_value();
}

std::optional<net::Packet> TimedReplaySource::next() {
  if (!fill_pending()) return std::nullopt;
  wait_until_due(pending_->timestamp);
  position_ = pending_->timestamp;
  std::optional<net::Packet> out = std::move(pending_);
  pending_.reset();
  return out;
}

std::size_t TimedReplaySource::read_batch(engine::PacketBatch& out,
                                          std::size_t max) {
  out.clear();
  if (max == 0 || !fill_pending()) return 0;
  // Block for the first packet; everything after rides along only if
  // it is already due (a capture burst replays as a burst).
  wait_until_due(pending_->timestamp);
  position_ = pending_->timestamp;
  out.append(std::move(*pending_));
  pending_.reset();
  std::size_t count = 1;
  const auto now = std::chrono::steady_clock::now();
  while (count < max && fill_pending()) {
    if (config_.speed > 0.0 && due_at(pending_->timestamp) > now) break;
    position_ = pending_->timestamp;
    out.append(std::move(*pending_));
    pending_.reset();
    ++count;
  }
  return count;
}

}  // namespace wm::monitor
