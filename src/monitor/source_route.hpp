// MonitorFleet internals: the router of one source slot. A pull
// source's pump and a bound InjectableTap's inject calls both route
// through a SourceRoute, so the fleet has one routing path whichever
// thread drives it. wm-lint: hot-path
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/util/bytes.hpp"

namespace wm::monitor::detail {

struct Link;         // one (source, shard) pair of rings (fleet.cpp)
struct RouteTotals;  // fleet-wide tallies (fleet.cpp)

/// Routes one source slot's packets: viewer-hash each to its shard,
/// push the per-shard sub-batches into the slot's links, park on
/// backpressure, and hand recycled buffers back to a pump's emptied
/// read slots. Driven by one thread at a time: the slot's pump, or the
/// producer of the tap bound to the slot.
class SourceRoute {
 public:
  /// `row` holds the slot's link to each shard.
  SourceRoute(std::vector<Link*> row, RouteTotals& totals)
      : row_(std::move(row)), totals_(totals), staging_(row_.size()), sent_(row_.size()) {}

  SourceRoute(const SourceRoute&) = delete;
  SourceRoute& operator=(const SourceRoute&) = delete;

  /// Route `count` time-ordered packets, moving each out of its slot;
  /// with `refill` every emptied slot takes a recycled buffer (a pump's
  /// read slots). Blocks while a shard ring is full. Returns the packets
  /// accepted, short only when the links closed under the call.
  std::size_t route(net::Packet* packets, std::size_t count, bool refill);
  /// Route copies of borrowed packets, each into a recycled buffer.
  std::size_t route_copies(const net::Packet* packets, std::size_t count);
  /// Non-blocking route of one packet: false, with the packet left
  /// untouched, when its shard's ring is full; moved-from on success.
  [[nodiscard]] bool try_route(net::Packet& packet);

  /// Close the slot's links: a route call parked on a full ring returns
  /// short, and the workers drain what was pushed. Any thread.
  void close_links();
  /// End of stream: close the links, add the tallies to the totals and
  /// mark the route done. Once, from the driving thread, or from a
  /// thread that has seen the driving thread's last route call return.
  void end();
  /// Block until end() has run (on any thread).
  void wait_ended() const { done_.wait(false, std::memory_order_acquire); }

  /// Packets in the slot's shard rings right now (approximate).
  [[nodiscard]] std::size_t queued_approx() const;
  /// Packets accepted so far (the driving thread's count).
  [[nodiscard]] std::uint64_t routed() const { return routed_; }

 private:
  /// The packet's shard; nullopt for frames the hash cannot parse,
  /// which all ride shard 0.
  [[nodiscard]] std::optional<std::size_t> shard_of(const net::Packet& packet) const;
  /// Push the staged sub-batches of `count` packets; `newest` is their
  /// last timestamp. Returns the packets accepted.
  std::size_t push_staged(std::size_t count, std::int64_t newest);
  void publish_floor(std::size_t shard, std::int64_t newest);
  /// Move every buffer the workers have returned so far into spare_.
  void reclaim();
  /// A recycled buffer, or an empty one (counted) when none is left.
  util::Bytes take();

  std::vector<Link*> row_;
  RouteTotals& totals_;
  std::vector<std::vector<net::Packet>> staging_;
  std::vector<std::size_t> sent_;
  std::vector<util::Bytes> spare_;
  std::uint64_t routed_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t backpressure_ = 0;
  std::uint64_t allocated_ = 0;
  std::atomic<bool> done_{false};
};

}  // namespace wm::monitor::detail
