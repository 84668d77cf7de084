#include "wm/monitor/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "source_route.hpp"
#include "wm/monitor/live_source.hpp"
#include "wm/net/flow.hpp"
#include "wm/util/spsc_ring.hpp"
#include "wm/util/thread_annotations.hpp"

namespace wm::monitor {

namespace detail {

constexpr std::int64_t kNoTime = std::numeric_limits<std::int64_t>::min();

/// One (source, shard) pair: the ring carrying packets from the
/// source's route to the shard's worker, its twin carrying the fed
/// packets' buffers back for reuse, and the route's floor. Each ring
/// keeps exactly one producer and one consumer.
struct Link {
  /// Between two of its route's reclaims a worker hands back at most a
  /// full packet ring, its staged batch and the one batch the route
  /// pushes meanwhile; sized for that, the buffer ring never makes a
  /// pump's worker free a buffer. A bound tap's route never reclaims:
  /// its buffer rings fill once, then its workers free what they feed.
  Link(std::size_t capacity, std::size_t batch)
      : packets(capacity), buffers(packets.capacity() + 2 * batch) {}
  util::SpscRing<net::Packet> packets;  // route -> worker
  util::SpscRing<util::Bytes> buffers;  // worker -> route
  /// The route's promise (nanos): no packet older than this is still
  /// to be pushed here. Stored after the pushes it covers, so a worker
  /// that loads it before popping also sees those packets.
  std::atomic<std::int64_t> floor{kNoTime};
};

/// Fleet-wide tallies; each route adds its own once, when it closes.
struct RouteTotals {
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> unroutable{0};
  std::atomic<std::uint64_t> backpressure{0};
  std::atomic<std::uint64_t> buffers_allocated{0};
  /// Routes closed so far. Its release increment pairs with
  /// MonitorFleet::drained()'s acquire load, so a true `drained`
  /// implies the tallies above it are visible.
  std::atomic<std::size_t> sources_done{0};
};

}  // namespace detail

using detail::kNoTime;
using detail::Link;
using detail::SourceRoute;

namespace {

/// Poll slice for a shard worker waiting on its rings. The merge loop
/// cannot park on one ring while watching M of them, so it polls; a
/// slice this short is invisible next to merge_wait (default 20ms) and
/// costs nothing once traffic flows (the loop only sleeps when every
/// staged buffer is empty or a barrier is open).
constexpr auto kPollSlice = std::chrono::microseconds(100);
constexpr std::int64_t kPollSliceNanos = 100 * 1000;

}  // namespace

std::string FleetStats::to_string() const {
  std::ostringstream out;
  out << "shards=" << shards.size() << " packets=" << packets
      << " unroutable=" << packets_unroutable
      << " merge_deferrals=" << merge_deferrals
      << " backpressure_waits=" << backpressure_waits
      << " buffers_allocated=" << buffers_allocated << " parks=";
  for (std::size_t d = 0; d < ring_parks.size(); ++d) {
    out << (d == 0 ? "" : ",") << ring_parks[d].producer << '/'
        << ring_parks[d].consumer;
  }
  out << " | "
      << totals.to_string();
  return out.str();
}

// --- SourceRoute ----------------------------------------------------------

std::optional<std::size_t> SourceRoute::shard_of(const net::Packet& packet) const {
  const auto hash = net::viewer_shard_hash(packet);
  if (!hash.has_value()) return std::nullopt;
  return static_cast<std::size_t>(*hash % row_.size());
}

void SourceRoute::reclaim() {
  for (Link* link : row_) {
    const std::size_t ready = link->buffers.size_approx();
    if (ready == 0) continue;
    const std::size_t have = spare_.size();
    spare_.resize(have + ready);
    spare_.resize(have + link->buffers.try_pop_n(spare_.data() + have, ready));
  }
}

util::Bytes SourceRoute::take() {
  if (spare_.empty()) {
    ++allocated_;
    return {};
  }
  util::Bytes buffer = std::move(spare_.back());
  spare_.pop_back();
  return buffer;
}

std::size_t SourceRoute::route(net::Packet* packets, std::size_t count,
                               bool refill) {
  if (count == 0) return 0;
  if (refill) reclaim();
  const std::int64_t newest = packets[count - 1].timestamp.nanos();
  for (std::size_t i = 0; i < count; ++i) {
    const auto shard = shard_of(packets[i]);
    if (!shard.has_value()) ++unroutable_;
    staging_[shard.value_or(0)].push_back(std::move(packets[i]));
    if (refill) packets[i].data = take();
  }
  return push_staged(count, newest);
}

std::size_t SourceRoute::route_copies(const net::Packet* packets,
                                      std::size_t count) {
  if (count == 0) return 0;
  reclaim();
  for (std::size_t i = 0; i < count; ++i) {
    const net::Packet& packet = packets[i];
    const auto shard = shard_of(packet);
    if (!shard.has_value()) ++unroutable_;
    net::Packet& copy = staging_[shard.value_or(0)].emplace_back();
    copy.timestamp = packet.timestamp;
    copy.original_length = packet.original_length;
    copy.data = take();
    copy.data.assign(packet.data.begin(), packet.data.end());
  }
  return push_staged(count, packets[count - 1].timestamp.nanos());
}

bool SourceRoute::try_route(net::Packet& packet) {
  const auto shard = shard_of(packet);
  const std::int64_t at = packet.timestamp.nanos();
  if (!row_[shard.value_or(0)]->packets.try_push(packet)) return false;
  if (!shard.has_value()) ++unroutable_;
  ++routed_;
  for (std::size_t d = 0; d < row_.size(); ++d) publish_floor(d, at);
  return true;
}

void SourceRoute::publish_floor(std::size_t shard, std::int64_t newest) {
  const std::vector<net::Packet>& out = staging_[shard];
  row_[shard]->floor.store(
      sent_[shard] < out.size() ? out[sent_[shard]].timestamp.nanos() : newest,
      std::memory_order_release);
}

/// `newest` is a floor for everything the source has not handed over
/// yet. When rings are full the route parks on the link whose next
/// packet is the oldest one unsent, and each link's floor is the
/// timestamp of its own next unsent packet. So a parked route holds
/// back nothing older than what the worker it waits on already has
/// staged, and merging workers can never wait on each other in a cycle.
std::size_t SourceRoute::push_staged(std::size_t count, std::int64_t newest) {
  const std::size_t shards = row_.size();
  for (std::size_t d = 0; d < shards; ++d) {
    sent_[d] = 0;
    publish_floor(d, newest);
  }
  std::size_t accepted = count;
  for (;;) {
    std::size_t oldest = shards;
    std::int64_t oldest_nanos = std::numeric_limits<std::int64_t>::max();
    for (std::size_t d = 0; d < shards; ++d) {
      std::vector<net::Packet>& out = staging_[d];
      if (sent_[d] == out.size()) continue;
      const std::size_t pushed =
          row_[d]->packets.try_push_n(out.data() + sent_[d], out.size() - sent_[d]);
      if (pushed > 0) {
        sent_[d] += pushed;
        publish_floor(d, newest);
      }
      if (sent_[d] < out.size() && out[sent_[d]].timestamp.nanos() < oldest_nanos) {
        oldest = d;
        oldest_nanos = out[sent_[d]].timestamp.nanos();
      }
    }
    if (oldest == shards) break;
    ++backpressure_;
    if (row_[oldest]->packets.push_n(staging_[oldest].data() + sent_[oldest], 1) == 0) {
      for (std::size_t d = 0; d < shards; ++d) accepted -= staging_[d].size() - sent_[d];
      break;
    }
    ++sent_[oldest];
    publish_floor(oldest, newest);
  }
  for (std::vector<net::Packet>& out : staging_) out.clear();
  routed_ += accepted;
  return accepted;
}

std::size_t SourceRoute::queued_approx() const {
  std::size_t queued = 0;
  for (const Link* link : row_) queued += link->packets.size_approx();
  return queued;
}

void SourceRoute::close_links() {
  for (Link* link : row_) link->packets.close();
}

void SourceRoute::end() {
  close_links();
  totals_.packets.fetch_add(routed_, std::memory_order_relaxed);
  totals_.unroutable.fetch_add(unroutable_, std::memory_order_relaxed);
  totals_.backpressure.fetch_add(backpressure_, std::memory_order_relaxed);
  totals_.buffers_allocated.fetch_add(allocated_, std::memory_order_relaxed);
  totals_.sources_done.fetch_add(1, std::memory_order_release);
  // Pairs with wait_ended(): a waiter that wakes sees the tallies.
  done_.store(true, std::memory_order_release);
  done_.notify_all();
}

// --- MonitorFleet ---------------------------------------------------------

struct MonitorFleet::Impl {
  /// Worker-side view of one link: a staged batch plus the lower bound
  /// on what the source can still deliver.
  struct Lane {
    Link* link = nullptr;
    std::vector<net::Packet> staged;
    std::size_t head = 0;
    std::size_t count = 0;
    /// Lower bound (nanos) on every future packet from this lane —
    /// valid because individual sources are time-ordered. Raised
    /// artificially when a merge barrier is deferred (see below).
    std::int64_t low_bound = kNoTime;
    bool exhausted = false;
    /// A trusted lane's emptiness blocks the merge barrier; a lane
    /// that went silent past merge_wait loses trust (and its blocking
    /// power) until it produces again.
    bool trusted = true;

    [[nodiscard]] bool has_staged() const { return head < count; }
    [[nodiscard]] std::int64_t head_nanos() const {
      return staged[head].timestamp.nanos();
    }
  };

  struct Shard {
    std::unique_ptr<ContinuousMonitor> monitor;
    std::thread worker;
    /// Last capture instant fed (written by the worker, read after
    /// join — the fleet-wide finish horizon).
    std::int64_t max_fed = kNoTime;
    /// Coarse live gauges for active_viewers()/memory_bytes(),
    /// refreshed by the worker every ~1k feeds.
    std::atomic<std::size_t> approx_viewers{0};
    std::atomic<std::size_t> approx_bytes{0};
  };

  Impl(const core::RecordClassifier& classifier_in, FleetConfig config_in,
       engine::EventSink* sink_in)
      : classifier(classifier_in), config(normalize(std::move(config_in))) {
    links.resize(config.sources);
    for (auto& row : links) {
      row.reserve(config.shards);
      for (std::size_t d = 0; d < config.shards; ++d) {
        row.push_back(std::make_unique<Link>(config.ring_capacity, config.batch));
      }
      std::vector<Link*> route_row;
      for (const auto& link : row) route_row.push_back(link.get());
      routes.push_back(std::make_unique<SourceRoute>(std::move(route_row), totals));
    }

    shards = std::vector<Shard>(config.shards);
    for (std::size_t d = 0; d < config.shards; ++d) {
      shards[d].monitor = std::make_unique<ContinuousMonitor>(
          classifier, shard_config(d), sink_in);
    }
    for (std::size_t d = 0; d < config.shards; ++d) {
      shards[d].worker = std::thread([this, d] { worker_loop(d); });
    }
  }

  static FleetConfig normalize(FleetConfig config) {
    config.shards = std::max<std::size_t>(config.shards, 1);
    config.sources = std::max<std::size_t>(config.sources, 1);
    config.batch = std::max<std::size_t>(config.batch, 1);
    config.ring_capacity = std::max<std::size_t>(config.ring_capacity, 2);
    return config;
  }

  [[nodiscard]] MonitorConfig shard_config(std::size_t shard) const {
    MonitorConfig out = config.monitor;
    // The configured budget is fleet-wide; each shard enforces its
    // even split locally (shedding never synchronizes).
    if (out.max_total_bytes != 0) {
      out.max_total_bytes =
          std::max<std::size_t>(out.max_total_bytes / config.shards, 1);
    }
    if (out.metrics != nullptr) {
      out.metrics_rollup = out.metrics_scope;
      out.metrics_scope += ".shard[" + std::to_string(shard) + "]";
      out.metrics_stability = obs::Stability::kSharded;
    }
    return out;
  }

  // --- pump (one per pull source) ---------------------------------------

  /// Drain `source` to exhaustion through its slot's route. Owned
  /// slots hand their frames over and take recycled buffers, so the
  /// source's next read copies into capacity it already has; a
  /// borrowed batch is copied.
  std::size_t pump(engine::PacketSource& source, std::size_t slot) {
    SourceRoute& route = *routes[slot];
    engine::PacketBatch batch;
    for (;;) {
      const std::size_t got = source.read_batch(batch, config.batch);
      if (got == 0) break;
      net::Packet* slots = batch.mutable_slots();
      const std::size_t accepted = slots != nullptr
                                       ? route.route(slots, got, /*refill=*/true)
                                       : route.route_copies(batch.begin(), got);
      if (accepted < got) break;  // links closed: the fleet is aborting
    }
    route.end();
    return route.routed();
  }

  // --- worker (one per shard) -------------------------------------------

  void worker_loop(std::size_t shard) {
    if (config.sources == 1) {
      single_source_loop(shard);
    } else {
      merge_loop(shard);
    }
    publish_gauges(shard);
  }

  /// The worker owns staged packets until give_back(), so it lends
  /// their frame buffers to the monitor's reassembly holds.
  static void feed_run(Shard& state, net::Packet* run, std::size_t count) {
    state.monitor->feed_batch_lend(run, count);
    for (std::size_t i = 0; i < count; ++i) {
      state.max_fed = std::max(state.max_fed, run[i].timestamp.nanos());
    }
  }

  /// Hand the buffers of `count` fed packets back to their pump.
  /// Whatever the return ring cannot take right now is freed, so the
  /// worker never waits on the pump. `scratch` holds at least `count`
  /// (empty) buffers.
  static void give_back(util::SpscRing<util::Bytes>& back, net::Packet* fed,
                        std::size_t count, std::vector<util::Bytes>& scratch) {
    for (std::size_t i = 0; i < count; ++i) scratch[i].swap(fed[i].data);
    const std::size_t kept = back.try_push_n(scratch.data(), count);
    for (std::size_t i = kept; i < count; ++i) util::Bytes().swap(scratch[i]);
  }

  void publish_gauges(std::size_t shard) {
    Shard& state = shards[shard];
    state.approx_viewers.store(state.monitor->active_viewers(),
                               std::memory_order_relaxed);
    state.approx_bytes.store(state.monitor->memory_bytes(),
                             std::memory_order_relaxed);
  }

  /// One source: no merge needed — a plain blocking pop for the first
  /// packet, then batch drains.
  /// Each drain is fed as one run, then its buffers go home.
  void single_source_loop(std::size_t shard) {
    Shard& state = shards[shard];
    util::SpscRing<net::Packet>& ring = links[0][shard]->packets;
    util::SpscRing<util::Bytes>& back = links[0][shard]->buffers;
    std::vector<net::Packet> staged(config.batch);
    std::vector<util::Bytes> scratch(config.batch);
    std::size_t feeds = 0;
    while (ring.pop(staged[0])) {
      std::size_t got = 1 + ring.try_pop_n(staged.data() + 1, staged.size() - 1);
      do {
        feed_run(state, staged.data(), got);
        give_back(back, staged.data(), got, scratch);
        feeds += got;
        if ((feeds & 1023u) < got) publish_gauges(shard);
      } while ((got = ring.try_pop_n(staged.data(), staged.size())) > 0);
    }
  }

  /// Refill an empty lane from its ring, first handing the fed batch's
  /// buffers back. Returns true when packets were staged. Sets
  /// `exhausted` once the ring is closed and drained.
  static bool refill(Lane& lane, std::vector<util::Bytes>& scratch) {
    Link& link = *lane.link;
    if (lane.count > 0) give_back(link.buffers, lane.staged.data(), lane.count, scratch);
    lane.head = 0;
    // Load the floor before popping: an empty pop then proves nothing
    // older than the floor is still coming.
    const std::int64_t floor = link.floor.load(std::memory_order_acquire);
    lane.count = link.packets.try_pop_n(lane.staged.data(), lane.staged.size());
    if (lane.count == 0) {
      if (!link.packets.closed()) {
        lane.low_bound = std::max(lane.low_bound, floor);
        return false;
      }
      // close() happens after the final push; one refreshed retry
      // cannot miss it.
      lane.count = link.packets.try_pop_n(lane.staged.data(), lane.staged.size());
      if (lane.count == 0) {
        lane.exhausted = true;
        return false;
      }
    }
    // The batch is time-ordered (the source is), so its last packet
    // bounds everything the lane can still deliver.
    lane.trusted = true;
    lane.low_bound = lane.staged[lane.count - 1].timestamp.nanos();
    return true;
  }

  /// M sources: K-way timestamp merge. Feed the globally oldest staged
  /// packet, but only once no open trusted lane could still deliver an
  /// older one; hold a blocked barrier at most merge_wait before
  /// setting the silent lanes aside (merge_deferrals).
  void merge_loop(std::size_t shard) {
    Shard& state = shards[shard];
    std::vector<Lane> lanes(config.sources);
    for (std::size_t s = 0; s < config.sources; ++s) {
      lanes[s].link = links[s][shard].get();
      lanes[s].staged.resize(config.batch);
    }
    std::vector<util::Bytes> scratch(config.batch);
    const std::int64_t merge_wait = config.merge_wait.total_nanos();
    std::int64_t waited = 0;
    std::size_t feeds = 0;

    for (;;) {
      bool all_exhausted = true;
      for (Lane& lane : lanes) {
        if (lane.exhausted) continue;
        if (!lane.has_staged()) refill(lane, scratch);
        all_exhausted &= lane.exhausted;
      }

      // Oldest staged head wins; ties break toward the lowest source
      // slot so the merge is deterministic.
      std::size_t best = lanes.size();
      std::int64_t best_ts = std::numeric_limits<std::int64_t>::max();
      for (std::size_t s = 0; s < lanes.size(); ++s) {
        if (!lanes[s].has_staged()) continue;
        const std::int64_t ts = lanes[s].head_nanos();
        if (ts < best_ts) {
          best = s;
          best_ts = ts;
        }
      }

      if (best == lanes.size()) {
        if (all_exhausted) break;
        std::this_thread::sleep_for(kPollSlice);
        continue;
      }

      bool blocked = false;
      if (merge_wait > 0) {
        for (const Lane& lane : lanes) {
          if (!lane.exhausted && lane.trusted && !lane.has_staged() &&
              lane.low_bound < best_ts) {
            blocked = true;
            break;
          }
        }
      }

      if (!blocked) {
        Lane& lane = lanes[best];
        feed_run(state, &lane.staged[lane.head], 1);
        ++lane.head;
        waited = 0;
        ++feeds;
        if ((feeds & 1023u) == 0) publish_gauges(shard);
        continue;
      }

      if (waited >= merge_wait) {
        // The silent lanes have had their chance: stop letting them
        // hold the shard hostage. They re-earn trust (and blocking
        // power) the moment they produce again; until then we assume
        // nothing older than best_ts is coming from them. A straggler
        // that does arrive later is still fed — only cross-source
        // timer interleaving weakens, never per-viewer order (a
        // viewer's packets ride a single lane).
        deferrals.fetch_add(1, std::memory_order_relaxed);
        for (Lane& lane : lanes) {
          if (!lane.exhausted && lane.trusted && !lane.has_staged() &&
              lane.low_bound < best_ts) {
            lane.trusted = false;
            lane.low_bound = best_ts;
          }
        }
        waited = 0;
        continue;
      }
      std::this_thread::sleep_for(kPollSlice);
      waited += kPollSliceNanos;
    }
  }

  // --- lifecycle --------------------------------------------------------

  [[nodiscard]] std::size_t take_slot_locked() WM_REQUIRES(attach_mutex) {
    if (finishing) {
      throw std::logic_error("MonitorFleet: attach/consume after finish()");
    }
    if (attached >= config.sources) {
      throw std::logic_error(
          "MonitorFleet: more sources than FleetConfig::sources");
    }
    return attached++;
  }

  std::size_t take_source_slot() WM_EXCLUDES(attach_mutex) {
    const util::LockGuard lock(attach_mutex);
    return take_slot_locked();
  }

  /// Claim a slot AND register the pump thread in one critical
  /// section. Taking the slot and emplacing the thread under separate
  /// lock acquisitions (as attach() once did) left a window where
  /// finish() could observe the slot as attached, see no pump to join,
  /// and close the rings while the pump thread was still being born.
  void attach_source(engine::PacketSource& source) WM_EXCLUDES(attach_mutex) {
    const util::LockGuard lock(attach_mutex);
    const std::size_t slot = take_slot_locked();
    pumps.emplace_back([this, &source, slot] { pump(source, slot); });
  }

  /// Claim a slot for a tap; its route is the tap's from now on.
  SourceRoute& bind_tap() WM_EXCLUDES(attach_mutex) {
    const util::LockGuard lock(attach_mutex);
    const std::size_t slot = take_slot_locked();
    tap_routes.push_back(routes[slot].get());
    return *routes[slot];
  }

  /// Mark the fleet finishing and wait out every source: join the
  /// pumps, then wait for each bound tap's close(). Either owns the
  /// producer side of its rings until its source ends (shutdown
  /// contract). False when a shutdown already ran.
  bool stop_sources() WM_REQUIRES(finish_mutex) WM_EXCLUDES(attach_mutex) {
    std::vector<std::thread> to_join;
    std::vector<SourceRoute*> to_wait;
    {
      const util::LockGuard lock(attach_mutex);
      if (finishing) return false;
      finishing = true;
      to_join.swap(pumps);
      to_wait = tap_routes;
    }
    // Joining the swapped local (not `pumps` unlocked) keeps attach()'s
    // emplace ordered against the join.
    for (std::thread& pump_thread : to_join) {
      if (pump_thread.joinable()) pump_thread.join();
    }
    for (const SourceRoute* route : to_wait) route->wait_ended();
    // Close every ring — including slots never attached — so each
    // worker's lanes exhaust and the workers drain out.
    for (auto& row : links) {
      for (auto& link : row) link->packets.close();
    }
    for (Shard& shard : shards) {
      if (shard.worker.joinable()) shard.worker.join();
    }
    return true;
  }

  FleetStats finish() WM_EXCLUDES(finish_mutex, attach_mutex) {
    // finish_mutex serializes whole shutdowns: a second caller racing
    // the first used to read `stats` while the winner was still
    // writing it; now it blocks until the winner is done and returns
    // the completed stats. Ordering: finish_mutex before attach_mutex.
    const util::LockGuard finish_lock(finish_mutex);
    if (!stop_sources()) return stats;

    // Advance every shard to the fleet-wide last capture instant so
    // idle evictions fire exactly where a single monitor's would have
    // (its wheel saw the global maximum timestamp; each shard's only
    // saw its own traffic).
    std::int64_t horizon = kNoTime;
    for (const Shard& shard : shards) {
      horizon = std::max(horizon, shard.max_fed);
    }
    if (horizon != kNoTime) {
      for (Shard& shard : shards) {
        shard.monitor->advance_to(util::SimTime::from_nanos(horizon));
      }
    }
    stats.shards.reserve(shards.size());
    for (Shard& shard : shards) {
      stats.shards.push_back(shard.monitor->finish());
    }

    for (const MonitorStats& s : stats.shards) accumulate(stats.totals, s);
    stats.packets = totals.packets.load(std::memory_order_relaxed);
    stats.packets_unroutable = totals.unroutable.load(std::memory_order_relaxed);
    stats.merge_deferrals = deferrals.load(std::memory_order_relaxed);
    stats.backpressure_waits = totals.backpressure.load(std::memory_order_relaxed);
    stats.buffers_allocated =
        totals.buffers_allocated.load(std::memory_order_relaxed);
    stats.ring_parks.resize(shards.size());
    for (const auto& row : links) {
      for (std::size_t d = 0; d < row.size(); ++d) {
        stats.ring_parks[d].producer += row[d]->packets.producer_parks();
        stats.ring_parks[d].consumer += row[d]->packets.consumer_parks();
      }
    }
    return stats;
  }

  static void accumulate(MonitorStats& total, const MonitorStats& shard) {
    total.packets += shard.packets;
    total.client_records += shard.client_records;
    total.viewers_opened += shard.viewers_opened;
    total.viewers_evicted_idle += shard.viewers_evicted_idle;
    total.viewers_shed += shard.viewers_shed;
    total.questions_opened += shard.questions_opened;
    total.choices_inferred += shard.choices_inferred;
    total.overrides += shard.overrides;
    total.questions_synthesized += shard.questions_synthesized;
    total.gaps_observed += shard.gaps_observed;
    total.flows_swept += shard.flows_swept;
    total.flows_closed += shard.flows_closed;
    total.holds_lent += shard.holds_lent;
    total.holds_copied += shard.holds_copied;
    total.timer_fires += shard.timer_fires;
    total.ceiling_violations += shard.ceiling_violations;
    // Sum of per-shard peaks: an upper bound on the simultaneous peak.
    total.peak_viewers += shard.peak_viewers;
    total.peak_memory_bytes += shard.peak_memory_bytes;
  }

  void abort_without_finish() WM_EXCLUDES(finish_mutex, attach_mutex) {
    const util::LockGuard finish_lock(finish_mutex);
    (void)stop_sources();  // false: finish() already ran
    // Monitors are destroyed un-finished: no shutdown events fire.
  }

  const core::RecordClassifier& classifier;
  const FleetConfig config;
  /// links[source][shard]: the packet ring's producer is that source's
  /// route and its consumer that shard's worker; the buffer ring runs
  /// the other way. Strict SPSC per ring.
  std::vector<std::vector<std::unique_ptr<Link>>> links;
  /// routes[source]: driven by the slot's pump or by its bound tap.
  std::vector<std::unique_ptr<SourceRoute>> routes;
  detail::RouteTotals totals;
  std::vector<Shard> shards;

  // wm-lint: allow(mutex): attach/finish lifecycle edges only — never
  // touched per packet.
  util::Mutex attach_mutex;  // attach/consume slot bookkeeping
  std::vector<std::thread> pumps WM_GUARDED_BY(attach_mutex);
  std::size_t attached WM_GUARDED_BY(attach_mutex) = 0;
  bool finishing WM_GUARDED_BY(attach_mutex) = false;
  /// The routes bound taps drive, in bind order.
  std::vector<SourceRoute*> tap_routes WM_GUARDED_BY(attach_mutex);

  // Serializes finish()/abort end to end (acquired before
  // attach_mutex); a losing caller blocks, then reads completed stats.
  // wm-lint: allow(mutex): taken once per fleet lifetime.
  util::Mutex finish_mutex;

  // Relaxed: read into stats after the workers are joined.
  std::atomic<std::uint64_t> deferrals{0};

  FleetStats stats WM_GUARDED_BY(finish_mutex);
};

MonitorFleet::MonitorFleet(const core::RecordClassifier& classifier,
                           FleetConfig config, engine::EventSink* sink)
    : impl_(std::make_unique<Impl>(classifier, std::move(config), sink)) {}

MonitorFleet::~MonitorFleet() {
  if (impl_ != nullptr) impl_->abort_without_finish();
}

void MonitorFleet::attach(engine::PacketSource& source) {
  impl_->attach_source(source);
}

void MonitorFleet::attach(InjectableTap& tap) {
  if (tap.route_ != nullptr) {
    throw std::logic_error("MonitorFleet: tap is already bound to a fleet");
  }
  SourceRoute& route = impl_->bind_tap();
  tap.route_ = &route;
  if (tap.closed()) route.end();
}

std::size_t MonitorFleet::consume(engine::PacketSource& source) {
  const std::size_t slot = impl_->take_source_slot();
  return impl_->pump(source, slot);
}

bool MonitorFleet::drained() const {
  const util::LockGuard lock(impl_->attach_mutex);
  return impl_->totals.sources_done.load(std::memory_order_acquire) >=
         impl_->attached;
}

FleetStats MonitorFleet::finish() { return impl_->finish(); }

std::size_t MonitorFleet::shard_count() const { return impl_->config.shards; }

std::size_t MonitorFleet::active_viewers() const {
  std::size_t total = 0;
  for (const Impl::Shard& shard : impl_->shards) {
    total += shard.approx_viewers.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t MonitorFleet::memory_bytes() const {
  std::size_t total = 0;
  for (const Impl::Shard& shard : impl_->shards) {
    total += shard.approx_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace wm::monitor
