// wm::monitor::MonitorFleet — the continuous monitor, scaled past one
// core: partition the traffic, give every partition a private
// single-threaded monitor, and keep the event path merge-free.
//
// Topology: M packet sources fan into N shards over M×N batched SPSC
// rings (one ring per (source, shard) pair, so every ring keeps exactly
// one producer and one consumer and util::SpscRing's lock-free
// handoff applies). Each source slot has one router that sends every
// packet by net::viewer_shard_hash, so all traffic from one subscriber
// address lands on one shard. Who drives the router depends on the
// source:
//
//   PacketSource  --pump thread (attach) or caller (consume)--> router
//   InjectableTap --the producer's own inject calls (attach)-->  router
//   router --per-shard sub-batches--> shard rings --> shard workers
//
// A pull source is drained by a pump: a thread spawned by attach(), or
// the caller's thread via consume(). A tap bound by attach(tap) needs
// no thread: its producer routes on inject, straight into the shard
// rings, so a tapped packet crosses one thread hop.
// Each shard worker owns a full private ContinuousMonitor (its own
// TimerWheel, flow/viewer state, LRU arena): no locks on the inference
// path, no shared state between shards. A worker owns each drained
// run until it sends the packets' buffers back to their pump over a
// twin return ring, so once warm a pump allocates nothing per packet
// (FleetStats::buffers_allocated); a bound tap's producer hands its own
// buffers over. Owning the run, the worker feeds it through
// ContinuousMonitor::feed_batch_lend: a TCP segment that has to wait
// behind a reordering hole keeps its frame's buffer instead of a copy,
// and the packet goes home with a spare of at least the frame's size
// from the shard's extractor (MonitorStats::holds_lent), so neither
// the worker nor the pump allocates or copies for it.
//
// ORDERING. A shard's wheel is shared by its viewers, so the worker
// must feed it in (approximately) capture-time order even when packets
// arrive over M independent rings. The worker runs a K-way timestamp
// merge with per-ring low-bound watermarks: a packet is fed once no
// open ring could still deliver an earlier one. Each router publishes,
// per ring, the timestamp of the next packet it has yet to push there,
// and a router whose rings are full parks on the ring whose next packet
// is its oldest; so full rings never leave workers waiting on each
// other in a cycle. Sources are assumed
// time-ordered individually (captures and taps are); a ring that stays
// silent longer than `merge_wait` is set aside (counted in
// FleetStats::merge_deferrals) rather than stalling the shard, and
// re-joins the merge as soon as it produces again. The guarantee that
// survives regardless of deferrals: per-viewer events are emitted
// serially, in that viewer's capture-time order (a viewer's packets
// all traverse one (source, shard) pair of queues... one source at a
// time — see the differential test). Cross-viewer order across shards
// is unspecified: a sink that needs one total order sorts on the
// events' capture times itself.
//
// MEMORY. FleetConfig::monitor.max_total_bytes is the *fleet-wide*
// budget: it is split evenly across shards and each shard sheds its
// own oldest-idle viewers locally — shedding never synchronizes.
//
// SHUTDOWN CONTRACT. Every attached source must reach end-of-stream
// (e.g. InjectableTap::close()) before finish() or destruction; both
// join the pump threads and wait for every bound tap's close(), and a
// source that never ends cannot be interrupted from here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wm/core/classifier.hpp"
#include "wm/core/engine/events.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/util/time.hpp"

namespace wm::monitor {

class InjectableTap;

struct FleetConfig {
  /// Worker threads, each owning one ContinuousMonitor shard.
  std::size_t shards = 1;
  /// Concurrent packet sources the fleet accepts (attach() + consume()
  /// calls combined must not exceed this).
  std::size_t sources = 1;
  /// Per-(source, shard) ring capacity in packets (rounded up to a
  /// power of two); a bound tap uses these rings, not its own. Full
  /// rings park the pump or the tap's producer — backpressure, not
  /// loss. Each ring has a twin running back from the shard to the pump
  /// that carries fed packets' buffers home for reuse, so a source keeps
  /// at most about shards × 2 × (ring_capacity + batch) packet buffers
  /// alive, however long it runs (a bound tap takes none back: its twin
  /// fills once, then the worker frees what it feeds). A full ring is resident memory (a
  /// slot holds a frame, up to ~1.5 KB), and a pump that reuses buffers
  /// outruns a shard on one viewer's burst, so the default is four
  /// batches deep: enough slack that the pump rarely parks.
  std::size_t ring_capacity = 1024;
  /// Batch size for source reads, ring pushes and ring drains.
  std::size_t batch = 256;
  /// How long a shard worker holds a timestamp-merge barrier open for
  /// a silent source before setting it aside (see header comment).
  /// Zero disables the merge entirely: packets are fed in ring-arrival
  /// order, which is fine for single-source fleets and throughput
  /// benches but weakens multi-source timer ordering.
  util::Duration merge_wait = util::Duration::millis(20);
  /// Per-shard monitor tuning. `max_total_bytes` is interpreted as the
  /// FLEET-WIDE budget and split evenly across shards;
  /// `metrics_scope`/`metrics_rollup` are overwritten per shard
  /// ("monitor.shard[i]" rolling up to "monitor.*").
  MonitorConfig monitor;
};

/// Fleet-lifetime totals. `totals` sums the per-shard MonitorStats
/// field-wise — for peak fields (viewers, memory bytes) the sum of
/// per-shard peaks is an upper bound on the true simultaneous peak,
/// not an observed instant.
struct FleetStats {
  MonitorStats totals;
  std::vector<MonitorStats> shards;
  std::uint64_t packets = 0;
  /// Frames viewer_shard_hash could not parse (no TCP/UDP transport);
  /// routed to shard 0 rather than dropped.
  std::uint64_t packets_unroutable = 0;
  /// Times a shard gave up waiting on a silent source (see
  /// FleetConfig::merge_wait).
  std::uint64_t merge_deferrals = 0;
  /// Times a pump or bound tap found a shard ring full and had to
  /// wait on it.
  std::uint64_t backpressure_waits = 0;
  /// Packet buffers the pumps had to take fresh because no returned
  /// buffer was waiting. Grows while the data plane warms up, then
  /// stays flat: steady-state reads reuse returned buffers.
  std::uint64_t buffers_allocated = 0;
  /// Sleeps on one shard's inbound packet rings (util::SpscRing's slow
  /// path): `producer` counts a pump or bound tap parked on a full
  /// ring, `consumer` the worker parked on an empty one. Only a
  /// one-source fleet's worker parks; a merging worker polls instead.
  struct RingParks {
    std::uint64_t producer = 0;
    std::uint64_t consumer = 0;
  };
  /// Indexed by shard.
  std::vector<RingParks> ring_parks;

  [[nodiscard]] std::string to_string() const;
};

/// N-shard, M-source continuous monitor. See the header comment for
/// topology, ordering and shutdown contracts.
class MonitorFleet {
 public:
  /// `classifier` must be fitted and outlive the fleet. `sink` may be
  /// null; when set it must outlive the fleet and satisfy the
  /// MonitorFleet clause of the EventSink thread-safety contract.
  MonitorFleet(const core::RecordClassifier& classifier,
               FleetConfig config = {}, engine::EventSink* sink = nullptr);
  /// Joins pumps and workers after every bound tap has closed. Prefer
  /// finish(); destruction without it still drains the rings but skips
  /// the shutdown flush (no final window settles, no kShutdown
  /// evictions), and still requires every attached source to end
  /// (shutdown contract).
  ~MonitorFleet();

  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  /// Spawn a pump thread that drains `source` to exhaustion, routing
  /// into the shard rings. `source` must outlive the fleet. Throws
  /// std::logic_error past FleetConfig::sources slots or after
  /// finish().
  void attach(engine::PacketSource& source);

  /// Bind `tap` to a source slot; no thread is spawned. From here on the
  /// tap's inject calls route on the producer's thread straight into
  /// the slot's shard rings (same hash, floors and backpressure as a
  /// pump). Its close() ends the slot: a closed tap never touches the
  /// fleet again, so either may be destroyed first; a tap closed before
  /// the bind ends its slot at once. An unbound tap refuses every
  /// inject, so bind before the producer starts injecting and before
  /// any thread may close the tap. Throws std::logic_error like
  /// attach(PacketSource&), and for a tap bound before.
  void attach(InjectableTap& tap);

  /// Pump `source` to exhaustion on the calling thread (same routing,
  /// same source-slot accounting as attach()). Returns packets routed.
  std::size_t consume(engine::PacketSource& source);

  /// True once every attached/consumed source has hit end-of-stream.
  /// Workers may still be draining rings; finish() is the barrier.
  [[nodiscard]] bool drained() const;

  /// End of monitoring: join the pumps and wait for every bound tap to
  /// close (blocks until every source ends), drain and close the
  /// rings, advance every shard to the fleet-wide last capture instant
  /// (so idle evictions fire exactly as a single monitor's would),
  /// finish the shards serially, and aggregate. Idempotent.
  FleetStats finish();

  [[nodiscard]] std::size_t shard_count() const;
  /// Live viewers summed over shards (approximate while running).
  [[nodiscard]] std::size_t active_viewers() const;
  /// Viewer-state bytes summed over shards (approximate while
  /// running) — the quantity the fleet-wide budget bounds.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wm::monitor
