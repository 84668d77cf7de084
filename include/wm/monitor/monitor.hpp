// wm::monitor — always-on continuous inference over live traffic.
//
// The batch pipeline is replay-oriented: it collects every
// observation (core::extract_observations) and only decodes answers
// when the capture ends. A monitoring vantage point (the paper's §VI passive
// eavesdropper; the clinic-visit and platform-characterization settings
// in related work) never reaches end-of-capture — packets arrive
// forever, from an unbounded set of viewers — so the system must
//
//   * emit each InferredQuestion the moment its evidence window
//     closes, not at a barrier that never comes;
//   * bound memory: per-viewer state is O(1) (the running decode, not
//     the observation log), idle viewers and flows are evicted by
//     timers, and hard byte budgets shed load instead of growing;
//   * run on simulated capture time end to end, so a recorded corpus
//     replayed at any speed reproduces every decision exactly.
//
// ContinuousMonitor is the single-threaded composition of those parts:
// one TLS record-stream extractor fed slab-decoded frames (the batch
// pipeline's decoder), one hierarchical timer wheel
// (flow-idle sweeps, viewer-idle eviction, per-question evidence
// windows), and one core::ChoiceDecoder per viewer — the same
// incremental decoder core::decode_choices drives over a whole log; the
// monitor only decides when each question settles. Events leave
// through the typed engine::EventSink the moment they are known, on
// the calling thread, serially.
//
// ONLINE VS BATCH. For the same per-viewer observation sequence the
// emitted choice sequence equals core::decode_choices' output whenever
// (a) every override reaches the monitor within `evidence_window` of
// its question (the window closing is what makes an answer final), and
// (b) the viewer was not shed by a memory ceiling. Confidence values
// match except for gaps that arrive only after a question's window
// already closed — batch settles a question only when its successor
// opens and so sees those, an online emitter cannot. Batch inference
// runs on the caller's thread; for multi-core analysis run a
// MonitorFleet, which shards viewers across one monitor per worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "wm/core/classifier.hpp"
#include "wm/core/decoder.hpp"
#include "wm/core/engine/events.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/util/time.hpp"
#include "wm/util/timer_wheel.hpp"

namespace wm::monitor {

struct MonitorConfig {
  /// A question's answer becomes final this long after its anchor if
  /// no override (or next question) settles it sooner. Must cover the
  /// viewer's slowest override for online == batch answers.
  util::Duration evidence_window = util::Duration::seconds(10);
  /// Evict a viewer (decode state, timers) after this much quiet.
  /// Zero = never (finish() flushes everyone).
  util::Duration viewer_idle_timeout = util::Duration::seconds(120);
  /// Evict per-flow reassembly/parser state idle longer than this,
  /// swept from the timer wheel. Zero = never. A flow retires at its
  /// TCP teardown (RST, or the closer's ACK of the peer's FIN), so the
  /// sweep collects flows that never finish: abandoned connections and
  /// closes whose final ACK was lost. Each holds about 1 KB once its
  /// parsers have drained (mostly its flow slot;
  /// RecordStreamExtractor::memory_bytes() counts it).
  util::Duration flow_idle_timeout = util::Duration::seconds(60);
  /// Per-flow TCP reassembly tuning for the extractor.
  net::TcpStreamReassembler::Config reassembly;
  /// Timer wheel geometry (default: 10ms ticks, 256 slots, 4 levels).
  util::TimerWheel::Config wheel;

  // --- Memory ceilings ------------------------------------------------
  /// Gap-history budget per viewer: the earliest-recorded spans fall
  /// off first. The ring (16 bytes a span) is allocated whole at the
  /// viewer's first gap and counted in max_total_bytes from then on; a
  /// viewer that never sees a gap holds none.
  std::size_t max_viewer_gaps = 16;
  /// Global budget for viewer decode state (approximate bytes). The
  /// extractor's flow state is not counted: flows retire at TCP
  /// teardown, and the rest are bounded by flow_idle_timeout and the
  /// reassembly buffer budget, so each live or unfinished flow holds
  /// about 1.2 KB outside this budget. Crossing it sheds the
  /// oldest-idle viewers until back under. Zero = unlimited.
  std::size_t max_total_bytes = 0;

  /// Observability: "<metrics_scope>.*" counters and the emit-latency
  /// histogram register here. Null = zero overhead.
  obs::Registry* metrics = nullptr;
  /// Prefix for every metric this monitor registers. A standalone
  /// monitor keeps the flat "monitor" scope; MonitorFleet gives each
  /// shard "monitor.shard[i]".
  std::string metrics_scope = "monitor";
  /// Stability class for the scoped counters (kSharded under a fleet,
  /// where per-shard values depend on the shard count).
  obs::Stability metrics_stability = obs::Stability::kStable;
  /// When non-empty, every scoped counter also feeds a rollup under
  /// this prefix (e.g. "monitor") so fleet totals keep the flat names.
  /// Empty = no rollups (the standalone default).
  std::string metrics_rollup;
};

/// Lifetime totals, readable at any point (stats()) or from finish().
struct MonitorStats {
  std::uint64_t packets = 0;
  std::uint64_t client_records = 0;
  std::uint64_t viewers_opened = 0;
  std::uint64_t viewers_evicted_idle = 0;
  std::uint64_t viewers_shed = 0;      // memory-ceiling evictions
  std::uint64_t questions_opened = 0;
  std::uint64_t choices_inferred = 0;  // final answers emitted
  std::uint64_t overrides = 0;         // non-default among them
  std::uint64_t questions_synthesized = 0;  // orphan type-2 after loss
  std::uint64_t gaps_observed = 0;
  std::uint64_t flows_swept = 0;       // wheel-driven extractor sweeps
  std::uint64_t flows_closed = 0;      // retired at TCP teardown (FIN/RST)
  /// Out-of-order TCP holds whose buffer was a lent frame (only via
  /// feed_batch_lend) / a copy into a spare buffer.
  std::uint64_t holds_lent = 0;
  std::uint64_t holds_copied = 0;
  std::uint64_t timer_fires = 0;
  /// Times the global byte budget was found exceeded before shedding
  /// brought it back under. Zero across a soak = bounded memory proven.
  std::uint64_t ceiling_violations = 0;
  std::size_t peak_viewers = 0;
  std::size_t peak_memory_bytes = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Single-threaded continuous monitor. Drive it from one thread (feed /
/// consume / advance_to / finish); events are delivered serially from
/// that thread. See the header comment for online-vs-batch semantics.
class ContinuousMonitor {
 public:
  /// `classifier` must be fitted and outlive the monitor. `sink` may be
  /// null; when set it must outlive the monitor. Events fire on the
  /// driving thread — no synchronization needed in the sink.
  ContinuousMonitor(const core::RecordClassifier& classifier,
                    MonitorConfig config = {},
                    engine::EventSink* sink = nullptr);
  ~ContinuousMonitor();

  ContinuousMonitor(const ContinuousMonitor&) = delete;
  ContinuousMonitor& operator=(const ContinuousMonitor&) = delete;

  /// Offer one packet: feed_batch(&packet, 1).
  void feed(const net::Packet& packet);

  /// Offer `count` packets in capture order. The frames are decoded
  /// slab-wise (net::decode_slab, 256 per pass), then each packet in
  /// turn is handled exactly as a lone packet would be: timers with
  /// deadlines at or before its timestamp fire first (evidence windows
  /// close, idle state leaves), then it is analyzed and its events
  /// leave before the next packet is looked at. So any chunking of a
  /// stream — per packet or in runs of any length — emits the same
  /// events with the same `at`, and no answer waits for the rest of its
  /// batch. The packets need only live through the call.
  void feed_batch(const net::Packet* packets, std::size_t count);

  /// feed_batch() for a caller that owns the packets and lends their
  /// frame buffers: a TCP segment that has to wait for a hole to fill
  /// keeps its frame's buffer instead of a copy of its payload, and the
  /// packet gets in exchange an empty buffer with at least the frame's
  /// capacity. After the call every packet's `data` is unspecified
  /// (timestamps are untouched); the events are feed_batch()'s. A
  /// separate name, not an overload, so no caller lends by accident.
  void feed_batch_lend(net::Packet* packets, std::size_t count);

  /// Pull `source` to exhaustion via read_batch(), feeding each batch
  /// through feed_batch(). Returns packets fed.
  std::size_t consume(engine::PacketSource& source);

  /// Advance simulated time without traffic: fire every timer due at or
  /// before `now`. A live tap calls this on its quiet-period heartbeat
  /// so idle viewers still age out between packets.
  void advance_to(util::SimTime now);

  /// End of monitoring: flush the extractor (residual records still
  /// decode), settle every open question (ChoiceInferred, final), evict
  /// every viewer (kShutdown), and return lifetime totals. The monitor
  /// cannot be fed afterwards.
  MonitorStats finish();

  [[nodiscard]] const MonitorStats& stats() const;
  [[nodiscard]] std::size_t active_viewers() const;
  /// Approximate bytes of viewer decode state + timer wheel storage —
  /// the quantity the global ceiling bounds.
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] util::SimTime now() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wm::monitor
