// Attacker-side record-stream extraction.
//
// Chains the passive pipeline the paper's eavesdropper runs: decode
// packets → group into flows → reassemble each TCP direction → parse
// TLS records → emit, per flow, the time-ordered sequence of
// (direction, content type, record length) events. Record *lengths* of
// client-to-server application records are the side-channel of §III.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wm/net/flow.hpp"
#include "wm/net/packet.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record.hpp"
#include "wm/util/arena.hpp"

namespace wm::tls {

/// One observed TLS record, reduced to what an eavesdropper can see.
struct RecordEvent {
  util::SimTime timestamp;
  net::FlowDirection direction = net::FlowDirection::kClientToServer;
  ContentType content_type = ContentType::kApplicationData;
  std::uint16_t record_length = 0;  // the visible SSL record length
  std::uint64_t stream_offset = 0;
  /// First record parsed after a stream gap or a TLS resync scan: the
  /// bytes immediately before it were lost, so its classification
  /// deserves less confidence downstream.
  bool after_gap = false;

  [[nodiscard]] bool is_client_application_data() const {
    return direction == net::FlowDirection::kClientToServer &&
           content_type == ContentType::kApplicationData;
  }
};

/// A span of stream bytes that was declared unrecoverable by the
/// reassembler (segment loss, buffer-cap drop, or snaplen truncation).
struct StreamGapEvent {
  util::SimTime timestamp;
  net::FlowDirection direction = net::FlowDirection::kClientToServer;
  std::uint64_t stream_offset = 0;
  std::uint64_t length = 0;
};

/// All records of one TLS connection, plus flow metadata.
struct FlowRecordStream {
  net::FlowKey flow;
  std::optional<std::string> sni;  // from the ClientHello, if seen
  std::vector<RecordEvent> events;
  std::uint64_t client_stream_bytes = 0;
  std::uint64_t server_stream_bytes = 0;
  bool client_desynchronized = false;
  bool server_desynchronized = false;
  /// Loss accounting: reassembly gaps seen on either direction, the
  /// bytes they covered, and what the TLS resync scanner discarded /
  /// recovered while re-locking.
  std::uint64_t gaps = 0;
  std::uint64_t gap_bytes = 0;
  std::uint64_t tls_bytes_skipped = 0;
  std::uint64_t tls_resyncs = 0;

  [[nodiscard]] std::size_t count(net::FlowDirection direction,
                                  ContentType type) const;
};

/// One incremental delivery from RecordStreamExtractor::feed(): either
/// a newly parsed record or a stream gap, with the flow it belongs to.
struct StreamEvent {
  enum class Kind : std::uint8_t { kRecord, kGap };
  net::FlowKey flow;
  Kind kind = Kind::kRecord;
  RecordEvent event;   // valid when kind == kRecord
  StreamGapEvent gap;  // valid when kind == kGap
};

/// Streaming extractor. Two modes of use:
///
///  * Batch: feed_batch() every packet (extract_record_streams() does
///    so in slab runs), then finish() for one FlowRecordStream per flow.
///  * Resumable (the engine and the monitors): feed_batch()/feed_lens()
///    return the records each packet completed, so analysis proceeds
///    as traffic arrives. With Config::retain_events=false and an idle
///    timeout set, memory stays bounded by the number of *live* flows,
///    not capture length.
///
/// A flow retires (parsers flushed, state freed) at TCP teardown: on
/// an RST, or when the active closer ACKs the peer's FIN after both
/// FINs were delivered in order. A flow whose final ACK is lost leaves
/// through idle eviction, or when a new SYN reuses its 4-tuple.
class RecordStreamExtractor {
 public:
  struct Config {
    /// Keep per-flow event history so finish() can return it. Online
    /// consumers that react to feed()'s return value turn this off.
    bool retain_events = true;
    /// Evict per-flow state (reassembler, parsers) for flows idle
    /// longer than this. Zero = never evict.
    util::Duration idle_timeout{};
    /// Observability (wm::obs). When `registry` is set, the extractor
    /// registers counters for packets, flows, TCP reassembly and TLS
    /// records under `metrics_scope` ("<scope>.records.application",
    /// "<scope>.flows.evicted", ...) with `metrics_stability`. A
    /// non-empty `metrics_rollup` additionally publishes each metric
    /// into "<rollup><suffix>" rollups summed across extractors — how
    /// a fleet's per-shard extractors produce shard-count-invariant
    /// totals. Null registry = zero instrumentation cost.
    obs::Registry* registry = nullptr;
    std::string metrics_scope = "tls";
    obs::Stability metrics_stability = obs::Stability::kStable;
    std::string metrics_rollup;
    /// Per-direction reassembly tuning (reorder window, buffer budget)
    /// applied to every flow's TcpConnectionReassembler.
    net::TcpStreamReassembler::Config reassembly;
  };

  RecordStreamExtractor() : RecordStreamExtractor(Config{}) {}
  explicit RecordStreamExtractor(Config config);

  /// Move-only: per-flow map nodes live on the extractor's arena (held
  /// through a stable unique_ptr), so moves are safe but copies would
  /// alias the arena.
  RecordStreamExtractor(RecordStreamExtractor&&) = default;
  RecordStreamExtractor& operator=(RecordStreamExtractor&&) = delete;

  /// Feed the next captured packet and return the TLS records it
  /// completed, in parse order. Non-TCP and non-decodable packets are
  /// counted and otherwise ignored. This is the scalar-oracle path: it
  /// decodes through the full decode_packet() parser chain, while
  /// feed_batch() goes through the slab decoder — downstream of decode
  /// the two share every line of code, so differential tests comparing
  /// them pin the decoders against each other.
  std::vector<StreamEvent> feed(const net::Packet& packet);

  /// Hot-path entry point: decode `count` packets slab-wise (256 per
  /// column pass) and process each, appending completed records and
  /// gaps to `out`. Behaviour and observability are identical to
  /// calling feed() per packet, at a fraction of the per-packet cost.
  void feed_batch(const net::Packet* packets, std::size_t count,
                  std::vector<StreamEvent>& out);

  /// Zero-copy variant over borrowed frames. `stable_payload` is the
  /// lifetime contract: true means every view's backing store (an
  /// mmap'd capture, an in-memory trace) outlives this extractor, so
  /// out-of-order reassembly buffers views instead of copying segment
  /// payloads. With false the frames only need to live through this
  /// call: held segments are copied into the extractor's spare hold
  /// buffers. Event output is byte-identical to the owned overload on
  /// the same frames either way.
  void feed_batch(const net::PacketView* packets, std::size_t count,
                  std::vector<StreamEvent>& out, bool stable_payload);

  /// The per-packet step behind feed_batch(): process one frame whose
  /// slab lens the caller already decoded (net::decode_slab), appending
  /// completed records and gaps to `out`. `frame` is the raw frame the
  /// lens' offsets index into; `stable_payload` is feed_batch's
  /// lifetime contract. Lets a caller interleave its own per-packet
  /// work (timers) between the packets of one slab.
  void feed_lens(util::SimTime timestamp, util::BytesView frame,
                 const net::PacketLens& lens, bool stable_payload,
                 std::vector<StreamEvent>& out);

  /// feed_lens() for a caller that owns `frame` and lends it: when the
  /// segment has to wait for a hole to fill, its hold may take the
  /// frame's buffer whole instead of copying the payload, leaving in
  /// its place an empty spare with at least the frame's capacity (see
  /// net::HoldBuffers). After the call `frame`'s contents are
  /// unspecified. Events are identical to feed_lens()'s.
  void feed_lens_lend(util::SimTime timestamp, util::Bytes& frame,
                      const net::PacketLens& lens,
                      std::vector<StreamEvent>& out);

  /// End-of-capture: flush every live flow — outstanding reassembly
  /// holes become gaps, the TLS parsers re-lock with relaxed validation
  /// and emit their final records — and retire the per-flow state.
  /// Returns the events that freed up, in flow-key order.
  std::vector<StreamEvent> flush();

  /// Complete extraction (implies flush()) and return one stream per
  /// TCP flow (including evicted ones, when events are retained),
  /// ordered by first-seen time.
  [[nodiscard]] std::vector<FlowRecordStream> finish();

  [[nodiscard]] std::size_t packets_seen() const { return packets_seen_; }
  [[nodiscard]] std::size_t packets_undecodable() const {
    return packets_undecodable_;
  }
  /// Flows currently holding reassembly/parser state.
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  /// High-water mark of active_flows() over the extractor's lifetime.
  [[nodiscard]] std::size_t peak_active_flows() const {
    return peak_active_flows_;
  }
  /// The arena backing the flow map, for stats/poisoning tests.
  [[nodiscard]] const util::Arena& arena() const { return *arena_; }
  /// Total flows opened / evicted over the extractor's lifetime.
  [[nodiscard]] std::uint64_t flows_opened() const { return flows_opened_; }
  [[nodiscard]] std::uint64_t flows_evicted() const { return flows_evicted_; }
  /// Flows retired cleanly (TCP teardown or flush()).
  [[nodiscard]] std::uint64_t flows_completed() const { return flows_completed_; }
  /// The subset of flows_completed() retired at TCP teardown: an RST,
  /// the active closer's ACK of the peer's FIN, or a new SYN on the
  /// 4-tuple of a connection that finished both ways.
  [[nodiscard]] std::uint64_t flows_closed() const { return flows_closed_; }
  /// Loss-tolerance totals across all flows, live and retired.
  [[nodiscard]] std::uint64_t gaps() const { return gaps_total_; }
  [[nodiscard]] std::uint64_t gap_bytes() const { return gap_bytes_total_; }
  [[nodiscard]] std::uint64_t tls_bytes_skipped() const { return tls_skipped_total_; }
  [[nodiscard]] std::uint64_t tls_resyncs() const { return tls_resyncs_total_; }
  /// Out-of-order holds whose buffer was a lent frame / a copy (the
  /// borrowed holds of stable payloads count in neither).
  [[nodiscard]] std::uint64_t holds_lent() const { return holds_.lent(); }
  [[nodiscard]] std::uint64_t holds_copied() const { return holds_.copied(); }
  /// Sum of live out-of-order reassembly buffers across active flows.
  [[nodiscard]] std::size_t buffered_reassembly_bytes() const;
  /// Heap bytes of flow state: map nodes (the arena's live bytes), the
  /// flow index, parser and reassembly capacities, retained events,
  /// pooled shells and spare hold buffers. Walks every flow, so it is
  /// for tests and diagnostics, not for the per-packet path.
  [[nodiscard]] std::size_t memory_bytes() const;
  /// The SNI observed on a flow, if its ClientHello has been parsed.
  [[nodiscard]] std::optional<std::string> sni_of(const net::FlowKey& flow) const;

  /// Timer-driven idle eviction: evict every flow idle past
  /// Config::idle_timeout as of `now`, bypassing the packet-cadence
  /// gate feed() uses. The continuous monitor calls this from its time
  /// wheel so flows leave on schedule even when no packet for any flow
  /// arrives. Returns flows evicted. No-op when idle_timeout is zero.
  std::size_t sweep_idle(util::SimTime now);

 private:
  struct PerFlow {
    net::TcpConnectionReassembler reassembler;
    TlsRecordParser client_parser;
    TlsRecordParser server_parser;
    std::vector<RecordEvent> events;
    std::optional<std::string> sni;
    util::SimTime first_seen;
    util::SimTime last_seen;
    bool sni_searched = false;
    std::uint64_t gaps = 0;
    std::uint64_t gap_bytes = 0;
    /// TLS skip/resync totals already mirrored into the extractor-wide
    /// counters, so deltas can be published incrementally.
    std::uint64_t tls_skipped_accounted = 0;
    std::uint64_t tls_resyncs_accounted = 0;
    /// This flow's slot key in the open-addressing index (the remapped
    /// endpoint-pair hash), kept so erasure can tombstone the slot
    /// without recomputing it.
    std::uint64_t index_hash = 0;
    /// The direction whose FIN was delivered first: the active closer,
    /// whose pure ACK of the peer's FIN retires the flow.
    std::optional<net::FlowDirection> first_fin;
  };

  /// Flow-state authority, ordered by key so eviction sweeps and
  /// flush() walk flows in FlowKey order (the order the differential
  /// tests pin). Nodes come from the extractor's arena.
  using FlowMap =
      std::map<net::FlowKey, PerFlow, std::less<net::FlowKey>,
               util::ArenaAllocator<std::pair<const net::FlowKey, PerFlow>>>;

  /// One open-addressing index slot: remapped hash (0 = empty,
  /// 1 = tombstone, >= 2 = live) plus the map entry it points at.
  struct IndexSlot {
    std::uint64_t hash = 0;
    FlowMap::iterator it{};
  };

  /// The per-packet step behind feed_lens() and feed_lens_lend():
  /// `lendable`, when not null, is the buffer `frame` views.
  void feed_frame(util::SimTime timestamp, util::BytesView frame,
                  const net::PacketLens& lens, bool stable_payload,
                  util::Bytes* lendable, std::vector<StreamEvent>& out);
  /// Shared per-packet TCP processing behind both decode paths. `hold`
  /// says how the reassembler may keep a payload it must hold (see
  /// net::PayloadHold); its buffers are the extractor's spares.
  void feed_tcp(util::SimTime timestamp, const net::Endpoint& source,
                const net::Endpoint& destination, std::uint8_t tcp_flags,
                std::uint32_t sequence, util::BytesView payload,
                std::size_t truncated_bytes, net::PayloadHold hold,
                std::vector<StreamEvent>& out);
  /// Buffer-everything fallback of feed_tcp for segments the in-order
  /// fast path rejects (SYN/FIN/RST, truncation, reorder, retransmit).
  void feed_tcp_slow(FlowMap::iterator it, net::FlowDirection direction,
                     util::SimTime timestamp, std::uint32_t sequence,
                     std::uint8_t tcp_flags, util::BytesView payload,
                     std::size_t truncated_bytes, bool has_payload,
                     net::PayloadHold hold, std::vector<StreamEvent>& out);

  /// Probe the index for either orientation of (source, destination).
  /// On a hit, `direction` is set to the matching orientation.
  FlowMap::iterator find_flow(std::uint64_t hash, const net::Endpoint& source,
                              const net::Endpoint& destination,
                              net::FlowDirection& direction);
  FlowMap::iterator insert_flow(std::uint64_t hash, const net::FlowKey& key);
  /// Tombstone the index slot, recycle the PerFlow into the pool, and
  /// erase the map node. Returns the iterator past the erased entry.
  FlowMap::iterator erase_flow(FlowMap::iterator it);
  void index_insert(std::uint64_t hash, FlowMap::iterator it);
  void index_grow();

  void evict_idle(util::SimTime now);
  FlowRecordStream snapshot(const net::FlowKey& key, const PerFlow& state) const;
  /// Route reassembler output (chunks and gaps) through the right TLS
  /// parser and append the resulting StreamEvents to `out`. Owned chunk
  /// buffers go back to the spares once parsed.
  void process_items(const net::FlowKey& key, PerFlow& state,
                     std::vector<net::TcpConnectionReassembler::DirectedItem>& items,
                     std::vector<StreamEvent>& out);
  void emit_record(const net::FlowKey& key, PerFlow& state,
                   net::FlowDirection direction, TlsRecordParser::ParsedRecord& parsed,
                   std::vector<StreamEvent>& out);
  /// Publish any not-yet-accounted TLS skip/resync deltas for a flow.
  void sync_tls_counters(PerFlow& state);
  /// Flush parsers, snapshot, and retire one flow (teardown or flush()).
  void complete_flow(FlowMap::iterator it, std::vector<StreamEvent>& out);
  /// Both directions' FINs delivered in order (or an RST seen).
  static bool closed_both_ways(const PerFlow& state);

  /// Resolved metric handles; all null when Config::registry is null.
  struct Metrics {
    obs::Counter* flows_opened = nullptr;
    obs::Counter* flows_evicted = nullptr;
    obs::Counter* packets = nullptr;
    obs::Counter* packets_undecodable = nullptr;
    obs::Counter* tcp_segments = nullptr;
    obs::Counter* tcp_segments_buffered = nullptr;
    obs::Counter* tcp_chunks = nullptr;
    obs::Counter* tcp_bytes = nullptr;
    obs::Counter* tcp_dropped_bytes = nullptr;
    obs::Counter* tcp_gaps = nullptr;
    obs::Counter* tcp_gap_bytes = nullptr;
    obs::Counter* tls_resyncs = nullptr;
    obs::Counter* tls_skipped_bytes = nullptr;
    obs::Counter* records_after_gap = nullptr;
    obs::Counter* records = nullptr;
    obs::Counter* records_handshake = nullptr;
    obs::Counter* records_application = nullptr;
    obs::Counter* records_alert = nullptr;
    obs::Counter* records_other = nullptr;
    obs::Counter* client_app_records = nullptr;
    obs::Histogram* client_record_lengths = nullptr;
  };

  Config config_;
  Metrics metrics_;
  /// Backs the flow-map nodes. Held through a unique_ptr so the arena's
  /// address survives extractor moves (map nodes and the allocator both
  /// point at it); declared before flows_ so it outlives the map.
  std::unique_ptr<util::Arena> arena_;
  FlowMap flows_;
  /// Open-addressing hash index over flows_: a lookup is one symmetric
  /// endpoint-pair hash plus a short linear probe, instead of up to two
  /// ordered-map descents with FlowKey comparisons per level.
  std::vector<IndexSlot> index_;
  std::size_t index_live_ = 0;
  std::size_t index_tombstones_ = 0;
  /// Retired PerFlow shells (parsers reset, event vector cleared but
  /// with its capacity retained) awaiting reuse, so steady-state flow
  /// churn stops paying for fresh flow state.
  std::vector<PerFlow> pool_;
  /// Spare buffers for the reassemblers' owned holds, shared by every
  /// flow, refilled from delivered chunks, at most kSpareHolds
  /// (record_stream.cpp) of them.
  net::HoldBuffers holds_;
  /// Scratch reused across packets by the slow reassembly path.
  std::vector<net::TcpConnectionReassembler::DirectedItem> items_scratch_;
  /// Scratch for parser output (ParsedRecord views), reused per chunk.
  std::vector<TlsRecordParser::ParsedRecord> parsed_scratch_;
  /// Reused slab for feed_batch's column-wise decode.
  net::DecodedSlab slab_;
  std::size_t peak_active_flows_ = 0;
  /// Streams of evicted flows, kept only when retain_events is on so
  /// batch callers never lose data to eviction.
  std::vector<FlowRecordStream> completed_;
  util::SimTime last_sweep_;
  bool sweep_armed_ = false;
  std::uint64_t flows_opened_ = 0;
  std::uint64_t flows_evicted_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_closed_ = 0;
  std::uint64_t gaps_total_ = 0;
  std::uint64_t gap_bytes_total_ = 0;
  std::uint64_t tls_skipped_total_ = 0;
  std::uint64_t tls_resyncs_total_ = 0;
  std::size_t packets_seen_ = 0;
  std::size_t packets_undecodable_ = 0;
};

/// One-shot convenience: extract record streams from a full capture.
std::vector<FlowRecordStream> extract_record_streams(
    const std::vector<net::Packet>& packets);

}  // namespace wm::tls
