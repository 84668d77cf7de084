#include "wm/tls/record_stream.hpp"

#include <algorithm>
#include <cstring>

#include "wm/tls/handshake.hpp"

namespace wm::tls {

namespace {

/// Initial index capacity (power of two).
constexpr std::size_t kIndexInitialSlots = 1024;
/// Spare hold buffers kept for reuse (each about a frame, ~1.5 KB).
/// Enough for the holds a shard has out at once on jittered traffic;
/// more would only sit idle, and they die with the extractor.
constexpr std::size_t kSpareHolds = 64;

/// The flow index key of a TCP endpoint pair: the symmetric
/// endpoint-pair hash, moved off 0 and 1 (the empty/tombstone marks).
std::uint64_t index_key(const net::Endpoint& a, const net::Endpoint& b) {
  const std::uint64_t hash = net::endpoint_pair_hash(a, b, net::IpProtocol::kTcp);
  return hash < 2 ? hash + 2 : hash;
}

}  // namespace

std::size_t FlowRecordStream::count(net::FlowDirection direction,
                                    ContentType type) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const RecordEvent& event) {
        return event.direction == direction && event.content_type == type;
      }));
}

RecordStreamExtractor::RecordStreamExtractor(Config config)
    : config_(std::move(config)), holds_(kSpareHolds) {
  if (config_.registry != nullptr) {
    const auto resolve = [this](const std::string& suffix,
                                obs::Stability rollup_stability =
                                    obs::Stability::kStable) {
      const std::string name = config_.metrics_scope + suffix;
      if (config_.metrics_rollup.empty()) {
        return config_.registry->counter(name, config_.metrics_stability);
      }
      return config_.registry->counter(name, config_.metrics_stability,
                                       config_.metrics_rollup + suffix,
                                       rollup_stability);
    };
    metrics_.packets = resolve(".packets");
    metrics_.packets_undecodable = resolve(".packets.undecodable");
    metrics_.tcp_segments = resolve(".tcp.segments");
    metrics_.tcp_segments_buffered = resolve(".tcp.segments.buffered");
    metrics_.tcp_chunks = resolve(".tcp.chunks");
    metrics_.tcp_bytes = resolve(".tcp.bytes");
    metrics_.tcp_dropped_bytes = resolve(".tcp.bytes.dropped");
    // Loss tolerance: gap/resync behaviour is a pure function of each
    // flow's own segment sequence, so the rollups stay shard-invariant.
    metrics_.tcp_gaps = resolve(".tcp.gaps");
    metrics_.tcp_gap_bytes = resolve(".tcp.gap_bytes");
    metrics_.tls_resyncs = resolve(".tls.resyncs");
    metrics_.tls_skipped_bytes = resolve(".tls.skipped_bytes");
    metrics_.records_after_gap = resolve(".records.after_gap");
    metrics_.records = resolve(".records");
    metrics_.records_handshake = resolve(".records.handshake");
    metrics_.records_application = resolve(".records.application");
    metrics_.records_alert = resolve(".records.alert");
    metrics_.records_other = resolve(".records.other");
    metrics_.client_app_records = resolve(".records.client_app");
    // Client-upload record lengths, binned around the paper's Fig. 2
    // range: the type-1/type-2 JSON bands live in the few-hundred-byte
    // region; video/API traffic fills the tails.
    const std::vector<std::uint64_t> bounds{128,  192,  256,  320,   384,  512,
                                            768,  1024, 2048, 4096, 16384};
    const std::string histogram_name =
        config_.metrics_scope + ".record_length.client_app";
    if (config_.metrics_rollup.empty()) {
      metrics_.client_record_lengths = config_.registry->histogram(
          histogram_name, bounds, config_.metrics_stability);
    } else {
      metrics_.client_record_lengths = config_.registry->histogram(
          histogram_name, bounds, config_.metrics_stability,
          config_.metrics_rollup + ".record_length.client_app",
          obs::Stability::kStable);
    }
    metrics_.flows_opened = resolve(".flows.opened");
    // Eviction totals depend on per-shard sweep cadence, so their
    // cross-shard sum is only deterministic for a fixed shard count.
    metrics_.flows_evicted =
        resolve(".flows.evicted", obs::Stability::kSharded);
  }
}

std::vector<StreamEvent> RecordStreamExtractor::feed(const net::Packet& packet) {
  std::vector<StreamEvent> out;
  ++packets_seen_;
  obs::inc(metrics_.packets);
  const auto decoded = net::decode_packet(packet);
  if (!decoded || !decoded->has_tcp()) {
    if (!decoded) {
      ++packets_undecodable_;
      obs::inc(metrics_.packets_undecodable);
    }
    return out;
  }

  const auto endpoints = net::packet_endpoints(*decoded);
  if (!endpoints) return out;
  const net::TcpHeader& tcp = decoded->tcp();
  const auto flags = static_cast<std::uint8_t>(
      (tcp.fin ? 0x01 : 0) | (tcp.syn ? 0x02 : 0) | (tcp.rst ? 0x04 : 0) |
      (tcp.psh ? 0x08 : 0) | (tcp.ack ? 0x10 : 0) | (tcp.urg ? 0x20 : 0));
  feed_tcp(packet.timestamp, endpoints->source, endpoints->destination, flags,
           tcp.sequence, decoded->transport_payload,
           decoded->transport_payload_missing, net::PayloadHold{false, &holds_},
           out);
  if (config_.idle_timeout != util::Duration{}) {
    evict_idle(packet.timestamp);
  }
  return out;
}

void RecordStreamExtractor::feed_lens(util::SimTime timestamp,
                                      util::BytesView frame,
                                      const net::PacketLens& lens,
                                      bool stable_payload,
                                      std::vector<StreamEvent>& out) {
  feed_frame(timestamp, frame, lens, stable_payload, nullptr, out);
}

void RecordStreamExtractor::feed_lens_lend(util::SimTime timestamp,
                                           util::Bytes& frame,
                                           const net::PacketLens& lens,
                                           std::vector<StreamEvent>& out) {
  feed_frame(timestamp, frame, lens, /*stable_payload=*/false, &frame, out);
}

void RecordStreamExtractor::feed_frame(util::SimTime timestamp,
                                       util::BytesView frame,
                                       const net::PacketLens& lens,
                                       bool stable_payload,
                                       util::Bytes* lendable,
                                       std::vector<StreamEvent>& out) {
  ++packets_seen_;
  obs::inc(metrics_.packets);
  if (lens.status != net::LensStatus::kTcp) {
    if (lens.status == net::LensStatus::kUndecodable) {
      ++packets_undecodable_;
      obs::inc(metrics_.packets_undecodable);
    }
    return;
  }

  net::Endpoint source;
  net::Endpoint destination;
  const std::uint8_t* addresses = frame.data() + lens.address_offset;
  if (lens.is_v6) {
    std::array<std::uint8_t, 16> octets{};
    source.is_v6 = true;
    destination.is_v6 = true;
    std::memcpy(octets.data(), addresses, 16);
    source.v6 = net::Ipv6Address(octets);
    std::memcpy(octets.data(), addresses + 16, 16);
    destination.v6 = net::Ipv6Address(octets);
  } else {
    source.v4 = net::Ipv4Address(addresses[0], addresses[1], addresses[2],
                                 addresses[3]);
    destination.v4 = net::Ipv4Address(addresses[4], addresses[5], addresses[6],
                                      addresses[7]);
  }
  source.port = lens.source_port;
  destination.port = lens.destination_port;

  feed_tcp(timestamp, source, destination, lens.tcp_flags, lens.sequence,
           frame.subspan(lens.payload_offset, lens.payload_length),
           lens.truncated_bytes,
           net::PayloadHold{stable_payload, &holds_, lendable}, out);
  if (config_.idle_timeout != util::Duration{}) evict_idle(timestamp);
}

void RecordStreamExtractor::feed_batch(const net::Packet* packets,
                                       std::size_t count,
                                       std::vector<StreamEvent>& out) {
  while (count > 0) {
    const std::size_t n = std::min(count, net::DecodedSlab::kCapacity);
    net::decode_slab(packets, n, slab_);
    for (std::size_t i = 0; i < n; ++i) {
      feed_frame(packets[i].timestamp, packets[i].data, slab_.lens[i],
                 /*stable_payload=*/false, nullptr, out);
    }
    packets += n;
    count -= n;
  }
}

void RecordStreamExtractor::feed_batch(const net::PacketView* packets,
                                       std::size_t count,
                                       std::vector<StreamEvent>& out,
                                       bool stable_payload) {
  while (count > 0) {
    const std::size_t n = std::min(count, net::DecodedSlab::kCapacity);
    net::decode_slab(packets, n, slab_);
    for (std::size_t i = 0; i < n; ++i) {
      feed_frame(packets[i].timestamp, packets[i].data, slab_.lens[i],
                 stable_payload, nullptr, out);
    }
    packets += n;
    count -= n;
  }
}

void RecordStreamExtractor::feed_tcp(util::SimTime timestamp,
                                     const net::Endpoint& source,
                                     const net::Endpoint& destination,
                                     std::uint8_t tcp_flags,
                                     std::uint32_t sequence,
                                     util::BytesView payload,
                                     std::size_t truncated_bytes,
                                     net::PayloadHold hold,
                                     std::vector<StreamEvent>& out) {
  const std::uint64_t hash = index_key(source, destination);

  const bool is_syn_only = (tcp_flags & 0x02) != 0 && (tcp_flags & 0x10) == 0;
  net::FlowDirection direction = net::FlowDirection::kClientToServer;
  std::uint32_t slot = find_flow(hash, source, destination, direction);
  if (slot != kNoSlot && is_syn_only && closed_both_ways(slots_[slot])) {
    // A new connection on the 4-tuple of one that finished but never
    // saw its final ACK: retire the old flow, open a fresh one.
    complete_flow(slot, out);
    ++flows_closed_;
    slot = kNoSlot;
  }
  if (slot == kNoSlot) {
    // New flow: decide orientation. The sender of a pure SYN is the
    // client; otherwise the well-known-port heuristic — a source port
    // below 1024 (and a peer's that is not) suggests the packet came
    // *from* the server.
    net::FlowKey key{source, destination, net::IpProtocol::kTcp};
    if (!is_syn_only && source.port < 1024 && !(destination.port < 1024)) {
      key = net::FlowKey{destination, source, net::IpProtocol::kTcp};
      direction = net::FlowDirection::kServerToClient;
    }
    slot = insert_flow(hash, key);
    slots_[slot].first_seen = timestamp;
    ++flows_opened_;
    obs::inc(metrics_.flows_opened);
  }
  PerFlow& state = slots_[slot];
  state.last_seen = timestamp;

  const bool has_payload = !payload.empty();
  if (has_payload) obs::inc(metrics_.tcp_segments);

  // Plain segments try the reassembler's shortcut: in order, filling
  // the head hole, or held at the tail of the held run. Each chunk it
  // delivers goes straight to the TLS parser. SYN/FIN/RST, truncation
  // and whatever the shortcut declines (it changes nothing when it
  // does) take the general path.
  if ((tcp_flags & 0x07) == 0 && truncated_bytes == 0) {
    bool delivered = false;
    if (state.reassembler.stream(direction).shortcut(
            timestamp, sequence, payload, hold, [&](net::StreamChunk& chunk) {
              feed_chunk(state, direction, chunk, out);
              delivered = true;
            })) {
      if (delivered) {
        parser_for(state, direction).trim();
        sync_tls_counters(state);
      } else if (has_payload) {
        obs::inc(metrics_.tcp_segments_buffered);
      }
      return;
    }
  }
  feed_tcp_slow(slot, direction, timestamp, sequence, tcp_flags, payload,
                truncated_bytes, has_payload, hold, out);
}

void RecordStreamExtractor::feed_tcp_slow(
    std::uint32_t slot, net::FlowDirection direction, util::SimTime timestamp,
    std::uint32_t sequence, std::uint8_t tcp_flags, util::BytesView payload,
    std::size_t truncated_bytes, bool has_payload, net::PayloadHold hold,
    std::vector<StreamEvent>& out) {
  PerFlow& state = slots_[slot];
  const std::uint64_t dropped_before =
      state.reassembler.client_stream().dropped_bytes() +
      state.reassembler.server_stream().dropped_bytes();

  items_scratch_.clear();
  state.reassembler.on_segment(direction, timestamp, sequence,
                               (tcp_flags & 0x02) != 0, (tcp_flags & 0x01) != 0,
                               (tcp_flags & 0x04) != 0, payload,
                               truncated_bytes, items_scratch_, hold);
  if (has_payload && items_scratch_.empty()) {
    obs::inc(metrics_.tcp_segments_buffered);
  }
  const std::uint64_t dropped_after =
      state.reassembler.client_stream().dropped_bytes() +
      state.reassembler.server_stream().dropped_bytes();
  obs::inc(metrics_.tcp_dropped_bytes, dropped_after - dropped_before);

  process_items(state, items_scratch_, out);
  sync_tls_counters(state);

  if (!state.first_fin && state.reassembler.stream(direction).finished()) {
    state.first_fin = direction;
  }
  // Teardown retires the flow now instead of letting it linger until
  // idle eviction: an RST ends both directions at once; a FIN close
  // ends with the active closer's pure ACK of the peer's FIN. (The
  // passive closer may send a bare ACK after its own FIN, and the
  // active closer's final ACK must not then open a new flow.)
  const bool pure_ack = (tcp_flags & 0x07) == 0 && !has_payload &&
                        truncated_bytes == 0;
  if (state.reassembler.reset() ||
      (pure_ack && state.first_fin == direction && closed_both_ways(state))) {
    complete_flow(slot, out);
    ++flows_closed_;
  }
}

bool RecordStreamExtractor::closed_both_ways(const PerFlow& state) {
  return state.reassembler.client_stream().finished() &&
         state.reassembler.server_stream().finished();
}

std::uint32_t RecordStreamExtractor::find_flow(
    std::uint64_t hash, const net::Endpoint& source,
    const net::Endpoint& destination, net::FlowDirection& direction) const {
  if (index_.empty()) return kNoSlot;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const IndexSlot& entry = index_[pos];
    if (entry.hash == 0) return kNoSlot;
    if (entry.hash != hash) continue;  // tombstones (hash 1) land here too
    const net::FlowKey& key = slots_[entry.slot].key;
    if (key.client == source && key.server == destination) {
      direction = net::FlowDirection::kClientToServer;
      return entry.slot;
    }
    if (key.client == destination && key.server == source) {
      direction = net::FlowDirection::kServerToClient;
      return entry.slot;
    }
  }
}

std::uint32_t RecordStreamExtractor::insert_flow(std::uint64_t hash,
                                                 const net::FlowKey& key) {
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().reassembler =
        net::TcpConnectionReassembler(config_.reassembly);
  }
  PerFlow& state = slots_[slot];
  state.key = key;
  state.index_hash = hash;
  index_insert(hash, slot);
  peak_active_flows_ = std::max(peak_active_flows_, active_flows());
  return slot;
}

void RecordStreamExtractor::erase_flow(std::uint32_t slot) {
  PerFlow& state = slots_[slot];
  const std::uint64_t hash = state.index_hash;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    IndexSlot& entry = index_[pos];
    if (entry.hash == 0) break;  // defensive: flow was not indexed
    if (entry.hash == hash && entry.slot == slot) {
      entry.hash = 1;  // tombstone: probes continue across it
      --index_live_;
      ++index_tombstones_;
      break;
    }
  }
  // Reset in place for the slot's next flow: content dropped, parser
  // buffers freed, the event vector's capacity retained.
  state.reassembler = net::TcpConnectionReassembler(config_.reassembly);
  state.client_parser.reset();
  state.server_parser.reset();
  state.events.clear();
  state.sni.reset();
  state.sni_searched = false;
  state.gaps = 0;
  state.gap_bytes = 0;
  state.tls_skipped_accounted = 0;
  state.tls_resyncs_accounted = 0;
  state.index_hash = 0;
  state.first_fin.reset();
  free_slots_.push_back(slot);
}

void RecordStreamExtractor::index_insert(std::uint64_t hash,
                                         std::uint32_t slot) {
  // Grow (or purge tombstones) at 3/4 occupancy so probes stay short.
  // The rebuild walks the slots, which already hold the new flow, so it
  // indexes the new flow too.
  if (index_.empty() ||
      (index_live_ + index_tombstones_ + 1) * 4 > index_.size() * 3) {
    index_grow();
    return;
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = hash & mask;
  while (index_[pos].hash >= 2) pos = (pos + 1) & mask;
  if (index_[pos].hash == 1) --index_tombstones_;
  index_[pos] = IndexSlot{hash, slot};
  ++index_live_;
}

void RecordStreamExtractor::index_grow() {
  std::size_t capacity = index_.empty() ? kIndexInitialSlots : index_.size();
  while ((index_live_ + 1) * 4 > capacity * 3) capacity *= 2;
  index_.assign(capacity, IndexSlot{});
  index_tombstones_ = 0;
  index_live_ = 0;
  const std::size_t mask = capacity - 1;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const std::uint64_t hash = slots_[slot].index_hash;
    if (hash == 0) continue;  // free slot
    std::size_t pos = hash & mask;
    while (index_[pos].hash != 0) pos = (pos + 1) & mask;
    index_[pos] = IndexSlot{hash, slot};
    ++index_live_;
  }
}

void RecordStreamExtractor::process_items(
    PerFlow& state,
    std::vector<net::TcpConnectionReassembler::DirectedItem>& items,
    std::vector<StreamEvent>& out) {
  for (auto& directed : items) {
    if (directed.item.kind == net::StreamItem::Kind::kGap) {
      const net::StreamGap& gap = directed.item.gap;
      parser_for(state, directed.direction).on_gap(gap.timestamp, gap.length);
      ++state.gaps;
      state.gap_bytes += gap.length;
      ++gaps_total_;
      gap_bytes_total_ += gap.length;
      obs::inc(metrics_.tcp_gaps);
      obs::inc(metrics_.tcp_gap_bytes, gap.length);
      StreamEvent event;
      event.flow = state.key;
      event.kind = StreamEvent::Kind::kGap;
      event.gap = StreamGapEvent{gap.timestamp, directed.direction,
                                 gap.stream_offset, gap.length};
      out.push_back(std::move(event));
      continue;
    }
    feed_chunk(state, directed.direction, directed.item.chunk, out);
  }
  // The records' payload views are done with.
  state.client_parser.trim();
  state.server_parser.trim();
}

void RecordStreamExtractor::feed_chunk(PerFlow& state,
                                       net::FlowDirection direction,
                                       net::StreamChunk& chunk,
                                       std::vector<StreamEvent>& out) {
  const util::BytesView bytes = chunk.bytes();
  obs::inc(metrics_.tcp_chunks);
  obs::inc(metrics_.tcp_bytes, bytes.size());
  parsed_scratch_.clear();
  parser_for(state, direction).feed(chunk.timestamp, bytes, parsed_scratch_);
  for (auto& parsed : parsed_scratch_) emit_record(state, direction, parsed, out);
  // The parser copied what it keeps, and the records' payload views
  // (read for SNI) are done with: the buffer can hold the next piece.
  if (!chunk.owner.empty()) holds_.recycle(std::move(chunk.owner));
}

void RecordStreamExtractor::emit_record(PerFlow& state,
                                        net::FlowDirection direction,
                                        TlsRecordParser::ParsedRecord& parsed,
                                        std::vector<StreamEvent>& out) {
  // Opportunistic SNI capture from client handshake records.
  if (!state.sni_searched && direction == net::FlowDirection::kClientToServer &&
      parsed.content_type == ContentType::kHandshake) {
    state.sni = extract_sni(parsed.payload);
    state.sni_searched = true;
  }
  RecordEvent event;
  event.timestamp = parsed.timestamp;
  event.direction = direction;
  event.content_type = parsed.content_type;
  event.record_length = parsed.length;
  event.stream_offset = parsed.stream_offset;
  event.after_gap = parsed.after_gap;
  obs::inc(metrics_.records);
  if (event.after_gap) obs::inc(metrics_.records_after_gap);
  switch (event.content_type) {
    case ContentType::kHandshake:
      obs::inc(metrics_.records_handshake);
      break;
    case ContentType::kApplicationData:
      obs::inc(metrics_.records_application);
      break;
    case ContentType::kAlert:
      obs::inc(metrics_.records_alert);
      break;
    default:
      obs::inc(metrics_.records_other);
      break;
  }
  if (event.is_client_application_data()) {
    obs::inc(metrics_.client_app_records);
    obs::observe(metrics_.client_record_lengths, event.record_length);
  }
  if (config_.retain_events) state.events.push_back(event);
  out.push_back(StreamEvent{state.key, StreamEvent::Kind::kRecord, event, {}});
}

void RecordStreamExtractor::sync_tls_counters(PerFlow& state) {
  const std::uint64_t skipped = state.client_parser.bytes_skipped() +
                                state.server_parser.bytes_skipped();
  const std::uint64_t resyncs =
      state.client_parser.resyncs() + state.server_parser.resyncs();
  obs::inc(metrics_.tls_skipped_bytes, skipped - state.tls_skipped_accounted);
  obs::inc(metrics_.tls_resyncs, resyncs - state.tls_resyncs_accounted);
  tls_skipped_total_ += skipped - state.tls_skipped_accounted;
  tls_resyncs_total_ += resyncs - state.tls_resyncs_accounted;
  state.tls_skipped_accounted = skipped;
  state.tls_resyncs_accounted = resyncs;
}

void RecordStreamExtractor::complete_flow(std::uint32_t slot,
                                          std::vector<StreamEvent>& out) {
  PerFlow& state = slots_[slot];
  // The stream is over: give the parsers their end-of-stream chance to
  // re-lock with relaxed validation and emit trailing records.
  parsed_scratch_.clear();
  state.client_parser.flush(state.last_seen, parsed_scratch_);
  for (auto& parsed : parsed_scratch_) {
    emit_record(state, net::FlowDirection::kClientToServer, parsed, out);
  }
  parsed_scratch_.clear();
  state.server_parser.flush(state.last_seen, parsed_scratch_);
  for (auto& parsed : parsed_scratch_) {
    emit_record(state, net::FlowDirection::kServerToClient, parsed, out);
  }
  parsed_scratch_.clear();
  sync_tls_counters(state);
  if (config_.retain_events) completed_.push_back(snapshot(state));
  erase_flow(slot);
  ++flows_completed_;
}

std::vector<StreamEvent> RecordStreamExtractor::flush() {
  // Retire in FlowKey order, the order the differential suites pin.
  std::vector<std::uint32_t> live;
  live.reserve(active_flows());
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].index_hash != 0) live.push_back(slot);
  }
  std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].key < slots_[b].key;
  });
  std::vector<StreamEvent> out;
  for (const std::uint32_t slot : live) {
    PerFlow& state = slots_[slot];
    auto items = state.reassembler.flush(state.last_seen);
    process_items(state, items, out);
    complete_flow(slot, out);
  }
  return out;
}

std::size_t RecordStreamExtractor::sweep_idle(util::SimTime now) {
  if (config_.idle_timeout == util::Duration{}) return 0;
  const std::uint64_t before = flows_evicted_;
  // Reset the cadence gate: a timer-driven sweep is authoritative.
  sweep_armed_ = false;
  evict_idle(now);
  return static_cast<std::size_t>(flows_evicted_ - before);
}

void RecordStreamExtractor::evict_idle(util::SimTime now) {
  // Sweep at a fraction of the timeout so the scan cost amortizes to
  // O(1) per packet while flows still leave within ~1.25x the timeout.
  const util::Duration cadence =
      util::Duration::nanos(config_.idle_timeout.total_nanos() / 4);
  if (sweep_armed_ && now - last_sweep_ < cadence) return;
  sweep_armed_ = true;
  last_sweep_ = now;

  const util::SimTime cutoff = now - config_.idle_timeout;
  std::uint64_t evicted = 0;
  // Eviction emits no events, so storage order will do.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const PerFlow& state = slots_[slot];
    if (state.index_hash == 0 || !(state.last_seen < cutoff)) continue;
    if (config_.retain_events) completed_.push_back(snapshot(state));
    erase_flow(slot);
    ++evicted;
  }
  flows_evicted_ += evicted;
  obs::inc(metrics_.flows_evicted, evicted);
}

FlowRecordStream RecordStreamExtractor::snapshot(const PerFlow& state) const {
  FlowRecordStream stream;
  stream.flow = state.key;
  stream.sni = state.sni;
  stream.events = state.events;
  stream.client_stream_bytes = state.reassembler.client_stream().delivered_bytes();
  stream.server_stream_bytes = state.reassembler.server_stream().delivered_bytes();
  stream.client_desynchronized = state.client_parser.desynchronized();
  stream.server_desynchronized = state.server_parser.desynchronized();
  stream.gaps = state.reassembler.client_stream().gaps_emitted() +
                state.reassembler.server_stream().gaps_emitted();
  stream.gap_bytes = state.reassembler.client_stream().gap_bytes() +
                     state.reassembler.server_stream().gap_bytes();
  stream.tls_bytes_skipped =
      state.client_parser.bytes_skipped() + state.server_parser.bytes_skipped();
  stream.tls_resyncs =
      state.client_parser.resyncs() + state.server_parser.resyncs();
  return stream;
}

std::vector<FlowRecordStream> RecordStreamExtractor::finish() {
  flush();
  std::vector<FlowRecordStream> out = completed_;
  // Order by first event time, then FlowKey, so the order does not
  // depend on when each flow retired (completed_ holds retirement
  // order, which keeps ties on one reused 4-tuple in sequence).
  const auto first_event = [](const FlowRecordStream& stream) {
    return stream.events.empty() ? util::SimTime()
                                 : stream.events.front().timestamp;
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](const FlowRecordStream& a, const FlowRecordStream& b) {
                     const util::SimTime ta = first_event(a);
                     const util::SimTime tb = first_event(b);
                     if (ta != tb) return ta < tb;
                     return a.flow < b.flow;
                   });
  return out;
}

std::size_t RecordStreamExtractor::memory_bytes() const {
  const auto held = [](const PerFlow& state) {
    std::size_t bytes = state.reassembler.memory_bytes() +
                        state.client_parser.memory_bytes() +
                        state.server_parser.memory_bytes() +
                        state.events.capacity() * sizeof(RecordEvent);
    if (state.sni && state.sni->capacity() > std::string().capacity()) {
      bytes += state.sni->capacity() + 1;  // past the small-string buffer
    }
    return bytes;
  };
  std::size_t total = slots_.size() * sizeof(PerFlow) +
                      free_slots_.capacity() * sizeof(std::uint32_t) +
                      index_.capacity() * sizeof(IndexSlot) +
                      holds_.memory_bytes();
  for (const PerFlow& state : slots_) total += held(state);
  return total;
}

std::vector<FlowRecordStream> extract_record_streams(
    const std::vector<net::Packet>& packets) {
  // Slab-decoded runs; the events are retained for finish(), so each
  // run's copy in `events` is dropped as soon as it is produced.
  constexpr std::size_t kRun = 256;
  RecordStreamExtractor extractor;
  std::vector<StreamEvent> events;
  for (std::size_t i = 0; i < packets.size(); i += kRun) {
    extractor.feed_batch(packets.data() + i, std::min(kRun, packets.size() - i),
                         events);
    events.clear();
  }
  return extractor.finish();
}

}  // namespace wm::tls
