#include "wm/tls/record_stream.hpp"

#include <algorithm>
#include <cstring>

#include "wm/tls/handshake.hpp"

namespace wm::tls {

namespace {

/// Retired PerFlow shells kept for reuse; beyond this the shells are
/// simply destroyed (flow churn above this is long-tail, not steady
/// state, so unbounded pooling would just hoard capacity).
constexpr std::size_t kFlowPoolCap = 1024;
/// Initial index capacity (power of two).
constexpr std::size_t kIndexInitialSlots = 1024;
/// Spare hold buffers kept for reuse (each about a frame, ~1.5 KB).
/// Enough for the holds a shard has out at once on jittered traffic;
/// more would only sit idle, and they die with the extractor.
constexpr std::size_t kSpareHolds = 64;

}  // namespace

std::size_t FlowRecordStream::count(net::FlowDirection direction,
                                    ContentType type) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const RecordEvent& event) {
        return event.direction == direction && event.content_type == type;
      }));
}

RecordStreamExtractor::RecordStreamExtractor(Config config)
    : config_(std::move(config)),
      arena_(std::make_unique<util::Arena>()),
      flows_(std::less<net::FlowKey>(),
             util::ArenaAllocator<std::pair<const net::FlowKey, PerFlow>>(
                 arena_.get())),
      holds_(kSpareHolds) {
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
    evict_idle(packet.timestamp, out.size());
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
  if (config_.idle_timeout != util::Duration{}) evict_idle(timestamp, out.size());
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
  std::uint64_t hash =
      net::endpoint_pair_hash(source, destination, net::IpProtocol::kTcp);
  if (hash < 2) hash += 2;  // 0 and 1 are the index's empty/tombstone marks

  const bool is_syn_only = (tcp_flags & 0x02) != 0 && (tcp_flags & 0x10) == 0;
  net::FlowDirection direction = net::FlowDirection::kClientToServer;
  FlowMap::iterator it = find_flow(hash, source, destination, direction);
  if (it != flows_.end() && is_syn_only && closed_both_ways(it->second)) {
    // A new connection on the 4-tuple of one that finished but never
    // saw its final ACK: retire the old flow, open a fresh one.
    complete_flow(it, out);
    ++flows_closed_;
    it = flows_.end();
  }
  if (it == flows_.end()) {
    // New flow: decide orientation. The sender of a pure SYN is the
    // client; otherwise the well-known-port heuristic — a source port
    // below 1024 (and a peer's that is not) suggests the packet came
    // *from* the server.
    net::FlowKey key{source, destination, net::IpProtocol::kTcp};
    if (!is_syn_only && source.port < 1024 && !(destination.port < 1024)) {
      key = net::FlowKey{destination, source, net::IpProtocol::kTcp};
      direction = net::FlowDirection::kServerToClient;
    }
    it = insert_flow(hash, key);
    it->second.first_seen = timestamp;
    ++flows_opened_;
    obs::inc(metrics_.flows_opened);
  }
  PerFlow& state = it->second;
  state.last_seen = timestamp;

  const bool has_payload = !payload.empty();
  if (has_payload) obs::inc(metrics_.tcp_segments);

  // SYN/FIN/RST and truncated segments always take the buffered path;
  // so does anything the in-order fast path rejects (reorder,
  // retransmit, pending data behind a hole) — the rejection mutates
  // nothing, so the slow path sees pristine state.
  if ((tcp_flags & 0x07) != 0 || truncated_bytes != 0) {
    feed_tcp_slow(it, direction, timestamp, sequence, tcp_flags, payload,
                  truncated_bytes, has_payload, hold, out);
    return;
  }
  const std::optional<std::uint64_t> offset =
      state.reassembler.stream(direction).accept_in_order(sequence,
                                                          payload.size());
  if (!offset) {
    feed_tcp_slow(it, direction, timestamp, sequence, tcp_flags, payload,
                  truncated_bytes, has_payload, hold, out);
    return;
  }
  if (!has_payload) return;  // in-order pure ACK: nothing to deliver

  // The segment is the next contiguous chunk: hand its bytes straight
  // to the TLS parser, skipping the reassembler's buffer-and-drain
  // machinery (and its per-segment copy) entirely.
  obs::inc(metrics_.tcp_chunks);
  obs::inc(metrics_.tcp_bytes, payload.size());
  TlsRecordParser& parser = direction == net::FlowDirection::kClientToServer
                                ? state.client_parser
                                : state.server_parser;
  parsed_scratch_.clear();
  parser.feed(timestamp, payload, parsed_scratch_);
  for (TlsRecordParser::ParsedRecord& parsed : parsed_scratch_) {
    emit_record(it->first, state, direction, parsed, out);
  }
  parser.trim();  // the records' payload views are done with
  sync_tls_counters(state);
}

void RecordStreamExtractor::feed_tcp_slow(
    FlowMap::iterator it, net::FlowDirection direction, util::SimTime timestamp,
    std::uint32_t sequence, std::uint8_t tcp_flags, util::BytesView payload,
    std::size_t truncated_bytes, bool has_payload, net::PayloadHold hold,
    std::vector<StreamEvent>& out) {
  PerFlow& state = it->second;
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

  process_items(it->first, state, items_scratch_, out);
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
    complete_flow(it, out);
    ++flows_closed_;
  }
}

bool RecordStreamExtractor::closed_both_ways(const PerFlow& state) {
  return state.reassembler.client_stream().finished() &&
         state.reassembler.server_stream().finished();
}

RecordStreamExtractor::FlowMap::iterator RecordStreamExtractor::find_flow(
    std::uint64_t hash, const net::Endpoint& source,
    const net::Endpoint& destination, net::FlowDirection& direction) {
  if (index_.empty()) return flows_.end();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const IndexSlot& slot = index_[pos];
    if (slot.hash == 0) return flows_.end();
    if (slot.hash != hash) continue;  // tombstones (hash 1) land here too
    const net::FlowKey& key = slot.it->first;
    if (key.client == source && key.server == destination) {
      direction = net::FlowDirection::kClientToServer;
      return slot.it;
    }
    if (key.client == destination && key.server == source) {
      direction = net::FlowDirection::kServerToClient;
      return slot.it;
    }
  }
}

RecordStreamExtractor::FlowMap::iterator RecordStreamExtractor::insert_flow(
    std::uint64_t hash, const net::FlowKey& key) {
  PerFlow fresh;
  if (!pool_.empty()) {
    fresh = std::move(pool_.back());
    pool_.pop_back();
  } else {
    fresh.reassembler = net::TcpConnectionReassembler(config_.reassembly);
  }
  fresh.index_hash = hash;
  const FlowMap::iterator it = flows_.emplace(key, std::move(fresh)).first;
  index_insert(hash, it);
  if (flows_.size() > peak_active_flows_) peak_active_flows_ = flows_.size();
  return it;
}

RecordStreamExtractor::FlowMap::iterator RecordStreamExtractor::erase_flow(
    FlowMap::iterator it, std::size_t events_before) {
  if (config_.report_retired) {
    retired_.push_back(RetiredFlow{it->first, it->second.sni, events_before});
  }
  if (!index_.empty()) {
    const std::uint64_t hash = it->second.index_hash;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      IndexSlot& slot = index_[pos];
      if (slot.hash == 0) break;  // defensive: entry was not indexed
      if (slot.hash == hash && slot.it == it) {
        slot.hash = 1;  // tombstone: probes continue across it
        slot.it = FlowMap::iterator{};
        --index_live_;
        ++index_tombstones_;
        break;
      }
    }
  }
  // Recycle the shell: content dropped, parser buffers freed, the
  // event vector's capacity retained.
  PerFlow shell = std::move(it->second);
  if (pool_.size() < kFlowPoolCap) {
    shell.reassembler = net::TcpConnectionReassembler(config_.reassembly);
    shell.client_parser.reset();
    shell.server_parser.reset();
    shell.events.clear();
    shell.sni.reset();
    shell.sni_searched = false;
    shell.gaps = 0;
    shell.gap_bytes = 0;
    shell.tls_skipped_accounted = 0;
    shell.tls_resyncs_accounted = 0;
    shell.index_hash = 0;
    shell.first_fin.reset();
    pool_.push_back(std::move(shell));
  }
  return flows_.erase(it);
}

void RecordStreamExtractor::index_insert(std::uint64_t hash,
                                         FlowMap::iterator it) {
  // Grow (or purge tombstones) at 3/4 occupancy so probes stay short.
  // The rebuild walks flows_, which already holds `it`, so it indexes
  // the new flow too.
  if (index_.empty() ||
      (index_live_ + index_tombstones_ + 1) * 4 > index_.size() * 3) {
    index_grow();
    return;
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = hash & mask;
  while (index_[pos].hash >= 2) pos = (pos + 1) & mask;
  if (index_[pos].hash == 1) --index_tombstones_;
  index_[pos] = IndexSlot{hash, it};
  ++index_live_;
}

void RecordStreamExtractor::index_grow() {
  std::size_t capacity = index_.empty() ? kIndexInitialSlots : index_.size();
  while ((index_live_ + 1) * 4 > capacity * 3) capacity *= 2;
  index_.assign(capacity, IndexSlot{});
  index_tombstones_ = 0;
  index_live_ = 0;
  const std::size_t mask = capacity - 1;
  for (FlowMap::iterator it = flows_.begin(); it != flows_.end(); ++it) {
    std::size_t pos = it->second.index_hash & mask;
    while (index_[pos].hash != 0) pos = (pos + 1) & mask;
    index_[pos] = IndexSlot{it->second.index_hash, it};
    ++index_live_;
  }
}

void RecordStreamExtractor::process_items(
    const net::FlowKey& key, PerFlow& state,
    std::vector<net::TcpConnectionReassembler::DirectedItem>& items,
    std::vector<StreamEvent>& out) {
  for (auto& directed : items) {
    TlsRecordParser& parser =
        directed.direction == net::FlowDirection::kClientToServer
            ? state.client_parser
            : state.server_parser;
    if (directed.item.kind == net::StreamItem::Kind::kGap) {
      const net::StreamGap& gap = directed.item.gap;
      parser.on_gap(gap.timestamp, gap.length);
      ++state.gaps;
      state.gap_bytes += gap.length;
      ++gaps_total_;
      gap_bytes_total_ += gap.length;
      obs::inc(metrics_.tcp_gaps);
      obs::inc(metrics_.tcp_gap_bytes, gap.length);
      StreamEvent event;
      event.flow = key;
      event.kind = StreamEvent::Kind::kGap;
      event.gap = StreamGapEvent{gap.timestamp, directed.direction,
                                 gap.stream_offset, gap.length};
      out.push_back(std::move(event));
      continue;
    }
    net::StreamChunk& chunk = directed.item.chunk;
    const util::BytesView chunk_bytes = chunk.bytes();
    obs::inc(metrics_.tcp_chunks);
    obs::inc(metrics_.tcp_bytes, chunk_bytes.size());
    parsed_scratch_.clear();
    parser.feed(chunk.timestamp, chunk_bytes, parsed_scratch_);
    for (auto& parsed : parsed_scratch_) {
      emit_record(key, state, directed.direction, parsed, out);
    }
    // The parser copied what it keeps, and the records' payload views
    // (read for SNI) are done with: the buffer can hold the next piece.
    if (!chunk.owner.empty()) holds_.recycle(std::move(chunk.owner));
  }
  // The records' payload views are done with.
  state.client_parser.trim();
  state.server_parser.trim();
}

void RecordStreamExtractor::emit_record(const net::FlowKey& key, PerFlow& state,
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
  out.push_back(StreamEvent{key, StreamEvent::Kind::kRecord, event, {}});
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

void RecordStreamExtractor::complete_flow(FlowMap::iterator it,
                                          std::vector<StreamEvent>& out) {
  const net::FlowKey key = it->first;
  PerFlow& state = it->second;
  // The stream is over: give the parsers their end-of-stream chance to
  // re-lock with relaxed validation and emit trailing records.
  parsed_scratch_.clear();
  state.client_parser.flush(state.last_seen, parsed_scratch_);
  for (auto& parsed : parsed_scratch_) {
    emit_record(key, state, net::FlowDirection::kClientToServer, parsed, out);
  }
  parsed_scratch_.clear();
  state.server_parser.flush(state.last_seen, parsed_scratch_);
  for (auto& parsed : parsed_scratch_) {
    emit_record(key, state, net::FlowDirection::kServerToClient, parsed, out);
  }
  parsed_scratch_.clear();
  sync_tls_counters(state);
  if (config_.retain_events) completed_.push_back(snapshot(key, state));
  erase_flow(it, out.size());
  ++flows_completed_;
}

std::vector<StreamEvent> RecordStreamExtractor::flush() {
  std::vector<StreamEvent> out;
  while (!flows_.empty()) {
    const auto it = flows_.begin();
    PerFlow& state = it->second;
    auto items = state.reassembler.flush(state.last_seen);
    process_items(it->first, state, items, out);
    complete_flow(it, out);
  }
  return out;
}

std::size_t RecordStreamExtractor::sweep_idle(util::SimTime now) {
  if (config_.idle_timeout == util::Duration{}) return 0;
  const std::uint64_t before = flows_evicted_;
  // Reset the cadence gate: a timer-driven sweep is authoritative.
  sweep_armed_ = false;
  evict_idle(now, 0);
  return static_cast<std::size_t>(flows_evicted_ - before);
}

void RecordStreamExtractor::evict_idle(util::SimTime now,
                                       std::size_t events_before) {
  // Sweep at a fraction of the timeout so the scan cost amortizes to
  // O(1) per packet while flows still leave within ~1.25x the timeout.
  const util::Duration cadence =
      util::Duration::nanos(config_.idle_timeout.total_nanos() / 4);
  if (sweep_armed_ && now - last_sweep_ < cadence) return;
  sweep_armed_ = true;
  last_sweep_ = now;

  const util::SimTime cutoff = now - config_.idle_timeout;
  std::uint64_t evicted = 0;
  for (FlowMap::iterator it = flows_.begin(); it != flows_.end();) {
    if (it->second.last_seen < cutoff) {
      if (config_.retain_events) {
        completed_.push_back(snapshot(it->first, it->second));
      }
      it = erase_flow(it, events_before);
      ++evicted;
    } else {
      ++it;
    }
  }
  flows_evicted_ += evicted;
  obs::inc(metrics_.flows_evicted, evicted);
}

FlowRecordStream RecordStreamExtractor::snapshot(const net::FlowKey& key,
                                                 const PerFlow& state) const {
  FlowRecordStream stream;
  stream.flow = key;
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
  // Order by first event time (completed_ holds retirement order).
  std::sort(out.begin(), out.end(),
            [](const FlowRecordStream& a, const FlowRecordStream& b) {
              const util::SimTime ta =
                  a.events.empty() ? util::SimTime() : a.events.front().timestamp;
              const util::SimTime tb =
                  b.events.empty() ? util::SimTime() : b.events.front().timestamp;
              return ta < tb;
            });
  return out;
}

std::size_t RecordStreamExtractor::buffered_reassembly_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, state] : flows_) total += state.reassembler.buffered_bytes();
  return total;
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
  std::size_t total = arena_->stats().live_bytes +
                      index_.capacity() * sizeof(IndexSlot) +
                      pool_.capacity() * sizeof(PerFlow) + holds_.memory_bytes();
  for (const auto& [key, state] : flows_) total += held(state);
  for (const PerFlow& shell : pool_) total += held(shell);
  return total;
}

std::optional<std::string> RecordStreamExtractor::sni_of(
    const net::FlowKey& flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? std::nullopt : it->second.sni;
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
