#include "wm/net/flow.hpp"

#include <algorithm>
#include <sstream>

namespace wm::net {

std::string to_string(FlowDirection direction) {
  return direction == FlowDirection::kClientToServer ? "client->server"
                                                     : "server->client";
}

std::string Endpoint::to_string() const {
  std::ostringstream out;
  if (is_v6) {
    out << '[' << v6.to_string() << "]:" << port;
  } else {
    out << v4.to_string() << ':' << port;
  }
  return out.str();
}

std::string FlowKey::to_string() const {
  std::ostringstream out;
  out << wm::net::to_string(protocol) << ' ' << client.to_string() << " <-> "
      << server.to_string();
  return out.str();
}

std::optional<PacketEndpoints> packet_endpoints(const DecodedPacket& packet) {
  PacketEndpoints out;
  if (packet.has_ipv4()) {
    out.source.v4 = packet.ipv4().source;
    out.destination.v4 = packet.ipv4().destination;
  } else if (packet.has_ipv6()) {
    out.source.is_v6 = true;
    out.destination.is_v6 = true;
    out.source.v6 = packet.ipv6().source;
    out.destination.v6 = packet.ipv6().destination;
  } else {
    return std::nullopt;
  }

  if (packet.has_tcp()) {
    out.protocol = IpProtocol::kTcp;
    out.source.port = packet.tcp().source_port;
    out.destination.port = packet.tcp().destination_port;
  } else if (packet.has_udp()) {
    out.protocol = IpProtocol::kUdp;
    out.source.port = packet.udp().source_port;
    out.destination.port = packet.udp().destination_port;
  } else {
    return std::nullopt;
  }
  return out;
}

std::optional<FlowTable::Assignment> FlowTable::add(const DecodedPacket& packet,
                                                    std::size_t packet_index) {
  const auto endpoints = packet_endpoints(packet);
  if (!endpoints) return std::nullopt;

  const bool is_tcp = endpoints->protocol == IpProtocol::kTcp;
  const bool is_syn_only = is_tcp && packet.tcp().syn && !packet.tcp().ack;

  // Try both orientations to find an existing flow.
  FlowKey forward{endpoints->source, endpoints->destination, endpoints->protocol};
  FlowKey reverse{endpoints->destination, endpoints->source, endpoints->protocol};

  auto it = flows_.find(forward);
  FlowDirection direction = FlowDirection::kClientToServer;
  if (it == flows_.end()) {
    const auto rev_it = flows_.find(reverse);
    if (rev_it != flows_.end()) {
      it = rev_it;
      direction = FlowDirection::kServerToClient;
    }
  }

  if (it == flows_.end()) {
    // New flow: decide orientation.
    FlowKey key = forward;
    direction = FlowDirection::kClientToServer;
    if (!is_syn_only) {
      // Mid-stream heuristic: a well-known source port suggests the
      // packet came *from* the server.
      const bool src_service = endpoints->source.port < 1024;
      const bool dst_service = endpoints->destination.port < 1024;
      if (src_service && !dst_service) {
        key = reverse;
        direction = FlowDirection::kServerToClient;
      }
    }
    FlowRecord record;
    record.key = key;
    record.first_seen = packet.timestamp;
    record.last_seen = packet.timestamp;
    it = flows_.emplace(key, std::move(record)).first;
    obs::inc(config_.created_counter);
  }

  FlowRecord& flow = it->second;
  flow.last_seen = packet.timestamp;

  FlowPacket member;
  member.packet_index = packet_index;
  member.timestamp = packet.timestamp;
  member.direction = direction;
  member.transport_payload_size = packet.transport_payload.size();
  if (is_tcp) {
    const TcpHeader& tcp = packet.tcp();
    member.sequence = tcp.sequence;
    member.syn = tcp.syn;
    member.fin = tcp.fin;
    member.rst = tcp.rst;
    if (tcp.syn) flow.saw_syn = true;
  }
  if (direction == FlowDirection::kClientToServer) {
    flow.client_bytes += member.transport_payload_size;
  } else {
    flow.server_bytes += member.transport_payload_size;
  }
  if (config_.track_packets) flow.packets.push_back(member);
  return Assignment{it->first, direction};
}

std::vector<FlowKey> FlowTable::evict_idle(util::SimTime now) {
  std::vector<FlowKey> evicted;
  if (config_.idle_timeout == util::Duration{}) return evicted;
  const util::SimTime cutoff = now - config_.idle_timeout;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.last_seen < cutoff) {
      evicted.push_back(it->first);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  evicted_ += evicted.size();
  obs::inc(config_.evicted_counter, evicted.size());
  return evicted;
}

bool FlowTable::remove(const FlowKey& key) {
  return flows_.erase(key) != 0;
}

const FlowRecord* FlowTable::find(const FlowKey& key) const {
  const auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

namespace {

// FNV-1a over a byte span; the seed lets the endpoint hash fold in the
// port after the address without a second pass.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash = 14695981039346656037ull) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer: spreads the commutative combine's bits.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The address/port/protocol fields of a raw frame, as pointers into
// the packet bytes — shared by the flow and viewer shard hashes so
// both parse the wire format exactly once, identically.
struct RawTuple {
  const std::uint8_t* addr_a = nullptr;  // source address bytes
  const std::uint8_t* addr_b = nullptr;  // destination address bytes
  std::size_t addr_len = 0;
  const std::uint8_t* ports = nullptr;   // src port at +0, dst at +2
  std::uint8_t protocol = 0;
};

std::optional<RawTuple> parse_raw_tuple(util::BytesView frame) {
  const std::uint8_t* p = frame.data();
  std::size_t size = frame.size();
  if (size < 14) return std::nullopt;
  std::size_t offset = 12;
  std::uint16_t ethertype = static_cast<std::uint16_t>((p[offset] << 8) | p[offset + 1]);
  offset += 2;
  if (ethertype == 0x8100) {  // 802.1Q tag
    if (size < offset + 4) return std::nullopt;
    ethertype = static_cast<std::uint16_t>((p[offset + 2] << 8) | p[offset + 3]);
    offset += 4;
  }

  RawTuple tuple;
  std::size_t transport = 0;
  if (ethertype == 0x0800) {  // IPv4
    if (size < offset + 20) return std::nullopt;
    const std::size_t header_len = static_cast<std::size_t>(p[offset] & 0x0f) * 4;
    if (header_len < 20 || size < offset + header_len) return std::nullopt;
    tuple.protocol = p[offset + 9];
    tuple.addr_a = p + offset + 12;
    tuple.addr_b = p + offset + 16;
    tuple.addr_len = 4;
    transport = offset + header_len;
  } else if (ethertype == 0x86dd) {  // IPv6 (no extension-header walk)
    if (size < offset + 40) return std::nullopt;
    tuple.protocol = p[offset + 6];
    tuple.addr_a = p + offset + 8;
    tuple.addr_b = p + offset + 24;
    tuple.addr_len = 16;
    transport = offset + 40;
  } else {
    return std::nullopt;
  }
  if (tuple.protocol != 6 && tuple.protocol != 17) return std::nullopt;  // TCP/UDP only
  if (size < transport + 4) return std::nullopt;
  tuple.ports = p + transport;
  return tuple;
}

std::uint16_t port_at(const std::uint8_t* ports, std::size_t index) {
  return static_cast<std::uint16_t>((ports[index * 2] << 8) | ports[index * 2 + 1]);
}

// One endpoint's contribution: FNV over the address wire bytes, then
// the two big-endian port bytes — byte-for-byte what flow_shard_hash
// feeds fnv1a from the raw frame.
std::uint64_t endpoint_hash(const Endpoint& endpoint) {
  std::uint64_t hash;
  if (endpoint.is_v6) {
    hash = fnv1a(endpoint.v6.octets().data(), 16);
  } else {
    const std::uint32_t v = endpoint.v4.value();
    const std::uint8_t wire[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    hash = fnv1a(wire, 4);
  }
  const std::uint8_t port[2] = {static_cast<std::uint8_t>(endpoint.port >> 8),
                                static_cast<std::uint8_t>(endpoint.port)};
  return fnv1a(port, 2, hash);
}

}  // namespace

std::uint64_t endpoint_pair_hash(const Endpoint& a, const Endpoint& b,
                                 IpProtocol protocol) {
  const std::uint64_t ha = endpoint_hash(a);
  const std::uint64_t hb = endpoint_hash(b);
  return mix((ha + hb) ^ static_cast<std::uint8_t>(protocol)) ^ mix(ha ^ hb);
}

std::optional<std::uint64_t> flow_shard_hash(const Packet& packet) {
  const auto tuple = parse_raw_tuple(util::BytesView(packet.data));
  if (!tuple) return std::nullopt;
  // Endpoint hash = fnv(address bytes, then port bytes); combining the
  // two endpoints commutatively makes the result direction-symmetric.
  const std::uint64_t ha =
      fnv1a(tuple->ports, 2, fnv1a(tuple->addr_a, tuple->addr_len));
  const std::uint64_t hb =
      fnv1a(tuple->ports + 2, 2, fnv1a(tuple->addr_b, tuple->addr_len));
  return mix((ha + hb) ^ tuple->protocol) ^ mix(ha ^ hb);
}

std::optional<std::uint64_t> viewer_shard_hash(const Packet& packet) {
  const auto tuple = parse_raw_tuple(util::BytesView(packet.data));
  if (!tuple) return std::nullopt;
  // Same orientation heuristic FlowTable uses for SYN-less flows: a
  // well-known port (< 1024) on exactly one endpoint marks the server,
  // so the other endpoint's address is the viewer. Hashing the address
  // alone (no port) keeps every flow of one client — CDN, API, and any
  // parallel connections — on the same shard, matching the monitor's
  // per-viewer keying.
  const bool a_service = port_at(tuple->ports, 0) < 1024;
  const bool b_service = port_at(tuple->ports, 1) < 1024;
  if (a_service != b_service) {
    const std::uint8_t* viewer = a_service ? tuple->addr_b : tuple->addr_a;
    return mix(fnv1a(viewer, tuple->addr_len));
  }
  // Undecidable orientation (both or neither side on a well-known
  // port): fall back to the direction-symmetric flow hash so the flow
  // at least stays whole. Viewer affinity may split in this case.
  return flow_shard_hash(packet);
}

std::vector<const FlowRecord*> FlowTable::by_volume() const {
  std::vector<const FlowRecord*> out;
  out.reserve(flows_.size());
  for (const auto& [key, record] : flows_) out.push_back(&record);
  std::sort(out.begin(), out.end(), [](const FlowRecord* a, const FlowRecord* b) {
    return a->total_bytes() > b->total_bytes();
  });
  return out;
}

}  // namespace wm::net
