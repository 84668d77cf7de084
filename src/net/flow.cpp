#include "wm/net/flow.hpp"

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

// Direction-symmetric hash of a raw frame's 5-tuple, parsed straight
// from the wire bytes: the value endpoint_pair_hash gives its two
// endpoints. Kept out of line, re-parsing the frame: viewer_shard_hash
// then tail-calls it and needs no stack frame of its own, where
// inlining it (or handing it the parsed tuple) slowed the fleet's
// per-packet route from about 11 to 13 ns (cohort_fleet, traced).
[[gnu::noinline]] std::optional<std::uint64_t> flow_shard_hash(const Packet& packet) {
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

}  // namespace

std::uint64_t endpoint_pair_hash(const Endpoint& a, const Endpoint& b,
                                 IpProtocol protocol) {
  const std::uint64_t ha = endpoint_hash(a);
  const std::uint64_t hb = endpoint_hash(b);
  return mix((ha + hb) ^ static_cast<std::uint8_t>(protocol)) ^ mix(ha ^ hb);
}

std::optional<std::uint64_t> viewer_shard_hash(const Packet& packet) {
  const auto tuple = parse_raw_tuple(util::BytesView(packet.data));
  if (!tuple) return std::nullopt;
  // Same orientation heuristic RecordStreamExtractor uses for SYN-less
  // flows: a well-known port (< 1024) on exactly one endpoint marks the
  // server, so the other endpoint's address is the viewer. Hashing the
  // address alone (no port) keeps every flow of one client — CDN, API,
  // and any parallel connections — on the same shard, matching the
  // monitor's per-viewer keying.
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

}  // namespace wm::net
