// Flow identification: canonical 5-tuple keys, per-flow direction, and
// direction-symmetric flow and viewer hashes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "wm/net/packet.hpp"

namespace wm::net {

/// Which way a packet travels within its bidirectional flow.
enum class FlowDirection : std::uint8_t {
  kClientToServer,
  kServerToClient,
};

std::string to_string(FlowDirection direction);

/// One endpoint of a flow. IPv6 addresses are supported alongside IPv4;
/// exactly one of the address fields is meaningful per key (`is_v6`).
struct Endpoint {
  bool is_v6 = false;
  Ipv4Address v4;
  Ipv6Address v6;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  auto operator<=>(const Endpoint&) const = default;
};

/// Canonical bidirectional flow key. The "client" is the endpoint that
/// was seen initiating (first packet / SYN); the key stores client and
/// server in that orientation so both directions map to the same key.
struct FlowKey {
  Endpoint client;
  Endpoint server;
  IpProtocol protocol = IpProtocol::kTcp;

  [[nodiscard]] std::string to_string() const;
  auto operator<=>(const FlowKey&) const = default;
};

/// Extract the (source, destination, protocol) endpoints of a decoded
/// packet; nullopt for non-TCP/UDP packets.
struct PacketEndpoints {
  Endpoint source;
  Endpoint destination;
  IpProtocol protocol = IpProtocol::kTcp;
};
std::optional<PacketEndpoints> packet_endpoints(const DecodedPacket& packet);

/// Direction-symmetric 64-bit hash of an endpoint pair — the same value
/// viewer_shard_hash's fallback computes from a raw frame's 5-tuple,
/// but starting from already-extracted endpoints. Hot-path flow indexes
/// key on this so a lookup costs one hash + probe instead of an
/// ordered-key comparison chain; both orientations of a flow hash
/// identically.
std::uint64_t endpoint_pair_hash(const Endpoint& a, const Endpoint& b,
                                 IpProtocol protocol);

/// 64-bit hash of the *viewer* (client) address parsed from the raw
/// frame, for partitioning packets across ContinuousMonitor shards so
/// every flow belonging to one subscriber lands on the same shard. The
/// server side is identified by the same heuristic
/// tls::RecordStreamExtractor uses for SYN-less flows: a well-known
/// port (< 1024) on exactly one endpoint. When the orientation is
/// undecidable (both or neither endpoint on a well-known port) this
/// degrades to the direction-symmetric flow hash (endpoint_pair_hash of
/// the frame's endpoints) — flows stay whole, but one viewer's flows
/// may then land on different shards.
/// Returns nullopt for frames with no TCP/UDP transport.
std::optional<std::uint64_t> viewer_shard_hash(const Packet& packet);

}  // namespace wm::net
