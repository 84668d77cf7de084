// Test-side capture edit: strip the TCP teardown from chosen flows.
//
// A flow retires when its connection closes (RST, or the active
// closer's ACK of the peer's FIN). Tests of the idle sweep need flows
// that never close, the way an abandoned connection or a lost teardown
// looks on the wire: dropping a flow's FIN segments leaves both of its
// directions unfinished, so only the sweep (or flush) retires it.
#pragma once

#include <cstdint>
#include <vector>

#include "wm/net/flow.hpp"
#include "wm/net/packet.hpp"

namespace wm::test {

/// True when `packet` is a FIN segment of a flow picked by `every`: the
/// flows whose symmetric endpoint-pair hash is a multiple of `every`,
/// so both directions of a flow are picked together (1 = every flow).
inline bool is_stripped_fin(const net::Packet& packet, std::uint64_t every) {
  const auto decoded = net::decode_packet(packet);
  if (!decoded || !decoded->has_tcp() || !decoded->tcp().fin) return false;
  const auto endpoints = net::packet_endpoints(*decoded);
  if (!endpoints) return false;
  const std::uint64_t hash = net::endpoint_pair_hash(
      endpoints->source, endpoints->destination, net::IpProtocol::kTcp);
  return hash % every == 0;
}

/// `packets` without the FIN segments of the flows `every` picks.
inline std::vector<net::Packet> strip_teardown(
    const std::vector<net::Packet>& packets, std::uint64_t every = 1) {
  std::vector<net::Packet> out;
  out.reserve(packets.size());
  for (const net::Packet& packet : packets) {
    if (!is_stripped_fin(packet, every)) out.push_back(packet);
  }
  return out;
}

}  // namespace wm::test
