// Vector-returning wrappers over the reassemblers' append-style entry
// points, for tests that look at one call's output at a time.
#pragma once

#include <vector>

#include "wm/net/packet.hpp"
#include "wm/net/reassembly.hpp"

namespace wm::net::test {

/// TcpStreamReassembler::on_segment with owned copies, into a fresh
/// vector.
inline std::vector<StreamItem> on_segment(TcpStreamReassembler& stream,
                                          util::SimTime timestamp,
                                          std::uint32_t sequence, bool syn,
                                          bool fin, util::BytesView payload,
                                          std::size_t truncated_bytes = 0) {
  std::vector<StreamItem> out;
  stream.on_segment(timestamp, sequence, syn, fin, payload, truncated_bytes,
                    PayloadHold{}, out);
  return out;
}

/// One decoded TCP packet into a connection reassembler, into a fresh
/// vector; non-TCP packets deliver nothing.
inline std::vector<TcpConnectionReassembler::DirectedItem> on_packet(
    TcpConnectionReassembler& connection, const DecodedPacket& packet,
    FlowDirection direction) {
  std::vector<TcpConnectionReassembler::DirectedItem> out;
  if (!packet.has_tcp()) return out;
  const TcpHeader& tcp = packet.tcp();
  connection.on_segment(direction, packet.timestamp, tcp.sequence, tcp.syn,
                        tcp.fin, tcp.rst, packet.transport_payload,
                        packet.transport_payload_missing, out);
  return out;
}

}  // namespace wm::net::test
