#include "wm/net/flow.hpp"

#include <gtest/gtest.h>

#include "wm/net/packet_builder.hpp"
#include "wm/tls/record_stream.hpp"

namespace wm::net {
namespace {

Packet tcp_packet(double t, Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, bool syn, bool ack,
                  std::size_t payload_size) {
  TcpHeader tcp;
  tcp.source_port = sport;
  tcp.destination_port = dport;
  tcp.sequence = 1;
  tcp.syn = syn;
  tcp.ack = ack;
  const util::Bytes payload(payload_size, 0x5a);
  return build_tcp_packet(util::SimTime::from_seconds(t),
                          *MacAddress::parse("02:00:00:00:00:01"),
                          *MacAddress::parse("02:00:00:00:00:02"), src, dst, tcp,
                          payload, 1);
}

const Ipv4Address kClient(10, 0, 0, 2);
const Ipv4Address kServer(198, 51, 100, 1);

/// The flows the extractor opened for `packets`, in its finish() order.
std::vector<tls::FlowRecordStream> flows_of(const std::vector<Packet>& packets) {
  tls::RecordStreamExtractor extractor;
  std::vector<tls::StreamEvent> events;
  extractor.feed_batch(packets.data(), packets.size(), events);
  return extractor.finish();
}

TEST(FlowOrientation, SynEstablishesClientOrientation) {
  // The SYN's sender is the client; the SYN-ACK joins the same flow.
  const auto flows =
      flows_of({tcp_packet(0.0, kClient, 50000, kServer, 443, true, false, 0),
                tcp_packet(0.1, kServer, 443, kClient, 50000, true, true, 0)});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow.client.v4, kClient);
  EXPECT_EQ(flows[0].flow.client.port, 50000);
  EXPECT_EQ(flows[0].flow.server.port, 443);
}

TEST(FlowOrientation, SynSenderIsClientEvenOnAServicePort) {
  // A pure SYN outranks the port heuristic.
  const auto flows =
      flows_of({tcp_packet(0.0, kServer, 443, kClient, 50000, true, false, 0)});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow.client.port, 443);
}

TEST(FlowOrientation, MidStreamServicePortHeuristic) {
  // First observed packet comes FROM the server (mid-capture): its
  // well-known source port makes the peer the client, and its payload
  // counts on the server side.
  const auto flows =
      flows_of({tcp_packet(0.0, kServer, 443, kClient, 50001, false, true, 100)});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow.client.v4, kClient);
  EXPECT_EQ(flows[0].flow.client.port, 50001);
  EXPECT_EQ(flows[0].flow.server.port, 443);
  EXPECT_EQ(flows[0].server_stream_bytes, 100u);
  EXPECT_EQ(flows[0].client_stream_bytes, 0u);
}

TEST(FlowOrientation, DistinctFlowsSeparated) {
  const auto flows = flows_of(
      {tcp_packet(0.0, kClient, 50000, kServer, 443, true, false, 0),
       tcp_packet(0.1, kClient, 50001, kServer, 443, true, false, 0),
       tcp_packet(0.2, kClient, 50000, Ipv4Address(1, 2, 3, 4), 443, true, false, 0)});
  EXPECT_EQ(flows.size(), 3u);
}

TEST(FlowKey, StringRendering) {
  const FlowKey key{Endpoint{false, kClient, {}, 50000},
                    Endpoint{false, kServer, {}, 443}, IpProtocol::kTcp};
  const std::string text = key.to_string();
  EXPECT_NE(text.find("10.0.0.2:50000"), std::string::npos);
  EXPECT_NE(text.find("198.51.100.1:443"), std::string::npos);
  EXPECT_NE(text.find("TCP"), std::string::npos);
}

TEST(PacketEndpoints, NonTransportPacketsRejected) {
  // An ARP frame decodes to nullopt entirely.
  util::ByteWriter writer;
  EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kArp);
  eth.serialize(writer);
  writer.write_repeated(0, 28);
  Packet arp(util::SimTime::from_seconds(0), writer.take());
  EXPECT_FALSE(decode_packet(arp).has_value());
}

TEST(DecodedPacket, SummaryContainsEssentials) {
  const auto decoded =
      decode_packet(tcp_packet(1.5, kClient, 50000, kServer, 443, true, false, 0));
  const std::string summary = decoded->summary();
  EXPECT_NE(summary.find("t=1.500s"), std::string::npos);
  EXPECT_NE(summary.find("SYN"), std::string::npos);
  EXPECT_NE(summary.find("10.0.0.2:50000"), std::string::npos);
}

TEST(FlowShardHash, UndecidableOrientationFallsBackToTheFlowHash) {
  // Neither port is a well-known one, so viewer_shard_hash cannot tell
  // the viewer apart and hashes the whole 5-tuple instead: the
  // direction-symmetric endpoint_pair_hash of the frame's endpoints.
  const Ipv4Address peer(10, 0, 0, 3);
  const Packet forward = tcp_packet(0.0, kClient, 50000, peer, 6881, false, true, 10);
  const Packet reverse = tcp_packet(0.1, peer, 6881, kClient, 50000, false, true, 10);
  const Packet other = tcp_packet(0.2, kClient, 50001, peer, 6881, false, true, 10);

  const auto ha = viewer_shard_hash(forward);
  const auto hb = viewer_shard_hash(reverse);
  const auto hc = viewer_shard_hash(other);
  ASSERT_TRUE(ha && hb && hc);
  const Endpoint client{false, kClient, {}, 50000};
  const Endpoint server{false, peer, {}, 6881};
  EXPECT_EQ(*ha, endpoint_pair_hash(client, server, IpProtocol::kTcp));
  EXPECT_EQ(*ha, *hb);  // both directions land on the same shard
  EXPECT_NE(*ha, *hc);  // sibling flow (port+1) lands elsewhere
  EXPECT_EQ(*hc, endpoint_pair_hash(Endpoint{false, kClient, {}, 50001}, server,
                                    IpProtocol::kTcp));

  // With a service port on one side only the viewer's address counts.
  const auto viewer = viewer_shard_hash(
      tcp_packet(0.0, kClient, 50000, kServer, 443, false, true, 10));
  ASSERT_TRUE(viewer.has_value());
  EXPECT_EQ(viewer, viewer_shard_hash(
                        tcp_packet(0.0, kClient, 50001, kServer, 443, false, true, 10)));

  // Non-transport frames get no hash (the fleet counts them unroutable).
  util::ByteWriter writer;
  EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kArp);
  eth.serialize(writer);
  writer.write_repeated(0, 28);
  const Packet arp(util::SimTime::from_seconds(0), writer.take());
  EXPECT_FALSE(viewer_shard_hash(arp).has_value());
}

}  // namespace
}  // namespace wm::net
