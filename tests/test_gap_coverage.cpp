// Coverage for smaller public surfaces not exercised elsewhere:
// TcpConnectionBuilder edge behaviour, enum renderers, decoder/session
// accessors, behaviour profile edges.
#include <gtest/gtest.h>

#include "reassembly_helpers.hpp"
#include "wm/core/behavior.hpp"
#include "wm/core/decoder.hpp"
#include "wm/net/packet_builder.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/sim/streaming.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/tls/record_stream.hpp"

namespace wm::net {
namespace {

TcpEndpointConfig endpoint(std::uint8_t last_octet, std::uint16_t port) {
  TcpEndpointConfig config;
  config.mac = *MacAddress::parse("02:00:00:00:00:01");
  config.ip = Ipv4Address(10, 0, 0, last_octet);
  config.port = port;
  return config;
}

TEST(TcpConnectionBuilder, HandshakeSequenceNumbersConsume) {
  TcpConnectionBuilder conn(endpoint(1, 50000), endpoint(2, 443));
  conn.handshake(util::SimTime::from_seconds(0), util::Duration::millis(20));
  ASSERT_EQ(conn.packets().size(), 3u);

  const auto syn = decode_packet(conn.packets()[0]);
  const auto syn_ack = decode_packet(conn.packets()[1]);
  const auto ack = decode_packet(conn.packets()[2]);
  ASSERT_TRUE(syn && syn_ack && ack);
  EXPECT_TRUE(syn->tcp().syn);
  EXPECT_FALSE(syn->tcp().ack);
  EXPECT_TRUE(syn_ack->tcp().syn);
  EXPECT_TRUE(syn_ack->tcp().ack);
  EXPECT_EQ(syn_ack->tcp().ack_number, syn->tcp().sequence + 1);
  EXPECT_EQ(ack->tcp().sequence, syn->tcp().sequence + 1);
  EXPECT_EQ(ack->tcp().ack_number, syn_ack->tcp().sequence + 1);
}

TEST(TcpConnectionBuilder, CloseEmitsFinExchange) {
  TcpConnectionBuilder conn(endpoint(1, 50000), endpoint(2, 443));
  conn.handshake(util::SimTime::from_seconds(0), util::Duration::millis(20));
  conn.close(util::SimTime::from_seconds(1), util::Duration::millis(20));
  ASSERT_EQ(conn.packets().size(), 6u);
  const auto fin = decode_packet(conn.packets()[3]);
  const auto fin_ack = decode_packet(conn.packets()[4]);
  ASSERT_TRUE(fin && fin_ack);
  EXPECT_TRUE(fin->tcp().fin);
  EXPECT_TRUE(fin_ack->tcp().fin);
  EXPECT_TRUE(fin_ack->tcp().ack);
}

TEST(TcpConnectionBuilder, RetransmitRejectsBadIndex) {
  TcpConnectionBuilder conn(endpoint(1, 50000), endpoint(2, 443));
  EXPECT_THROW(conn.retransmit(0, util::SimTime::from_seconds(1)),
               std::out_of_range);
}

TEST(TcpConnectionBuilder, SegmentationAtMss) {
  TcpEndpointConfig client = endpoint(1, 50000);
  client.mss = 100;
  TcpConnectionBuilder conn(client, endpoint(2, 443));
  conn.handshake(util::SimTime::from_seconds(0), util::Duration::millis(20));
  const util::Bytes data(250, 0x5a);
  conn.send(FlowDirection::kClientToServer, util::SimTime::from_seconds(1), data,
            util::Duration::millis(1));
  // 3 handshake + 3 data segments (100+100+50).
  ASSERT_EQ(conn.packets().size(), 6u);
  const auto last = decode_packet(conn.packets().back());
  EXPECT_EQ(last->transport_payload.size(), 50u);
  EXPECT_TRUE(last->tcp().psh);

  // take_packets drains.
  auto taken = conn.take_packets();
  EXPECT_EQ(taken.size(), 6u);
  EXPECT_TRUE(conn.packets().empty());
}

TEST(EnumRenderers, Names) {
  EXPECT_EQ(to_string(FlowDirection::kClientToServer), "client->server");
  EXPECT_EQ(to_string(FlowDirection::kServerToClient), "server->client");
  EXPECT_EQ(to_string(IpProtocol::kTcp), "TCP");
  EXPECT_EQ(to_string(IpProtocol::kUdp), "UDP");
  EXPECT_EQ(to_string(IpProtocol::kIcmp), "ICMP");
}

TEST(Reassembly, RstPacketDeliversNothing) {
  TcpConnectionReassembler reassembler;
  TcpHeader tcp;
  tcp.source_port = 1;
  tcp.destination_port = 2;
  tcp.rst = true;
  const Packet packet = build_tcp_packet(
      util::SimTime::from_seconds(0), *MacAddress::parse("02:00:00:00:00:01"),
      *MacAddress::parse("02:00:00:00:00:02"), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), tcp, util::Bytes(10, 0x41), 1);
  const auto decoded = decode_packet(packet);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(
      test::on_packet(reassembler, *decoded, FlowDirection::kClientToServer)
          .empty());
}

}  // namespace
}  // namespace wm::net

namespace wm::core {
namespace {

TEST(InferredSession, ChoicesAccessor) {
  InferredSession session;
  InferredQuestion q1;
  q1.choice = story::Choice::kDefault;
  InferredQuestion q2;
  q2.choice = story::Choice::kNonDefault;
  session.questions = {q1, q2};
  const auto choices = session.choices();
  ASSERT_EQ(choices.size(), 2u);
  EXPECT_EQ(choices[0], story::Choice::kDefault);
  EXPECT_EQ(choices[1], story::Choice::kNonDefault);
}

TEST(Behavior, CustomRules) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const std::vector<TraitRule> rules{{"sugar", "sweet-tooth"}};
  const auto profile = profile_viewer(
      graph, std::vector<story::Choice>(13, story::Choice::kDefault), rules);
  ASSERT_EQ(profile.tags.size(), 1u);
  EXPECT_EQ(profile.tags[0], "sweet-tooth");
}

TEST(RecordClassNames, Rendered) {
  EXPECT_EQ(to_string(RecordClass::kType1Json), "type-1 JSON");
  EXPECT_EQ(to_string(RecordClass::kType2Json), "type-2 JSON");
  EXPECT_EQ(to_string(RecordClass::kOther), "others");
}

}  // namespace
}  // namespace wm::core

namespace wm::sim {
namespace {

TEST(EnumRenderers, SimNames) {
  EXPECT_EQ(to_string(AppFlow::kCdn), "CDN");
  EXPECT_EQ(to_string(AppFlow::kApi), "API");
  EXPECT_EQ(to_string(ClientMessageKind::kDecoyUpload), "decoy upload");
  EXPECT_EQ(to_string(ClientMessageKind::kChunkRequest), "chunk request");
}

TEST(RecordEvent, ClientApplicationDataPredicate) {
  tls::RecordEvent event;
  event.direction = net::FlowDirection::kClientToServer;
  event.content_type = tls::ContentType::kApplicationData;
  EXPECT_TRUE(event.is_client_application_data());
  event.direction = net::FlowDirection::kServerToClient;
  EXPECT_FALSE(event.is_client_application_data());
  event.direction = net::FlowDirection::kClientToServer;
  event.content_type = tls::ContentType::kHandshake;
  EXPECT_FALSE(event.is_client_application_data());
}

}  // namespace
}  // namespace wm::sim
