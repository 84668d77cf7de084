// TlsSession emission and attacker-side record stream extraction over a
// synthesized connection.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "teardown.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/net/packet_builder.hpp"
#include "wm/tls/handshake.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/tls/session.hpp"

namespace wm::tls {
namespace {

using net::FlowDirection;
using util::Duration;
using util::SimTime;

TlsSessionConfig firefox_config() {
  TlsSessionConfig config;
  config.suite = CipherSuite::kTlsEcdheRsaAes256GcmSha384;
  config.sni = "occ-0-2433-2430.1.nflxvideo.net";
  return config;
}

TEST(TlsSession, ClientHelloFlightCarriesSni) {
  TlsSession session(firefox_config(), util::Rng(1));
  const auto flight = session.client_hello_flight();
  ASSERT_EQ(flight.size(), 1u);
  EXPECT_EQ(flight[0].content_type, ContentType::kHandshake);
  const auto sni = extract_sni(flight[0].payload);
  ASSERT_TRUE(sni.has_value());
  EXPECT_EQ(*sni, "occ-0-2433-2430.1.nflxvideo.net");
}

TEST(TlsSession, ServerFlightTls12Shape) {
  TlsSession session(firefox_config(), util::Rng(2));
  const auto flight = session.server_hello_flight();
  ASSERT_GE(flight.size(), 1u);
  for (const TlsRecord& record : flight) {
    EXPECT_EQ(record.content_type, ContentType::kHandshake);
    EXPECT_LE(record.payload.size(), kMaxFragmentLength);
  }
  // The flight carries the certificate chain, so it is multi-KB.
  std::size_t total = 0;
  for (const TlsRecord& record : flight) total += record.payload.size();
  EXPECT_GT(total, 4000u);
}

TEST(TlsSession, ServerFlightTls13Shape) {
  TlsSessionConfig config = firefox_config();
  config.suite = CipherSuite::kTlsAes128GcmSha256;
  TlsSession session(config, util::Rng(3));
  const auto flight = session.server_hello_flight();
  ASSERT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight[0].content_type, ContentType::kHandshake);
  EXPECT_EQ(flight[1].content_type, ContentType::kChangeCipherSpec);
  EXPECT_EQ(flight[2].content_type, ContentType::kApplicationData);
}

TEST(TlsSession, SealedSizeMatchesCipherModel) {
  TlsSession session(firefox_config(), util::Rng(4));
  const auto records = session.seal_application_data(std::size_t{2188});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].length(), 2212u);  // +24 GCM overhead
  EXPECT_EQ(records[0].content_type, ContentType::kApplicationData);
}

TEST(TlsSession, FragmentsAtMaxPlaintext) {
  TlsSession session(firefox_config(), util::Rng(5));
  const std::size_t big = kMaxFragmentLength * 2 + 100;
  const auto records = session.seal_application_data(big);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].length(), kMaxFragmentLength + 24);
  EXPECT_EQ(records[1].length(), kMaxFragmentLength + 24);
  EXPECT_EQ(records[2].length(), 100u + 24u);
  EXPECT_EQ(session.records_sealed(), 3u);
}

TEST(TlsSession, CustomFragmentLimit) {
  TlsSessionConfig config = firefox_config();
  config.max_plaintext_fragment = 1000;
  TlsSession session(config, util::Rng(6));
  const auto records = session.seal_application_data(std::size_t{2500});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].length(), 1024u);
}

TEST(TlsSession, ZeroSizePayloadStillEmitsRecord) {
  TlsSession session(firefox_config(), util::Rng(7));
  const auto records = session.seal_application_data(std::size_t{0});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].length(), 24u);
}

TEST(TlsSession, CloseNotifyIsAlert) {
  TlsSession session(firefox_config(), util::Rng(8));
  EXPECT_EQ(session.close_notify().content_type, ContentType::kAlert);
}

// --- record stream extraction -----------------------------------------

class RecordStreamTest : public ::testing::Test {
 protected:
  /// Build a full connection: handshakes + app data both ways.
  std::vector<net::Packet> build_connection(
      std::vector<std::size_t> client_sizes,
      std::vector<std::size_t> server_sizes, std::uint16_t client_port = 51000,
      bool close = true, const TlsSessionConfig& tls = firefox_config()) {
    TlsSession session(tls, util::Rng(9));
    net::TcpEndpointConfig client;
    client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
    client.ip = net::Ipv4Address(10, 0, 0, 2);
    client.port = client_port;
    net::TcpEndpointConfig server = client;
    server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
    server.ip = net::Ipv4Address(198, 45, 48, 10);
    server.port = 443;
    net::TcpConnectionBuilder conn(client, server);

    SimTime t = SimTime::from_seconds(0.0);
    conn.handshake(t, Duration::millis(20));
    t += Duration::millis(30);
    conn.send(FlowDirection::kClientToServer, t,
              serialize_records(session.client_hello_flight()));
    t += Duration::millis(20);
    conn.send(FlowDirection::kServerToClient, t,
              serialize_records(session.server_hello_flight()));
    t += Duration::millis(20);
    conn.send(FlowDirection::kClientToServer, t,
              serialize_records(session.client_finished_flight()));
    t += Duration::millis(20);
    for (std::size_t size : client_sizes) {
      conn.send(FlowDirection::kClientToServer, t,
                serialize_records(session.seal_application_data(size)));
      t += Duration::millis(15);
    }
    for (std::size_t size : server_sizes) {
      conn.send(FlowDirection::kServerToClient, t,
                serialize_records(session.seal_application_data(size)));
      t += Duration::millis(15);
    }
    if (close) conn.close(t, Duration::millis(20));
    return conn.take_packets();
  }
};

TEST_F(RecordStreamTest, ExtractsFlowWithSniAndRecords) {
  const auto packets = build_connection({2188, 2970}, {100000});
  const auto streams = extract_record_streams(packets);
  ASSERT_EQ(streams.size(), 1u);
  const FlowRecordStream& stream = streams[0];
  ASSERT_TRUE(stream.sni.has_value());
  EXPECT_EQ(*stream.sni, "occ-0-2433-2430.1.nflxvideo.net");
  EXPECT_FALSE(stream.client_desynchronized);
  EXPECT_FALSE(stream.server_desynchronized);

  // Client app records: 2 uploads.
  EXPECT_EQ(stream.count(FlowDirection::kClientToServer,
                         ContentType::kApplicationData),
            2u);
  // Server app data: 100000 bytes -> ceil(100000/16384) = 7 records.
  EXPECT_EQ(stream.count(FlowDirection::kServerToClient,
                         ContentType::kApplicationData),
            7u);

  // Record lengths are exactly plaintext + 24.
  for (const RecordEvent& event : stream.events) {
    if (event.is_client_application_data()) {
      EXPECT_TRUE(event.record_length == 2212 || event.record_length == 2994);
    }
  }
}

TEST_F(RecordStreamTest, EventsAreTimeOrdered) {
  const auto packets = build_connection({500, 600, 700}, {20000});
  const auto streams = extract_record_streams(packets);
  ASSERT_EQ(streams.size(), 1u);
  for (std::size_t i = 1; i < streams[0].events.size(); ++i) {
    EXPECT_LE(streams[0].events[i - 1].timestamp, streams[0].events[i].timestamp);
  }
}

TEST_F(RecordStreamTest, SurvivesCaptureReordering) {
  auto packets = build_connection({2188}, {60000});
  // Swap a couple of adjacent server data packets (capture reorder).
  for (std::size_t i = 10; i + 1 < packets.size(); i += 7) {
    std::swap(packets[i], packets[i + 1]);
  }
  const auto streams = extract_record_streams(packets);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_FALSE(streams[0].client_desynchronized);
  EXPECT_FALSE(streams[0].server_desynchronized);
  EXPECT_EQ(streams[0].count(FlowDirection::kClientToServer,
                             ContentType::kApplicationData),
            1u);
}

TEST_F(RecordStreamTest, SurvivesRetransmission) {
  TlsSession session(firefox_config(), util::Rng(10));
  net::TcpEndpointConfig client;
  client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
  client.ip = net::Ipv4Address(10, 0, 0, 2);
  client.port = 51000;
  net::TcpEndpointConfig server = client;
  server.ip = net::Ipv4Address(198, 45, 48, 10);
  server.port = 443;
  net::TcpConnectionBuilder conn(client, server);
  conn.handshake(SimTime::from_seconds(0), Duration::millis(20));
  conn.send(FlowDirection::kClientToServer, SimTime::from_seconds(0.1),
            serialize_records(session.seal_application_data(std::size_t{2188})));
  const std::size_t data_packet = conn.packets().size() - 1;
  conn.retransmit(data_packet, SimTime::from_seconds(0.2));
  const auto streams = extract_record_streams(conn.take_packets());
  ASSERT_EQ(streams.size(), 1u);
  // The retransmitted record is delivered exactly once.
  EXPECT_EQ(streams[0].count(FlowDirection::kClientToServer,
                             ContentType::kApplicationData),
            1u);
}

TEST_F(RecordStreamTest, FlowQuietAfterHandshakeHoldsNoBuffer) {
  // The server sends its multi-segment handshake flight and then
  // nothing, so no later server feed would free the parser buffer that
  // flight grew: the extractor's trim after its emit loop must.
  RecordStreamExtractor extractor;
  std::vector<StreamEvent> events;
  constexpr std::size_t kFlows = 512;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto packets = build_connection(
        {470}, {}, static_cast<std::uint16_t>(20000 + i), /*close=*/false);
    extractor.feed_batch(packets.data(), packets.size(), events);
  }
  ASSERT_EQ(extractor.active_flows(), kFlows);
  EXPECT_LE(extractor.memory_bytes() / kFlows, 1536u);
  const auto streams = extractor.finish();
  ASSERT_EQ(streams.size(), kFlows);
  for (const FlowRecordStream& stream : streams) {
    EXPECT_EQ(stream.sni, "occ-0-2433-2430.1.nflxvideo.net");
    EXPECT_EQ(stream.count(FlowDirection::kClientToServer,
                           ContentType::kApplicationData),
              1u);
  }
}

TEST(RecordStreamExtractor, IgnoresNonTcpTraffic) {
  RecordStreamExtractor extractor;
  const net::Packet udp = net::build_udp_packet(
      SimTime::from_seconds(0), *net::MacAddress::parse("02:00:00:00:00:01"),
      *net::MacAddress::parse("02:00:00:00:00:02"), net::Ipv4Address(10, 0, 0, 1),
      net::Ipv4Address(8, 8, 8, 8), 5000, 53, util::Bytes{1, 2, 3}, 1);
  EXPECT_TRUE(extractor.feed(udp).empty());
  net::Packet garbage(SimTime::from_seconds(1), util::Bytes(10, 0xff));
  EXPECT_TRUE(extractor.feed(garbage).empty());
  EXPECT_EQ(extractor.packets_seen(), 2u);
  EXPECT_EQ(extractor.packets_undecodable(), 1u);
  EXPECT_TRUE(extractor.finish().empty());
}

/// A bare TCP segment from 10.1.x.y:`port` to 198.45.48.10:443.
net::Packet bare_segment(SimTime at, std::uint16_t port, bool syn, bool rst) {
  net::TcpHeader tcp;
  tcp.source_port = port;
  tcp.destination_port = 443;
  tcp.sequence = 1000;
  tcp.syn = syn;
  tcp.rst = rst;
  tcp.ack = rst;
  return net::build_tcp_packet(
      at, *net::MacAddress::parse("02:00:00:00:00:01"),
      *net::MacAddress::parse("02:00:00:00:00:02"),
      net::Ipv4Address(10, 1, static_cast<std::uint8_t>(port >> 8),
                       static_cast<std::uint8_t>(port & 0xff)),
      net::Ipv4Address(198, 45, 48, 10), tcp, {}, 1);
}

TEST(RecordStreamExtractor, FlowInsertedAtIndexGrowthIsIndexedOnce) {
  // The 768th flow's insert grows the 1024-slot index. Erasing it (RST)
  // must leave no index slot pointing at its freed node, so a new SYN on
  // the same 4-tuple opens a fresh flow.
  RecordStreamExtractor extractor;
  std::vector<StreamEvent> out;
  SimTime t = SimTime::from_seconds(1.0);
  const auto feed = [&](const net::Packet& packet) {
    extractor.feed_batch(&packet, 1, out);
    t += Duration::micros(10);
  };
  for (std::uint16_t i = 1; i <= 769; ++i) {
    feed(bare_segment(t, static_cast<std::uint16_t>(20000 + i), true, false));
  }
  ASSERT_EQ(extractor.active_flows(), 769u);
  feed(bare_segment(t, 20768, false, true));
  EXPECT_EQ(extractor.active_flows(), 768u);
  EXPECT_EQ(extractor.flows_completed(), 1u);
  feed(bare_segment(t, 20768, true, false));
  EXPECT_EQ(extractor.flows_opened(), 770u);
  EXPECT_EQ(extractor.active_flows(), 769u);
  EXPECT_TRUE(extractor.flush().empty());
  EXPECT_EQ(extractor.active_flows(), 0u);
}

TEST(RecordStreamExtractor, LiveFlowStateStaysSmallAndEventsUnchanged) {
  // 1,000 synthetic sessions with their FIN segments stripped, so every
  // flow stays live (no idle timeout here). Each server handshake
  // flight spans several segments and goes through the parser's
  // buffer; once drained, that buffer must be freed rather than kept
  // for the flow's whole life. Online configuration: events are not
  // retained.
  monitor::WorkloadConfig workload;
  workload.sessions = 1000;
  workload.concurrency = 64;
  monitor::SyntheticFleetSource fleet(workload);
  RecordStreamExtractor::Config config;
  config.retain_events = false;

  RecordStreamExtractor reference(config);
  std::vector<StreamEvent> expected;
  const std::vector<net::Packet> session =
      test::strip_teardown(fleet.session_template());
  reference.feed_batch(session.data(), session.size(), expected);
  ASSERT_EQ(reference.active_flows(), 1u);
  const std::optional<std::string> sni = reference.sni_of(expected.front().flow);
  ASSERT_TRUE(sni.has_value());

  RecordStreamExtractor extractor(config);
  std::vector<StreamEvent> events;
  engine::PacketBatch batch;
  while (fleet.read_batch(batch, 256) != 0) {
    for (const net::Packet& packet : batch) {
      if (!test::is_stripped_fin(packet, 1)) {
        extractor.feed_batch(&packet, 1, events);
      }
    }
  }
  ASSERT_EQ(extractor.active_flows(), workload.sessions);
  EXPECT_LE(extractor.memory_bytes() / extractor.active_flows(), 1536u);

  // Every session yields the template's events, shifted in time only,
  // and its SNI (read through a borrowed handshake payload).
  std::map<net::FlowKey, std::vector<RecordEvent>> by_flow;
  for (const StreamEvent& event : events) {
    ASSERT_EQ(event.kind, StreamEvent::Kind::kRecord);
    by_flow[event.flow].push_back(event.event);
  }
  ASSERT_EQ(by_flow.size(), workload.sessions);
  for (const auto& [flow, got] : by_flow) {
    EXPECT_EQ(extractor.sni_of(flow), sni);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const RecordEvent& want = expected[i].event;
      EXPECT_EQ(got[i].direction, want.direction);
      EXPECT_EQ(got[i].content_type, want.content_type);
      EXPECT_EQ(got[i].record_length, want.record_length);
      EXPECT_EQ(got[i].stream_offset, want.stream_offset);
      EXPECT_EQ(got[i].after_gap, want.after_gap);
      EXPECT_EQ(got[i].timestamp - got[0].timestamp,
                want.timestamp - expected[0].event.timestamp);
    }
  }
  EXPECT_TRUE(extractor.flush().empty());
  EXPECT_TRUE(reference.flush().empty());
}

TEST(RecordStreamExtractor, ClosedFlowsRetireAtTeardown) {
  // The same fleet with its teardown intact: each flow retires on the
  // client's final ACK, so nothing is live at the end and no idle
  // timeout is needed. Retirement only moves the flow out; its events
  // are the stripped session's.
  monitor::WorkloadConfig workload;
  workload.sessions = 1000;
  workload.concurrency = 64;
  monitor::SyntheticFleetSource fleet(workload);
  RecordStreamExtractor::Config config;
  config.retain_events = false;

  RecordStreamExtractor extractor(config);
  std::vector<StreamEvent> events;
  engine::PacketBatch batch;
  while (fleet.read_batch(batch, 256) != 0) {
    extractor.feed_batch(batch.begin(), batch.size(), events);
  }
  EXPECT_EQ(extractor.active_flows(), 0u);
  EXPECT_EQ(extractor.flows_opened(), workload.sessions);
  EXPECT_EQ(extractor.flows_closed(), workload.sessions);
  EXPECT_EQ(extractor.flows_completed(), workload.sessions);
  EXPECT_LE(extractor.peak_active_flows(), 2 * workload.concurrency);

  RecordStreamExtractor stripped(config);
  std::vector<StreamEvent> stripped_events;
  const std::vector<net::Packet> session =
      test::strip_teardown(fleet.session_template());
  stripped.feed_batch(session.data(), session.size(), stripped_events);
  EXPECT_EQ(stripped.flows_closed(), 0u);
  EXPECT_EQ(events.size(), workload.sessions * stripped_events.size());
  EXPECT_TRUE(extractor.flush().empty());
}

TEST_F(RecordStreamTest, ReusedFourTupleReportsEachConnectionsSni) {
  // Two FIN-closed connections on one 4-tuple with different SNIs, fed
  // in one batch. Each retires at its close, so finish() returns two
  // streams for the one flow key, each with its own connection's SNI
  // and records: the second never inherits the first's.
  TlsSessionConfig other = firefox_config();
  other.sni = "assets.nflxext.com";
  std::vector<net::Packet> packets = build_connection({400}, {900});
  for (net::Packet& packet :
       build_connection({400}, {900}, 51000, /*close=*/true, other)) {
    packet.timestamp += Duration::seconds(5);
    packets.push_back(std::move(packet));
  }

  RecordStreamExtractor extractor;
  std::vector<StreamEvent> events;
  extractor.feed_batch(packets.data(), packets.size(), events);
  EXPECT_EQ(extractor.flows_closed(), 2u);
  const std::vector<FlowRecordStream> streams = extractor.finish();
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].flow, streams[1].flow);
  EXPECT_EQ(streams[0].sni, firefox_config().sni);
  EXPECT_EQ(streams[1].sni, other.sni);
  ASSERT_FALSE(streams[0].events.empty());
  ASSERT_FALSE(streams[1].events.empty());
  for (const RecordEvent& event : streams[0].events) {
    EXPECT_LT(event.timestamp, SimTime::from_seconds(5));
  }
  for (const RecordEvent& event : streams[1].events) {
    EXPECT_GE(event.timestamp, SimTime::from_seconds(5));
  }
  EXPECT_EQ(streams[0].events.size() + streams[1].events.size(),
            events.size());
}

TEST_F(RecordStreamTest, ReusedFourTupleAfterLostFinalAckOpensANewFlow) {
  // Two connections on one 4-tuple, 5 s apart. The first one's final
  // ACK is lost, so it is still held (both directions finished) when
  // the second one's SYN arrives: that SYN retires it and opens a new
  // flow, whose handshake then yields its own SNI.
  std::vector<net::Packet> first = build_connection({400}, {900});
  ASSERT_EQ(net::decode_packet(first.back())->tcp().flags_string(), "ACK");
  first.pop_back();  // the lost final ACK
  std::vector<net::Packet> second = build_connection({400}, {900});
  for (net::Packet& packet : second) packet.timestamp += Duration::seconds(5);

  RecordStreamExtractor extractor;
  std::vector<StreamEvent> out;
  extractor.feed_batch(first.data(), first.size(), out);
  EXPECT_EQ(extractor.active_flows(), 1u);
  EXPECT_EQ(extractor.flows_closed(), 0u);
  extractor.feed_batch(second.data(), 1, out);  // the new SYN
  EXPECT_EQ(extractor.flows_opened(), 2u);
  EXPECT_EQ(extractor.flows_closed(), 1u);
  EXPECT_EQ(extractor.active_flows(), 1u);
  extractor.feed_batch(second.data() + 1, second.size() - 1, out);
  EXPECT_EQ(extractor.flows_opened(), 2u);
  EXPECT_EQ(extractor.flows_closed(), 2u);  // the second closes with its ACK
  EXPECT_EQ(extractor.active_flows(), 0u);

  const std::vector<FlowRecordStream> streams = extractor.finish();
  EXPECT_EQ(extractor.flows_completed(), 2u);
  ASSERT_EQ(streams.size(), 2u);
  for (const FlowRecordStream& stream : streams) {
    EXPECT_EQ(stream.sni, firefox_config().sni);
    EXPECT_EQ(stream.count(FlowDirection::kClientToServer,
                           ContentType::kApplicationData),
              1u);
  }
  EXPECT_EQ(streams[1].events.front().timestamp -
                streams[0].events.front().timestamp,
            Duration::seconds(5));
}

}  // namespace
}  // namespace wm::tls
