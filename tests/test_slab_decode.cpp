// Slab-decoder differential suite (PR 10).
//
// The hot path decodes packets column-wise (decode_slab) while feed()
// keeps the full scalar parser chain (decode_packet) as the oracle.
// These tests pin the three-way contract — decode_packet ==
// decode_lens == decode_slab — on synthetic traffic, on systematically
// malformed/truncated frames, and on the fuzz corpus seeds; then pin
// the record-stream extractor: its slab paths, over owned packets and
// over stable views, must reproduce the per-packet feed() oracle
// event for event (counters and stable metrics too) across capture
// impairments. Finally, the arena/pool-backed flow state must preserve
// idle-sweep behaviour and hand out clean recycled state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/net/packet_builder.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/tls/session.hpp"
#include "wm/util/rng.hpp"

namespace wm {
namespace {

using net::LensStatus;
using net::PacketLens;
using story::Choice;
using util::Duration;
using util::SimTime;

// --- decoder three-way equivalence ------------------------------------

std::uint8_t flags_byte(const net::TcpHeader& tcp) {
  return static_cast<std::uint8_t>(
      (tcp.fin ? 0x01 : 0) | (tcp.syn ? 0x02 : 0) | (tcp.rst ? 0x04 : 0) |
      (tcp.psh ? 0x08 : 0) | (tcp.ack ? 0x10 : 0) | (tcp.urg ? 0x20 : 0));
}

/// Pin one packet's lens against the scalar parser chain.
void expect_lens_matches_oracle(const net::Packet& packet,
                                const PacketLens& lens,
                                const std::string& context) {
  const auto decoded = net::decode_packet(packet);
  if (!decoded.has_value()) {
    EXPECT_EQ(lens.status, LensStatus::kUndecodable) << context;
    return;
  }
  if (!decoded->has_tcp()) {
    EXPECT_EQ(lens.status, LensStatus::kNonTcp) << context;
    return;
  }
  ASSERT_EQ(lens.status, LensStatus::kTcp) << context;
  const net::TcpHeader& tcp = decoded->tcp();
  EXPECT_EQ(lens.source_port, tcp.source_port) << context;
  EXPECT_EQ(lens.destination_port, tcp.destination_port) << context;
  EXPECT_EQ(lens.sequence, tcp.sequence) << context;
  EXPECT_EQ(lens.tcp_flags, flags_byte(tcp)) << context;
  EXPECT_EQ(lens.truncated_bytes, decoded->transport_payload_missing) << context;
  ASSERT_LE(lens.payload_offset + lens.payload_length, packet.data.size())
      << context;
  const util::BytesView payload =
      util::BytesView(packet.data).subspan(lens.payload_offset,
                                           lens.payload_length);
  ASSERT_EQ(payload.size(), decoded->transport_payload.size()) << context;
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         decoded->transport_payload.begin()))
      << context;
  // Addresses: the lens stores wire offsets; the source address starts
  // at address_offset, the destination follows (4 bytes v4, 16 v6).
  if (lens.is_v6) {
    ASSERT_TRUE(decoded->has_ipv6()) << context;
    EXPECT_EQ(std::memcmp(packet.data.data() + lens.address_offset,
                          decoded->ipv6().source.octets().data(), 16),
              0)
        << context;
    EXPECT_EQ(std::memcmp(packet.data.data() + lens.address_offset + 16,
                          decoded->ipv6().destination.octets().data(), 16),
              0)
        << context;
  } else {
    ASSERT_TRUE(decoded->has_ipv4()) << context;
    const std::uint8_t* a = packet.data.data() + lens.address_offset;
    const auto wire = [](const std::uint8_t* p) {
      return (static_cast<std::uint32_t>(p[0]) << 24) |
             (static_cast<std::uint32_t>(p[1]) << 16) |
             (static_cast<std::uint32_t>(p[2]) << 8) |
             static_cast<std::uint32_t>(p[3]);
    };
    EXPECT_EQ(wire(a), decoded->ipv4().source.value()) << context;
    EXPECT_EQ(wire(a + 4), decoded->ipv4().destination.value()) << context;
  }
}

/// decode_lens and decode_slab must agree field-for-field.
void expect_lens_equals_slab(const PacketLens& lens, const PacketLens& slab,
                             const std::string& context) {
  EXPECT_EQ(lens.status, slab.status) << context;
  if (lens.status != LensStatus::kTcp) return;
  EXPECT_EQ(lens.is_v6, slab.is_v6) << context;
  EXPECT_EQ(lens.tcp_flags, slab.tcp_flags) << context;
  EXPECT_EQ(lens.source_port, slab.source_port) << context;
  EXPECT_EQ(lens.destination_port, slab.destination_port) << context;
  EXPECT_EQ(lens.sequence, slab.sequence) << context;
  EXPECT_EQ(lens.address_offset, slab.address_offset) << context;
  EXPECT_EQ(lens.payload_offset, slab.payload_offset) << context;
  EXPECT_EQ(lens.payload_length, slab.payload_length) << context;
  EXPECT_EQ(lens.truncated_bytes, slab.truncated_bytes) << context;
}

void expect_three_way(const std::vector<net::Packet>& packets,
                      const std::string& label) {
  net::DecodedSlab slab;
  for (std::size_t offset = 0; offset < packets.size();
       offset += net::DecodedSlab::kCapacity) {
    const std::size_t count = std::min<std::size_t>(
        net::DecodedSlab::kCapacity, packets.size() - offset);
    net::decode_slab(packets.data() + offset, count, slab);
    ASSERT_EQ(slab.count, count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::string context =
          label + " packet " + std::to_string(offset + i);
      PacketLens lens;
      net::decode_lens(packets[offset + i], lens);
      expect_lens_matches_oracle(packets[offset + i], lens, context);
      expect_lens_equals_slab(lens, slab.lens[i], context);
    }
  }
}

std::vector<Choice> alternating(std::size_t n) {
  std::vector<Choice> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i % 2 == 0 ? Choice::kNonDefault : Choice::kDefault);
  }
  return out;
}

std::vector<net::Packet> session_capture(std::uint64_t seed) {
  const story::StoryGraph graph = story::make_bandersnatch();
  sim::SessionConfig config;
  config.seed = seed;
  return sim::simulate_session(graph, alternating(13), config).capture.packets;
}

TEST(SlabDecode, MatchesOracleOnSimulatedTraffic) {
  expect_three_way(session_capture(8801), "simulated");
}

TEST(SlabDecode, MatchesOracleOnTruncatedCaptures) {
  const std::vector<net::Packet> base = session_capture(8802);
  for (const std::size_t snaplen : {54u, 60u, 96u, 200u, 1000u}) {
    expect_three_way(sim::truncate_snaplen(base, snaplen),
                     "snaplen" + std::to_string(snaplen));
  }
}

TEST(SlabDecode, MatchesOracleOnSystematicallyMangledFrames) {
  const std::vector<net::Packet> base = session_capture(8803);
  // Take a handful of representative frames and mangle them every way
  // the parser branches on: every truncation point, every corrupted
  // leading byte, and both with original_length kept (so the slab's
  // allow-truncated path engages) and shrunk.
  std::vector<net::Packet> mangled;
  for (std::size_t pick = 0; pick < base.size();
       pick += std::max<std::size_t>(1, base.size() / 9)) {
    const net::Packet& source = base[pick];
    for (std::size_t cut = 0; cut <= std::min<std::size_t>(source.data.size(), 96);
         ++cut) {
      net::Packet shorter = source;
      shorter.data.resize(cut);
      mangled.push_back(shorter);           // original_length says truncated
      shorter.original_length = cut;        // or the frame was just short
      mangled.push_back(std::move(shorter));
    }
    for (std::size_t byte = 0; byte < std::min<std::size_t>(source.data.size(), 60);
         ++byte) {
      net::Packet corrupt = source;
      corrupt.data[byte] ^= 0xff;
      mangled.push_back(std::move(corrupt));
    }
  }
  expect_three_way(mangled, "mangled");
}

TEST(SlabDecode, MatchesOracleOnRandomGarbage) {
  util::Rng rng(8804);
  std::vector<net::Packet> garbage;
  for (int i = 0; i < 512; ++i) {
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform_int(0, 160));
    net::Packet packet;
    packet.timestamp = SimTime::from_seconds(i);
    packet.data.resize(size);
    for (std::uint8_t& byte : packet.data) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    packet.original_length = size + (i % 3 == 0 ? 40 : 0);
    garbage.push_back(std::move(packet));
  }
  expect_three_way(garbage, "garbage");
}

TEST(SlabDecode, MatchesOracleOnFuzzCorpusSeeds) {
  // Every corpus seed byte-blob, fed to the decoders as a raw frame:
  // adversarial inputs collected by the fuzz harnesses (malformed
  // headers, truncations, mid-structure splits).
  std::vector<net::Packet> frames;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(WM_FUZZ_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    util::Bytes bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    net::Packet packet;
    packet.original_length = bytes.size();
    packet.data = std::move(bytes);
    frames.push_back(std::move(packet));
  }
  ASSERT_GT(frames.size(), 10u);
  expect_three_way(frames, "corpus");
}

TEST(SlabDecode, SlabCapsAtCapacity) {
  const std::vector<net::Packet> base = session_capture(8805);
  ASSERT_GT(base.size(), net::DecodedSlab::kCapacity);
  net::DecodedSlab slab;
  net::decode_slab(base.data(), base.size(), slab);
  EXPECT_EQ(slab.count, net::DecodedSlab::kCapacity);
}

// --- extractor: slab paths vs the per-packet scalar oracle -----------

std::vector<net::Packet> merged_capture(std::size_t viewers,
                                        std::uint64_t seed) {
  const story::StoryGraph graph = story::make_bandersnatch();
  std::vector<net::Packet> merged;
  for (std::size_t v = 0; v < viewers; ++v) {
    sim::SessionConfig config;
    config.seed = seed + v;
    config.packetize.client_ip =
        net::Ipv4Address(10, 0, 9, static_cast<std::uint8_t>(10 + v));
    config.packetize.cdn_client_port = static_cast<std::uint16_t>(55000 + 2 * v);
    config.packetize.api_client_port = static_cast<std::uint16_t>(55001 + 2 * v);
    auto session = sim::simulate_session(graph, alternating(13), config);
    const Duration stagger = Duration::millis(1100) * static_cast<int>(v);
    for (net::Packet& packet : session.capture.packets) {
      packet.timestamp += stagger;
      merged.push_back(std::move(packet));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return merged;
}

/// Everything one extractor run can be compared on: its deliveries
/// (feeds, then the end-of-capture flush), its counters and its stable
/// metrics export.
struct ExtractorRun {
  std::vector<tls::StreamEvent> events;
  std::vector<std::uint64_t> counters;
  std::string stable_json;
};

enum class FeedPath { kScalar, kSlabPackets, kSlabViews };

ExtractorRun run_extractor(const std::vector<net::Packet>& packets,
                           FeedPath path) {
  obs::Registry registry;
  tls::RecordStreamExtractor::Config config;
  config.retain_events = false;
  config.idle_timeout = Duration::seconds(30);
  config.registry = &registry;
  tls::RecordStreamExtractor extractor(config);

  ExtractorRun run;
  // Slab paths read 256 packets at a time, as the engine does.
  constexpr std::size_t kBatch = 256;
  std::vector<net::PacketView> views;
  for (std::size_t begin = 0; begin < packets.size(); begin += kBatch) {
    const std::size_t count = std::min(kBatch, packets.size() - begin);
    switch (path) {
      case FeedPath::kScalar:
        for (std::size_t i = begin; i < begin + count; ++i) {
          for (tls::StreamEvent& event : extractor.feed(packets[i])) {
            run.events.push_back(std::move(event));
          }
        }
        break;
      case FeedPath::kSlabPackets:
        extractor.feed_batch(packets.data() + begin, count, run.events);
        break;
      case FeedPath::kSlabViews:
        views.clear();
        for (std::size_t i = begin; i < begin + count; ++i) {
          views.emplace_back(packets[i]);
        }
        extractor.feed_batch(views.data(), count, run.events,
                             /*stable_payload=*/true);
        break;
    }
  }
  for (tls::StreamEvent& event : extractor.flush()) {
    run.events.push_back(std::move(event));
  }
  run.counters = {extractor.packets_seen(),      extractor.packets_undecodable(),
                  extractor.active_flows(),      extractor.peak_active_flows(),
                  extractor.flows_opened(),      extractor.flows_evicted(),
                  extractor.flows_completed(),   extractor.flows_closed(),
                  extractor.gaps(),              extractor.gap_bytes(),
                  extractor.tls_bytes_skipped(), extractor.tls_resyncs()};
  run.stable_json = registry.snapshot().stable_json();
  return run;
}

void expect_events_identical(const std::vector<tls::StreamEvent>& got,
                             const std::vector<tls::StreamEvent>& want,
                             const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = context + " event " + std::to_string(i);
    ASSERT_EQ(got[i].flow, want[i].flow) << at;
    ASSERT_EQ(got[i].kind, want[i].kind) << at;
    if (got[i].kind == tls::StreamEvent::Kind::kGap) {
      EXPECT_EQ(got[i].gap.timestamp, want[i].gap.timestamp) << at;
      EXPECT_EQ(got[i].gap.direction, want[i].gap.direction) << at;
      EXPECT_EQ(got[i].gap.stream_offset, want[i].gap.stream_offset) << at;
      EXPECT_EQ(got[i].gap.length, want[i].gap.length) << at;
    } else {
      EXPECT_EQ(got[i].event.timestamp, want[i].event.timestamp) << at;
      EXPECT_EQ(got[i].event.direction, want[i].event.direction) << at;
      EXPECT_EQ(got[i].event.content_type, want[i].event.content_type) << at;
      EXPECT_EQ(got[i].event.record_length, want[i].event.record_length) << at;
      EXPECT_EQ(got[i].event.stream_offset, want[i].event.stream_offset) << at;
      EXPECT_EQ(got[i].event.after_gap, want[i].event.after_gap) << at;
    }
  }
}

TEST(SlabDecode, ExtractorSlabPathsMatchScalarAcrossImpairments) {
  const std::vector<net::Packet> base = merged_capture(2, 8902);
  struct Scenario {
    std::string name;
    std::vector<net::Packet> packets;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"pristine", base});
  {
    util::Rng rng(8903);
    scenarios.push_back({"drop2pct", sim::drop_packets(base, 0.02, rng)});
  }
  scenarios.push_back({"snaplen200", sim::truncate_snaplen(base, 200)});
  {
    util::Rng rng(8904);
    scenarios.push_back({"jitter2ms", sim::jitter_order(base, 0.002, rng)});
  }
  {
    util::Rng rng(8905);
    scenarios.push_back({"loss1pct", sim::drop_segments(base, 0.01, rng)});
  }

  for (const Scenario& scenario : scenarios) {
    // The per-packet scalar chain is the oracle: the slab runs share the
    // extractor config (same eviction cadence) and differ ONLY in the
    // decoder and in how payloads are held, so any divergence indicts
    // the slab path.
    const ExtractorRun scalar = run_extractor(scenario.packets, FeedPath::kScalar);
    ASSERT_FALSE(scalar.events.empty()) << scenario.name;
    ASSERT_FALSE(scalar.stable_json.empty()) << scenario.name;
    for (const FeedPath path : {FeedPath::kSlabPackets, FeedPath::kSlabViews}) {
      const std::string context =
          scenario.name +
          (path == FeedPath::kSlabPackets ? " slab packets" : " slab views");
      const ExtractorRun slab = run_extractor(scenario.packets, path);
      expect_events_identical(slab.events, scalar.events, context);
      EXPECT_EQ(slab.counters, scalar.counters) << context;
      EXPECT_EQ(slab.stable_json, scalar.stable_json) << context;
    }
  }
}

// --- arena-backed flow state: eviction and recycling ------------------

tls::TlsSessionConfig tls_config() {
  tls::TlsSessionConfig config;
  config.suite = tls::CipherSuite::kTlsEcdheRsaAes256GcmSha384;
  config.sni = "occ-0-100-100.1.nflxvideo.net";
  return config;
}

/// One TLS-over-TCP connection with `uploads` client app records,
/// starting at `start` from client port `port`.
std::vector<net::Packet> tls_connection(std::uint16_t port, double start,
                                        std::vector<std::size_t> uploads) {
  tls::TlsSession session(tls_config(), util::Rng(port));
  net::TcpEndpointConfig client;
  client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
  client.ip = net::Ipv4Address(10, 0, 0, 2);
  client.port = port;
  net::TcpEndpointConfig server = client;
  server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
  server.ip = net::Ipv4Address(198, 45, 48, 10);
  server.port = 443;
  net::TcpConnectionBuilder conn(client, server);
  SimTime t = SimTime::from_seconds(start);
  conn.handshake(t, Duration::millis(20));
  t += Duration::millis(30);
  conn.send(net::FlowDirection::kClientToServer, t,
            serialize_records(session.client_hello_flight()));
  t += Duration::millis(20);
  conn.send(net::FlowDirection::kServerToClient, t,
            serialize_records(session.server_hello_flight()));
  t += Duration::millis(20);
  for (const std::size_t size : uploads) {
    conn.send(net::FlowDirection::kClientToServer, t,
              serialize_records(session.seal_application_data(size)));
    t += Duration::millis(15);
  }
  return conn.take_packets();
}

TEST(SlabDecode, IdleSweepEvictsOnlyIdleFlowsFromArenaState) {
  tls::RecordStreamExtractor::Config config;
  config.idle_timeout = Duration::seconds(5);
  tls::RecordStreamExtractor extractor(config);

  // Flow A finishes by ~0.2s; flow B starts at 4.0s and will receive
  // more data after the sweep, so the sweep must leave it intact.
  for (const net::Packet& packet : tls_connection(51001, 0.0, {2188})) {
    extractor.feed(packet);
  }

  tls::TlsSession session(tls_config(), util::Rng(51002));
  net::TcpEndpointConfig client;
  client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
  client.ip = net::Ipv4Address(10, 0, 0, 2);
  client.port = 51002;
  net::TcpEndpointConfig server = client;
  server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
  server.ip = net::Ipv4Address(198, 45, 48, 10);
  server.port = 443;
  net::TcpConnectionBuilder conn(client, server);
  std::vector<tls::StreamEvent> survivor_events;
  const auto feed_pending = [&] {
    for (const net::Packet& packet : conn.take_packets()) {
      for (tls::StreamEvent& event : extractor.feed(packet)) {
        survivor_events.push_back(std::move(event));
      }
    }
  };
  conn.handshake(SimTime::from_seconds(4.0), Duration::millis(20));
  conn.send(net::FlowDirection::kClientToServer, SimTime::from_seconds(4.10),
            serialize_records(session.client_hello_flight()));
  conn.send(net::FlowDirection::kServerToClient, SimTime::from_seconds(4.15),
            serialize_records(session.server_hello_flight()));
  conn.send(net::FlowDirection::kClientToServer, SimTime::from_seconds(4.20),
            serialize_records(session.seal_application_data(2188)));
  feed_pending();
  ASSERT_EQ(extractor.active_flows(), 2u);

  // Timer-driven sweep at t=9: flow A (idle ~8.8s) leaves, flow B
  // (idle 4.8s, under the 5s timeout) stays.
  EXPECT_EQ(extractor.sweep_idle(SimTime::from_seconds(9.0)), 1u);
  EXPECT_EQ(extractor.flows_evicted(), 1u);
  EXPECT_EQ(extractor.active_flows(), 1u);

  // The survivor's parser state was untouched: a record sent after the
  // sweep still parses in sequence.
  conn.send(net::FlowDirection::kClientToServer, SimTime::from_seconds(9.5),
            serialize_records(session.seal_application_data(2970)));
  feed_pending();
  // The survivor's parser state was untouched by the sweep: its client
  // application records still parse out.
  std::size_t client_app = 0;
  for (const tls::StreamEvent& event : survivor_events) {
    if (event.kind == tls::StreamEvent::Kind::kRecord &&
        event.event.is_client_application_data()) {
      ++client_app;
    }
  }
  EXPECT_EQ(client_app, 2u);
  EXPECT_EQ(extractor.peak_active_flows(), 2u);
  // Arena stats are live and accounted (flow nodes allocated/released).
  EXPECT_GT(extractor.arena().stats().allocations, 0u);
}

TEST(SlabDecode, RecycledFlowStateStartsClean) {
  tls::RecordStreamExtractor::Config config;
  config.idle_timeout = Duration::seconds(5);
  tls::RecordStreamExtractor extractor(config);

  // Flow 1 feeds TLS garbage: parser desyncs, skip counters grow.
  {
    net::TcpEndpointConfig client;
    client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
    client.ip = net::Ipv4Address(10, 0, 0, 2);
    client.port = 52001;
    net::TcpEndpointConfig server = client;
    server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
    server.ip = net::Ipv4Address(198, 45, 48, 10);
    server.port = 443;
    net::TcpConnectionBuilder conn(client, server);
    conn.handshake(SimTime::from_seconds(0), Duration::millis(20));
    conn.send(net::FlowDirection::kClientToServer, SimTime::from_seconds(0.1),
              util::Bytes(4096, 0x00));  // no plausible TLS header anywhere
    for (const net::Packet& packet : conn.take_packets()) {
      extractor.feed(packet);
    }
  }
  EXPECT_GT(extractor.tls_bytes_skipped(), 0u);
  EXPECT_EQ(extractor.sweep_idle(SimTime::from_seconds(10.0)), 1u);

  // Flow 2 reuses the pooled per-flow state; nothing of flow 1's
  // desync may bleed into it.
  std::vector<tls::StreamEvent> events;
  for (const net::Packet& packet : tls_connection(52002, 11.0, {2188})) {
    for (tls::StreamEvent& event : extractor.feed(packet)) {
      events.push_back(std::move(event));
    }
  }
  std::size_t client_app = 0;
  for (const tls::StreamEvent& event : events) {
    ASSERT_EQ(event.kind, tls::StreamEvent::Kind::kRecord);
    if (event.event.is_client_application_data()) {
      ++client_app;
      EXPECT_FALSE(event.event.after_gap);
    }
  }
  EXPECT_EQ(client_app, 1u);
  const auto streams = extractor.finish();
  for (const tls::FlowRecordStream& stream : streams) {
    if (stream.flow.client.port != 52002) continue;
    EXPECT_EQ(stream.gaps, 0u);
    EXPECT_EQ(stream.tls_resyncs, 0u);
    EXPECT_EQ(stream.tls_bytes_skipped, 0u);
    EXPECT_FALSE(stream.client_desynchronized);
  }
}

TEST(SlabDecode, FlushRetiresFlowsInFlowKeyOrder) {
  // Three live flows inserted in descending client-port order; flush()
  // must still deliver their events grouped in ascending FlowKey order
  // — the retirement order the differential suites rely on, preserved
  // across the arena/index rebuild.
  tls::RecordStreamExtractor extractor;
  for (const std::uint16_t port : {53005, 53003, 53001}) {
    std::vector<net::Packet> packets =
        tls_connection(port, 0.0 + (53005 - port), {2188, 2970});
    // Punch a reassembly hole: drop the second-to-last client payload
    // segment, so the final segment's bytes stay buffered behind the
    // hole until flush() declares the gap — every flow still owes
    // events at flush time.
    std::vector<std::size_t> client_payload;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const auto decoded = net::decode_packet(packets[i]);
      if (decoded.has_value() && decoded->has_tcp() &&
          decoded->tcp().destination_port == 443 &&
          !decoded->transport_payload.empty()) {
        client_payload.push_back(i);
      }
    }
    ASSERT_GE(client_payload.size(), 2u);
    packets.erase(packets.begin() +
                  static_cast<std::ptrdiff_t>(
                      client_payload[client_payload.size() - 2]));
    for (const net::Packet& packet : packets) extractor.feed(packet);
  }
  ASSERT_EQ(extractor.active_flows(), 3u);
  const std::vector<tls::StreamEvent> events = extractor.flush();
  ASSERT_FALSE(events.empty());
  std::vector<std::uint16_t> retirement_order;
  for (const tls::StreamEvent& event : events) {
    const std::uint16_t port = event.flow.client.port;
    if (retirement_order.empty() || retirement_order.back() != port) {
      retirement_order.push_back(port);
    }
  }
  EXPECT_EQ(retirement_order,
            (std::vector<std::uint16_t>{53001, 53003, 53005}));
}

}  // namespace
}  // namespace wm
