// The memory-mapped capture fast path against the buffered istream
// path: both must yield byte-identical packet sequences on well-formed,
// empty, snaplen-trimmed and large files, agree on where a truncated
// file fails, and drive the engine to identical results and identical
// stable counter exports for every shard count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "wm/core/engine/engine.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/mmap_file.hpp"

namespace wm::net {
namespace {

namespace fs = std::filesystem;

Packet make_packet(double seconds, std::size_t size, std::uint8_t fill) {
  return Packet(util::SimTime::from_seconds(seconds), util::Bytes(size, fill));
}

std::vector<Packet> synthetic_packets(std::size_t count, std::size_t size) {
  std::vector<Packet> packets;
  for (std::size_t i = 0; i < count; ++i) {
    packets.push_back(make_packet(0.001 * static_cast<double>(i) + 1.0,
                                  size + (i % 7),
                                  static_cast<std::uint8_t>(i)));
  }
  return packets;
}

void expect_packets_identical(const std::vector<Packet>& a,
                              const std::vector<Packet>& b,
                              const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << context << " packet " << i;
    EXPECT_EQ(a[i].data, b[i].data) << context << " packet " << i;
    EXPECT_EQ(a[i].original_length, b[i].original_length)
        << context << " packet " << i;
  }
}

/// Read `path` through the forced-istream constructor (the oracle).
template <typename Reader>
std::vector<Packet> read_streamed(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  Reader reader(in);
  return reader.read_all();
}

TEST(MmapFile, MapsRegularFilesAndHandlesEmptyOnes) {
  const auto dir = fs::temp_directory_path();
  const auto path = dir / "wm_mmap_probe.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "0123456789";
  }
  auto map = util::MappedFile::open(path);
  ASSERT_TRUE(map.valid());
  ASSERT_EQ(map.size(), 10u);
  EXPECT_EQ(map.view()[0], '0');
  EXPECT_EQ(map.view()[9], '9');

  // A zero-byte file cannot be mmap'd but is a valid empty mapping.
  const auto empty = dir / "wm_mmap_empty.bin";
  { std::ofstream out(empty, std::ios::binary); }
  auto empty_map = util::MappedFile::open(empty);
  EXPECT_TRUE(empty_map.valid());
  EXPECT_EQ(empty_map.size(), 0u);

  // Missing files report invalid instead of throwing.
  EXPECT_FALSE(util::MappedFile::open(dir / "wm_mmap_missing.bin").valid());

  fs::remove(path);
  fs::remove(empty);
}

TEST(MmapCapture, PcapReaderUsesTheMappingAndMatchesIstream) {
  const auto path = fs::temp_directory_path() / "wm_mmap_basic.pcap";
  const auto packets = synthetic_packets(50, 120);
  write_pcap(path, packets);

  PcapReader mapped(path);
  EXPECT_TRUE(mapped.memory_mapped());
  const auto from_map = mapped.read_all();
  expect_packets_identical(from_map, packets, "mmap vs written");
  expect_packets_identical(from_map, read_streamed<PcapReader>(path),
                           "mmap vs istream");
  fs::remove(path);
}

TEST(MmapCapture, PcapngReaderUsesTheMappingAndMatchesIstream) {
  const auto path = fs::temp_directory_path() / "wm_mmap_basic.pcapng";
  const auto packets = synthetic_packets(50, 120);
  write_pcapng(path, packets);

  PcapngReader mapped(path);
  EXPECT_TRUE(mapped.memory_mapped());
  expect_packets_identical(mapped.read_all(), read_streamed<PcapngReader>(path),
                           "mmap vs istream");
  fs::remove(path);
}

TEST(MmapCapture, EmptyCapturesYieldNoPackets) {
  const auto dir = fs::temp_directory_path();
  const auto pcap_path = dir / "wm_mmap_headeronly.pcap";
  { PcapWriter writer(pcap_path); }  // file header, zero records
  PcapReader pcap_reader(pcap_path);
  EXPECT_TRUE(pcap_reader.memory_mapped());
  EXPECT_FALSE(pcap_reader.next().has_value());

  const auto pcapng_path = dir / "wm_mmap_headeronly.pcapng";
  { PcapngWriter writer(pcapng_path); }  // SHB + IDB, zero packets
  PcapngReader pcapng_reader(pcapng_path);
  EXPECT_TRUE(pcapng_reader.memory_mapped());
  EXPECT_FALSE(pcapng_reader.next().has_value());

  // A zero-byte file maps as an empty view; the pcap header check must
  // still fire on it rather than read past the end.
  const auto zero = dir / "wm_mmap_zero.pcap";
  { std::ofstream out(zero, std::ios::binary); }
  EXPECT_THROW(PcapReader{zero}, std::runtime_error);

  fs::remove(pcap_path);
  fs::remove(pcapng_path);
  fs::remove(zero);
}

TEST(MmapCapture, TruncatedFinalRecordDeliversPrefixThenThrows) {
  const auto dir = fs::temp_directory_path();
  const auto whole = dir / "wm_mmap_whole.pcap";
  const auto packets = synthetic_packets(10, 200);
  write_pcap(whole, packets);

  for (const std::size_t chop : {std::size_t{7}, std::size_t{205}}) {
    // 7 bytes: mid-payload. 205 bytes: into the final record header.
    const auto truncated = dir / "wm_mmap_truncated.pcap";
    {
      std::ifstream in(whole, std::ios::binary);
      std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      bytes.resize(bytes.size() - chop);
      std::ofstream out(truncated, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    PcapReader reader(truncated);
    EXPECT_TRUE(reader.memory_mapped());
    std::size_t delivered = 0;
    EXPECT_THROW(
        {
          while (reader.next()) ++delivered;
        },
        std::runtime_error)
        << "chop=" << chop;
    EXPECT_EQ(delivered, packets.size() - 1) << "chop=" << chop;
    fs::remove(truncated);
  }
  fs::remove(whole);
}

TEST(MmapCapture, SnaplenTrimmedRecordsKeepOriginalLength) {
  const auto path = fs::temp_directory_path() / "wm_mmap_snaplen.pcap";
  std::vector<Packet> packets;
  for (int i = 0; i < 20; ++i) packets.push_back(make_packet(1.0 + i, 300, 0xcd));
  {
    PcapWriter writer(path, /*nanosecond_resolution=*/true, /*snaplen=*/96);
    for (const Packet& packet : packets) writer.write(packet);
  }
  PcapReader mapped(path);
  EXPECT_TRUE(mapped.memory_mapped());
  const auto loaded = mapped.read_all();
  ASSERT_EQ(loaded.size(), packets.size());
  for (const Packet& packet : loaded) {
    EXPECT_EQ(packet.data.size(), 96u);
    EXPECT_EQ(packet.original_length, 300u);
  }
  expect_packets_identical(loaded, read_streamed<PcapReader>(path),
                           "snaplen mmap vs istream");
  fs::remove(path);
}

TEST(MmapCapture, FilesLargerThanOneSlabRoundTripBothFormats) {
  // Well past a 64 KiB slab / any staging buffer size, so
  // every internal buffer must have been recycled many times over.
  const auto dir = fs::temp_directory_path();
  const auto packets = synthetic_packets(400, 1400);  // ~560 KiB payload

  const auto pcap_path = dir / "wm_mmap_large.pcap";
  write_pcap(pcap_path, packets);
  ASSERT_GT(fs::file_size(pcap_path), 5u * 64 * 1024);
  PcapReader pcap_mapped(pcap_path);
  expect_packets_identical(pcap_mapped.read_all(),
                           read_streamed<PcapReader>(pcap_path),
                           "large pcap mmap vs istream");

  const auto pcapng_path = dir / "wm_mmap_large.pcapng";
  write_pcapng(pcapng_path, packets);
  PcapngReader pcapng_mapped(pcapng_path);
  expect_packets_identical(pcapng_mapped.read_all(),
                           read_streamed<PcapngReader>(pcapng_path),
                           "large pcapng mmap vs istream");

  fs::remove(pcap_path);
  fs::remove(pcapng_path);
}

TEST(MmapCapture, NextViewBorrowsStableBytesUntilTheNextRead) {
  const auto path = fs::temp_directory_path() / "wm_mmap_views.pcap";
  const auto packets = synthetic_packets(5, 64);
  write_pcap(path, packets);
  PcapReader reader(path);
  ASSERT_TRUE(reader.memory_mapped());
  std::size_t index = 0;
  while (const auto view = reader.next_view()) {
    ASSERT_LT(index, packets.size());
    EXPECT_EQ(view->timestamp, packets[index].timestamp);
    ASSERT_EQ(view->data.size(), packets[index].data.size());
    EXPECT_TRUE(std::equal(view->data.begin(), view->data.end(),
                           packets[index].data.begin()));
    EXPECT_EQ(view->original_length, packets[index].data.size());
    // assign_to must reuse the target's capacity.
    Packet target;
    target.data.reserve(256);
    const auto* buffer = target.data.data();
    view->assign_to(target);
    EXPECT_EQ(target.data.data(), buffer);
    ++index;
  }
  EXPECT_EQ(index, packets.size());
  fs::remove(path);
}

}  // namespace
}  // namespace wm::net

namespace wm::core {
namespace {

namespace fs = std::filesystem;
using story::Choice;

std::vector<Choice> alternating(std::size_t n, bool start_non_default) {
  std::vector<Choice> out;
  for (std::size_t i = 0; i < n; ++i) {
    const bool non_default = (i % 2 == 0) == start_non_default;
    out.push_back(non_default ? Choice::kNonDefault : Choice::kDefault);
  }
  return out;
}

AttackPipeline calibrated_pipeline(const story::StoryGraph& graph) {
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sim::SessionConfig config;
    config.seed = 8200 + s;
    auto session = sim::simulate_session(graph, alternating(13, true), config);
    calibration.push_back(CalibrationSession{std::move(session.capture.packets),
                                             std::move(session.truth)});
  }
  AttackPipeline pipeline("interval");
  pipeline.calibrate(calibration);
  return pipeline;
}

void expect_sessions_identical(const InferredSession& a,
                               const InferredSession& b,
                               const std::string& context) {
  ASSERT_EQ(a.questions.size(), b.questions.size()) << context;
  for (std::size_t i = 0; i < a.questions.size(); ++i) {
    EXPECT_EQ(a.questions[i].index, b.questions[i].index) << context << " Q" << i;
    EXPECT_EQ(a.questions[i].question_time, b.questions[i].question_time)
        << context << " Q" << i;
    EXPECT_EQ(a.questions[i].choice, b.questions[i].choice) << context << " Q" << i;
    EXPECT_EQ(a.questions[i].override_time, b.questions[i].override_time)
        << context << " Q" << i;
  }
  EXPECT_EQ(a.type1_records, b.type1_records) << context;
  EXPECT_EQ(a.type2_records, b.type2_records) << context;
  EXPECT_EQ(a.other_records, b.other_records) << context;
}

TEST(MmapDifferential, EngineIdenticalAcrossReadPathsAndShardCounts) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  sim::SessionConfig config;
  config.seed = 8300;
  const auto session = sim::simulate_session(graph, alternating(13, true), config);
  const auto path = fs::temp_directory_path() / "wm_mmap_differential.pcap";
  net::write_pcap(path, session.capture.packets);

  // Reference: forced-istream, inline (batch-equivalent) run.
  std::string reference_stable;
  InferReport reference;
  {
    obs::Registry registry;
    engine::CaptureOptions capture_options;
    capture_options.metrics = &registry;
    capture_options.allow_mmap = false;
    auto source = engine::open_capture(path, capture_options);
    ASSERT_TRUE(source.ok()) << source.error().to_string();
    InferOptions options;
    options.shards = 0;
    options.per_client = true;
    options.metrics = &registry;
    reference = pipeline.infer(**source, options);
    reference_stable = registry.snapshot().stable_json();
    ASSERT_FALSE(reference_stable.empty());
  }

  for (const bool allow_mmap : {false, true}) {
    for (const std::size_t shards :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4},
          std::size_t{8}}) {
      const std::string context = std::string(allow_mmap ? "mmap" : "istream") +
                                  " shards=" + std::to_string(shards);
      obs::Registry registry;
      engine::CaptureOptions capture_options;
      capture_options.metrics = &registry;
      capture_options.allow_mmap = allow_mmap;
      auto source = engine::open_capture(path, capture_options);
      ASSERT_TRUE(source.ok()) << context << ": " << source.error().to_string();

      InferOptions options;
      options.shards = shards;
      options.per_client = true;
      options.metrics = &registry;
      const InferReport report = pipeline.infer(**source, options);

      expect_sessions_identical(report.combined, reference.combined, context);
      ASSERT_EQ(report.per_client.size(), reference.per_client.size()) << context;
      for (const auto& [client, inferred] : reference.per_client) {
        ASSERT_TRUE(report.per_client.count(client)) << context;
        expect_sessions_identical(report.per_client.at(client), inferred,
                                  context + " client " + client);
      }
      // The stable counter export is byte-identical no matter how the
      // bytes reached the engine or how many workers chewed them.
      EXPECT_EQ(registry.snapshot().stable_json(), reference_stable) << context;
    }
  }
  fs::remove(path);
}

TEST(MmapDifferential, CaptureSourceReportsMmapEngagement) {
  const auto path = fs::temp_directory_path() / "wm_mmap_flagged.pcap";
  std::vector<net::Packet> packets;
  packets.emplace_back(util::SimTime::from_seconds(1.0), util::Bytes(60, 0x42));
  net::write_pcap(path, packets);

  {
    obs::Registry registry;
    engine::CaptureOptions options;
    options.metrics = &registry;
    auto source = engine::open_capture(path, options);
    ASSERT_TRUE(source.ok());
    const auto snap = registry.snapshot();
    EXPECT_TRUE(snap.sharded.count("source.mmap"));
    EXPECT_FALSE(snap.stable.count("source.mmap"));  // never in the contract
  }
  {
    obs::Registry registry;
    engine::CaptureOptions options;
    options.metrics = &registry;
    options.allow_mmap = false;
    auto source = engine::open_capture(path, options);
    ASSERT_TRUE(source.ok());
    EXPECT_FALSE(registry.snapshot().sharded.count("source.mmap"));
  }
  fs::remove(path);
}

}  // namespace
}  // namespace wm::core
