// The memory-mapped capture fast path against the buffered istream
// path: both must yield byte-identical packet sequences on well-formed,
// empty, snaplen-trimmed and large files, agree on where a truncated
// file fails, and drive inference to identical results and identical
// stable counter exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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

// --- The record index against the streaming reader ------------------
//
// CaptureFileSource serves classic pcap from the reader's multi-cursor
// record index. Every case below compares it with the istream reader:
// the same packets, then the same error after the same packet count.
// The shapes aim at the index's seams: cursor starts that land on fake
// record chains inside payloads, corrupt and truncated records inside a
// cursor's segment and exactly on a window boundary, records small
// enough to fill a cursor's share of the index, and records no cursor
// start accepts.

/// Every packet one reading path yields, then the error that ended it
/// (nullopt after a clean end).
struct Walk {
  std::vector<Packet> packets;
  std::optional<std::string> error;
};

void expect_same_walk(const Walk& got, const Walk& want, const std::string& context) {
  expect_packets_identical(got.packets, want.packets, context);
  EXPECT_EQ(got.error, want.error) << context;
}

Walk streamed_walk(const fs::path& path) {
  Walk walk;
  std::ifstream in(path, std::ios::binary);
  try {
    PcapReader reader(in);
    while (auto packet = reader.next()) walk.packets.push_back(std::move(*packet));
  } catch (const std::runtime_error& e) {
    walk.error = e.what();
  }
  return walk;
}

/// Through the capture source the way extract_observations reads it:
/// read_views() runs of up to `max`, with every `copy_every`-th call
/// (when nonzero) a read_batch() instead.
Walk source_walk(const fs::path& path, std::size_t max, std::size_t copy_every = 0) {
  Walk walk;
  auto source = engine::open_capture(path);
  EXPECT_TRUE(source.ok());
  if (!source.ok()) return walk;
  engine::PacketBatch batch;
  for (std::size_t call = 1;; ++call) {
    const bool copy = copy_every != 0 && call % copy_every == 0;
    const std::size_t got =
        copy ? (*source)->read_batch(batch, max) : (*source)->read_views(batch, max);
    if (got == 0) break;
    if (batch.has_views()) {
      for (std::size_t i = 0; i < got; ++i) {
        walk.packets.push_back(batch.views()[i].to_packet());
      }
    } else {
      walk.packets.insert(walk.packets.end(), batch.begin(), batch.end());
    }
  }
  if ((*source)->error()) walk.error = (*source)->error()->message;
  return walk;
}

/// Indexed walks (read_views() runs of 256 and of 13, and runs of 37
/// with every third call a read_batch()) against the istream reader
/// over the file image `image`.
void expect_index_matches_stream(const util::Bytes& image, const std::string& context) {
  const auto path = fs::temp_directory_path() / "wm_mmap_index.pcap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    util::write_all(out, image);
  }
  const Walk want = streamed_walk(path);
  expect_same_walk(source_walk(path, 256), want, context + " runs of 256");
  expect_same_walk(source_walk(path, 13), want, context + " runs of 13");
  expect_same_walk(source_walk(path, 37, 3), want, context + " read_batch interleaved");
  fs::remove(path);
}

/// Deterministic non-zero filler (zero runs would read as empty records).
void fill_noise(util::Bytes& bytes, std::size_t from, std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = from; i < bytes.size(); ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    bytes[i] = static_cast<std::uint8_t>(state | 1);
  }
}

std::vector<Packet> noise_packets(std::size_t count, std::size_t min_size,
                                  std::size_t max_size, std::uint64_t seed) {
  std::vector<Packet> packets;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t size = min_size + (i * 7919 + seed) % (max_size - min_size + 1);
    Packet packet(util::SimTime::from_seconds(1.0 + 0.0001 * static_cast<double>(i)),
                  util::Bytes(size));
    fill_noise(packet.data, 0, seed + i);
    packets.push_back(std::move(packet));
  }
  return packets;
}

void put_u32(util::Bytes& bytes, std::size_t at, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t get_u32(const util::Bytes& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  }
  return value;
}

/// A frame made of fake pcap records (16-byte headers, captured ==
/// original), so a cursor-start scan that lands in it finds a
/// plausible chain. `aligned` chains end exactly at the frame's end,
/// so walking one runs on into the real records after the frame.
Packet fake_chain_frame(std::size_t size, std::size_t index, bool aligned) {
  Packet packet(util::SimTime::from_seconds(1.0 + 0.0001 * static_cast<double>(index)),
                util::Bytes(size));
  fill_noise(packet.data, 0, index);
  std::size_t pos = 0;
  for (std::size_t body = 8 + index % 40; size - pos >= 16 + body + 16;
       body = 8 + (body * 5 + 3) % 40) {
    put_u32(packet.data, pos, static_cast<std::uint32_t>(index));
    put_u32(packet.data, pos + 4, 0);
    put_u32(packet.data, pos + 8, static_cast<std::uint32_t>(body));
    put_u32(packet.data, pos + 12, static_cast<std::uint32_t>(body));
    pos += 16 + body;
  }
  if (aligned) {
    const auto body = static_cast<std::uint32_t>(size - pos - 16);
    put_u32(packet.data, pos + 8, body);
    put_u32(packet.data, pos + 12, body);
  }
  return packet;
}

util::Bytes image_of(const std::vector<Packet>& packets) {
  std::ostringstream out;
  {
    PcapWriter writer(out);
    for (const Packet& packet : packets) writer.write(packet);
  }
  const std::string text = out.str();
  return util::Bytes(text.begin(), text.end());
}

/// Start offset of every record in a well-formed little-endian image.
std::vector<std::size_t> record_offsets(const util::Bytes& image) {
  std::vector<std::size_t> offsets;
  for (std::size_t pos = PcapFileHeader::kSize; pos < image.size();
       pos += 16 + get_u32(image, pos + 8)) {
    offsets.push_back(pos);
  }
  return offsets;
}

/// The record starting at or after `offset`.
std::size_t record_at_or_after(const std::vector<std::size_t>& offsets, std::size_t offset) {
  return *std::lower_bound(offsets.begin(), offsets.end(), offset);
}

// The first window spans 256 KiB, cut into eight cursor segments.
constexpr std::size_t kFirstWindow = 256 * 1024;

/// Where the first index window ends on a well-formed image whose
/// payloads never read as record headers (noise_packets): every cursor
/// verifies, so the last one walks to the first record at or past the
/// window's nominal end.
std::size_t first_window_end(const std::vector<std::size_t>& offsets) {
  return record_at_or_after(offsets, PcapFileHeader::kSize + kFirstWindow);
}

TEST(RecordIndex, CleanMultiMiBCaptureVerifiesEveryCursor) {
  const util::Bytes image = image_of(noise_packets(4000, 60, 1514, 1));
  ASSERT_GT(image.size(), 3u << 20);
  expect_index_matches_stream(image, "clean");

  // The same records written on an opposite-endian host.
  util::Bytes swapped = image;
  const auto swap_at = [&](std::size_t at) {
    put_u32(swapped, at, __builtin_bswap32(get_u32(image, at)));
  };
  swap_at(0);
  swap_at(16);
  swap_at(20);
  swapped[4] = image[5];
  swapped[5] = image[4];
  swapped[6] = image[7];
  swapped[7] = image[6];
  for (const std::size_t offset : record_offsets(image)) {
    for (std::size_t field = 0; field < 16; field += 4) swap_at(offset + field);
  }
  expect_index_matches_stream(swapped, "byte-swapped");
}

TEST(RecordIndex, FakeChainsAtEveryCursorSplitAreNeverServed) {
  std::vector<Packet> packets;
  for (std::size_t i = 0; i < 3000; ++i) {
    packets.push_back(fake_chain_frame(200 + (i * 379) % 1300, i, i % 3 != 0));
  }
  const util::Bytes image = image_of(packets);
  ASSERT_GT(image.size(), 2u << 20);
  expect_index_matches_stream(image, "fake chains");
}

TEST(RecordIndex, CorruptRecordsInsideSegmentsAndOnWindowBoundary) {
  const util::Bytes image = image_of(noise_packets(2500, 60, 1514, 2));
  const std::vector<std::size_t> offsets = record_offsets(image);
  const std::size_t window_end = first_window_end(offsets);
  ASSERT_LT(window_end, image.size());
  const auto boundary = static_cast<std::size_t>(
      std::lower_bound(offsets.begin(), offsets.end(), window_end) - offsets.begin());

  const std::size_t inside_first = record_at_or_after(
      offsets, PcapFileHeader::kSize + kFirstWindow * 3 / 16);
  const std::size_t inside_later = record_at_or_after(offsets, image.size() * 3 / 5);
  const std::size_t near_end = record_at_or_after(offsets, image.size() - 100 * 1024);
  struct Case {
    std::string name;
    std::size_t record;
    std::uint32_t captured;  // written over the record's captured length
  };
  const auto captured_of = [&](std::size_t record) { return get_u32(image, record + 8); };
  const std::vector<Case> cases = {
      {"implausible length on the window boundary", window_end, 0xfffffff0u},
      {"implausible length ending the window", offsets[boundary - 1], 0xfffffff0u},
      {"implausible length inside cursor 1", inside_first, 0xfffffff0u},
      {"implausible length inside a later window", inside_later, 0xfffffff0u},
      {"length past the end of file", near_end, 300000},
      // A plausible lie that swallows exactly the next record: the walk
      // stays well-formed but never sees that record's header.
      {"length lie skipping a record inside cursor 1", inside_first,
       captured_of(inside_first) + 16 + captured_of(inside_first + 16 + captured_of(inside_first))},
      {"length lie skipping a record on the window boundary", offsets[boundary - 1],
       captured_of(offsets[boundary - 1]) + 16 + captured_of(window_end)},
      {"length lie desynchronizing inside a later window", inside_later,
       captured_of(inside_later) + 3},
  };
  for (const Case& c : cases) {
    util::Bytes corrupt = image;
    put_u32(corrupt, c.record + 8, c.captured);
    expect_index_matches_stream(corrupt, c.name);
  }
}

TEST(RecordIndex, TruncatedTailInsideASegmentAndOnAWindowBoundary) {
  const util::Bytes image = image_of(noise_packets(2500, 60, 1514, 3));
  const std::vector<std::size_t> offsets = record_offsets(image);
  const std::size_t window_end = first_window_end(offsets);
  const std::size_t inside = record_at_or_after(offsets, image.size() / 2) + 16 + 9;
  for (const std::size_t keep : {window_end + 7, window_end + 16 + 10, inside}) {
    const util::Bytes truncated(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_index_matches_stream(truncated, "truncated to " + std::to_string(keep));
  }
}

TEST(RecordIndex, SixtyByteFramesFillCursorSegments) {
  // Large records first, so the next window is sized for them and its
  // cursors meet tens of thousands of small records: each fills its
  // share of the index long before reaching the next cursor's start.
  std::vector<Packet> packets = noise_packets(700, 1400, 1400, 4);
  for (Packet& packet : noise_packets(40000, 60, 60, 5)) packets.push_back(std::move(packet));
  expect_index_matches_stream(image_of(packets), "large then 60-byte frames");
  expect_index_matches_stream(image_of(noise_packets(30000, 60, 60, 6)), "60-byte frames");
}

TEST(RecordIndex, OriginalLengthsBelowCapturedNeverStartACursor) {
  // A faulty writer's records (original length 0) are ones the walk
  // accepts but no cursor-start scan does: the index serves them
  // through cursor 0 alone, window after window.
  util::Bytes image = image_of(noise_packets(6000, 60, 1514, 8));
  for (const std::size_t offset : record_offsets(image)) put_u32(image, offset + 12, 0);
  expect_index_matches_stream(image, "original length 0");
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

TEST(MmapDifferential, EngineIdenticalAcrossReadPaths) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  sim::SessionConfig config;
  config.seed = 8300;
  const auto session = sim::simulate_session(graph, alternating(13, true), config);
  const auto path = fs::temp_directory_path() / "wm_mmap_differential.pcap";
  net::write_pcap(path, session.capture.packets);

  // Reference: the forced-istream run.
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
    options.per_client = true;
    options.metrics = &registry;
    reference = pipeline.infer(**source, options);
    reference_stable = registry.snapshot().stable_json();
    ASSERT_FALSE(reference_stable.empty());
  }

  for (const bool allow_mmap : {false, true}) {
    const std::string context = allow_mmap ? "mmap" : "istream";
    obs::Registry registry;
    engine::CaptureOptions capture_options;
    capture_options.metrics = &registry;
    capture_options.allow_mmap = allow_mmap;
    auto source = engine::open_capture(path, capture_options);
    ASSERT_TRUE(source.ok()) << context << ": " << source.error().to_string();

    InferOptions options;
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
    // bytes reached the engine.
    EXPECT_EQ(registry.snapshot().stable_json(), reference_stable) << context;
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
