// The engine against the batch feature path: incremental analysis must
// reproduce the whole-capture decode of extract_client_records exactly,
// combined and per viewer, and must separate interleaved viewers, bound
// its flow state under long replays, reject a nonzero shard count, and
// report capture failures as typed Results instead of exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "chunked_replay.hpp"
#include "teardown.hpp"
#include "wm/core/engine/engine.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/net/pcap.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"

namespace wm::core {
namespace {

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
    config.seed = 9600 + s;
    auto session = sim::simulate_session(graph, alternating(13, true), config);
    calibration.push_back(CalibrationSession{std::move(session.capture.packets),
                                             std::move(session.truth)});
  }
  AttackPipeline pipeline("interval");
  pipeline.calibrate(calibration);
  return pipeline;
}

/// Interleaved multi-viewer capture: `viewers` sessions behind one tap,
/// distinct client addresses/ports, staggered starts, merged by time.
struct MergedCapture {
  std::vector<net::Packet> packets;
  std::vector<sim::SessionGroundTruth> truths;
  std::vector<std::string> clients;
};

MergedCapture make_merged_capture(const story::StoryGraph& graph,
                                  std::size_t viewers) {
  MergedCapture merged;
  for (std::size_t v = 0; v < viewers; ++v) {
    sim::SessionConfig config;
    config.seed = 9700 + v;
    config.packetize.client_ip =
        net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(10 + v));
    config.packetize.cdn_client_port = static_cast<std::uint16_t>(52000 + 2 * v);
    config.packetize.api_client_port = static_cast<std::uint16_t>(52001 + 2 * v);
    auto session = sim::simulate_session(graph, alternating(13, v % 2 == 0), config);
    merged.truths.push_back(session.truth);
    merged.clients.push_back(session.capture.client_ip.to_string());
    const util::Duration stagger = util::Duration::millis(1700) * static_cast<int>(v);
    for (net::Packet& packet : session.capture.packets) {
      packet.timestamp += stagger;
      merged.packets.push_back(std::move(packet));
    }
  }
  std::stable_sort(merged.packets.begin(), merged.packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return merged;
}

void expect_sessions_identical(const InferredSession& a, const InferredSession& b,
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

TEST(Engine, OutputIdenticalToBatchFeaturePath) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  const MergedCapture merged = make_merged_capture(graph, 3);

  // Golden reference: the primitive batch path (extract everything,
  // decode once), exactly what AttackPipeline::infer() historically did.
  const std::vector<tls::FlowRecordStream> streams =
      tls::extract_record_streams(merged.packets);
  const InferredSession golden_combined =
      decode_choices(pipeline.classifier(), extract_client_records(streams));

  // Per-viewer reference: the same batch path over each viewer's own
  // flows.
  std::map<std::string, std::vector<tls::FlowRecordStream>> by_client;
  for (const tls::FlowRecordStream& stream : streams) {
    by_client[stream.flow.client.v4.to_string()].push_back(stream);
  }

  engine::VectorSource source(&merged.packets);
  InferOptions options;
  options.per_client = true;
  const InferReport report = pipeline.infer(source, options);

  expect_sessions_identical(report.combined, golden_combined, "combined");
  EXPECT_EQ(report.stats.packets_in, merged.packets.size());
  ASSERT_EQ(report.per_client.size(), merged.clients.size());
  for (const std::string& client : merged.clients) {
    ASSERT_TRUE(report.per_client.count(client)) << client;
    ASSERT_TRUE(by_client.count(client)) << client;
    expect_sessions_identical(
        report.per_client.at(client),
        decode_choices(pipeline.classifier(),
                       extract_client_records(by_client.at(client))),
        "client " + client);
  }
}

TEST(Engine, NonzeroShardCountIsRejectedBeforeTheSourceIsRead) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  const MergedCapture merged = make_merged_capture(graph, 1);

  engine::VectorSource source(&merged.packets);
  InferOptions options;
  options.shards = 2;
  EXPECT_THROW((void)pipeline.infer(source, options), std::invalid_argument);
  EXPECT_THROW((void)pipeline.infer_capture("/nonexistent/nowhere.pcap", options),
               std::invalid_argument);

  // The rejected call left the source untouched.
  options.shards = 0;
  EXPECT_EQ(pipeline.infer(source, options).stats.packets_in,
            merged.packets.size());
}

TEST(Engine, InterleavedViewersSeparateCorrectly) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  const MergedCapture merged = make_merged_capture(graph, 2);

  engine::VectorSource source(&merged.packets);
  InferOptions options;
  options.per_client = true;
  const InferReport report = pipeline.infer(source, options);

  ASSERT_EQ(report.per_client.size(), 2u);
  for (std::size_t v = 0; v < merged.clients.size(); ++v) {
    ASSERT_TRUE(report.per_client.count(merged.clients[v])) << merged.clients[v];
    const SessionScore score = score_session(
        merged.truths[v], report.per_client.at(merged.clients[v]));
    EXPECT_GE(score.choice_accuracy, 0.75) << "viewer " << v;
    EXPECT_TRUE(score.question_count_match) << "viewer " << v;
  }
  EXPECT_EQ(report.stats.viewers_seen, 2u);
  EXPECT_GT(report.stats.type1_records, 0u);
}

TEST(Engine, LongReplayEvictsIdleFlowsAndStaysBounded) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);

  sim::SessionConfig config;
  config.seed = 9900;
  auto base = sim::simulate_session(graph, alternating(13, true), config);
  const util::Duration session_length = base.session_length;

  // First, the single-lap reference decode.
  engine::VectorSource one_lap(&base.capture.packets);
  InferOptions reference_options;
  reference_options.per_client = true;
  const InferReport reference = pipeline.infer(one_lap, reference_options);
  ASSERT_EQ(reference.per_client.size(), 1u);
  const InferredSession& reference_session = reference.per_client.begin()->second;
  ASSERT_FALSE(reference_session.questions.empty());

  // Then a 10-lap replay (each lap a fresh viewer) with eviction set to
  // one session length: within-session idle gaps survive, finished
  // sessions do not. The laps' FIN segments are stripped, so their
  // flows never close and only idle eviction retires them.
  constexpr std::size_t kLaps = 10;
  test::ChunkedReplaySource::Config replay_config;
  replay_config.laps = kLaps;
  const std::vector<net::Packet> stripped =
      test::strip_teardown(base.capture.packets);
  ASSERT_LT(stripped.size(), base.capture.packets.size());
  test::ChunkedReplaySource replay(stripped, replay_config);

  InferOptions options;
  options.per_client = true;
  options.flow_idle_timeout = session_length;
  const InferReport report = pipeline.infer(replay, options);

  // Every lap decodes as its own viewer, identically to the reference
  // up to that lap's constant replay time shift.
  ASSERT_EQ(report.per_client.size(), kLaps);
  for (const auto& [client, session] : report.per_client) {
    const std::string context = "viewer " + client;
    ASSERT_EQ(session.questions.size(), reference_session.questions.size())
        << context;
    ASSERT_FALSE(session.questions.empty()) << context;
    const util::Duration shift = session.questions[0].question_time -
                                 reference_session.questions[0].question_time;
    for (std::size_t i = 0; i < session.questions.size(); ++i) {
      const auto& got = session.questions[i];
      const auto& want = reference_session.questions[i];
      EXPECT_EQ(got.index, want.index) << context << " Q" << i;
      EXPECT_EQ(got.question_time, want.question_time + shift)
          << context << " Q" << i;
      EXPECT_EQ(got.choice, want.choice) << context << " Q" << i;
      ASSERT_EQ(got.override_time.has_value(), want.override_time.has_value())
          << context << " Q" << i;
      if (want.override_time) {
        EXPECT_EQ(*got.override_time, *want.override_time + shift)
            << context << " Q" << i;
      }
    }
    EXPECT_EQ(session.type1_records, reference_session.type1_records) << context;
    EXPECT_EQ(session.type2_records, reference_session.type2_records) << context;
    EXPECT_EQ(session.other_records, reference_session.other_records) << context;
  }

  // Memory boundedness: most laps' flow state was evicted, and the peak
  // concurrently-tracked state held a small number of laps, not all of
  // them. (Sweep cadence + the one-timeout idle allowance bound the
  // overlap at ~2-3 live laps.)
  const std::uint64_t flows_per_lap = report.stats.flows_opened / kLaps;
  ASSERT_GT(flows_per_lap, 0u);
  EXPECT_GE(report.stats.flows_evicted, flows_per_lap * (kLaps - 4));
  EXPECT_LE(report.stats.peak_active_flows, flows_per_lap * 4);
  EXPECT_EQ(report.stats.packets_in, stripped.size() * kLaps);

  // With the teardown left in, flows retire as their connections close:
  // none is left for idle eviction.
  test::ChunkedReplaySource closing(base.capture.packets, replay_config);
  const InferReport closed = pipeline.infer(closing, options);
  EXPECT_EQ(closed.stats.flows_opened, report.stats.flows_opened);
  EXPECT_EQ(closed.stats.flows_evicted, 0u);
  EXPECT_LE(closed.stats.peak_active_flows, flows_per_lap * 2);
}

TEST(Engine, ReplayWithoutRewriteKeepsOneViewer) {
  const story::StoryGraph graph = story::make_bandersnatch();
  sim::SessionConfig config;
  config.seed = 9901;
  auto base = sim::simulate_session(graph, alternating(13, true), config);

  test::ChunkedReplaySource::Config replay_config;
  replay_config.laps = 3;
  replay_config.rewrite_addresses = false;
  test::ChunkedReplaySource replay(base.capture.packets, replay_config);

  std::size_t packets = 0;
  std::string client;
  while (auto packet = replay.next()) {
    ++packets;
    if (const auto decoded = net::decode_packet(*packet);
        decoded && decoded->has_ipv4() && client.empty()) {
      client = decoded->ipv4().source.to_string();
    }
  }
  EXPECT_EQ(packets, base.capture.packets.size() * 3);
}

TEST(EngineResultApi, MissingFileIsTypedNotFound) {
  const AttackPipeline pipeline("interval");
  const auto result = pipeline.infer_capture("/nonexistent/nowhere.pcap");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(result.error().message.empty());
}

TEST(EngineResultApi, GarbageFileIsUnsupportedFormat) {
  const auto path = std::filesystem::temp_directory_path() / "wm_engine_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a capture file, not even close";
  }
  const auto source = engine::open_capture(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.error().code, ErrorCode::kUnsupportedFormat);
  std::filesystem::remove(path);
}

TEST(EngineResultApi, TruncatedCaptureReportsMalformedTail) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  sim::SessionConfig config;
  config.seed = 9902;
  const auto session = sim::simulate_session(graph, alternating(13, true), config);

  const auto dir = std::filesystem::temp_directory_path();
  const auto whole = dir / "wm_engine_whole.pcap";
  net::write_pcap(whole, session.capture.packets);

  // Chop the file mid-record: reading must deliver the intact prefix,
  // then surface a typed error instead of throwing.
  const auto truncated = dir / "wm_engine_truncated.pcap";
  {
    std::ifstream in(whole, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 7);
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const auto result = pipeline.infer_capture(truncated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kMalformedCapture);

  std::filesystem::remove(whole);
  std::filesystem::remove(truncated);
}

TEST(EngineResultApi, ValidCaptureRoundTripsThroughFileSource) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  sim::SessionConfig config;
  config.seed = 9903;
  const auto session = sim::simulate_session(graph, alternating(13, false), config);

  const auto path = std::filesystem::temp_directory_path() / "wm_engine_valid.pcap";
  net::write_pcap(path, session.capture.packets);

  const auto from_file = pipeline.infer_capture(path);
  ASSERT_TRUE(from_file.ok()) << from_file.error().to_string();
  engine::VectorSource memory_source(&session.capture.packets);
  const InferredSession from_memory = pipeline.infer(memory_source).combined;
  expect_sessions_identical(from_file->combined, from_memory, "file vs memory");

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace wm::core
