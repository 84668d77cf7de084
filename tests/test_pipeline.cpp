// End-to-end attack integration: capture -> choices, across operating
// conditions, classifiers and story graphs; plus the bitrate baseline
// failing intra-video (the §II argument).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "wm/core/bitrate_baseline.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/net/pcap.hpp"
#include "wm/dataset/choice_policy.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/story/generator.hpp"
#include "wm/tls/record_stream.hpp"

namespace wm::core {
namespace {

using story::Choice;

sim::SessionResult simulate(const story::StoryGraph& graph,
                            const sim::OperationalConditions& conditions,
                            const std::vector<Choice>& choices,
                            std::uint64_t seed) {
  sim::SessionConfig config;
  config.conditions = conditions;
  config.seed = seed;
  return sim::simulate_session(graph, choices, config);
}

std::vector<Choice> alternating(std::size_t n) {
  std::vector<Choice> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i % 2 == 0 ? Choice::kNonDefault : Choice::kDefault);
  }
  return out;
}

/// Whole-capture decode of an in-memory packet vector through the
/// single options-based entry point.
InferredSession infer_combined(const AttackPipeline& attack,
                               const std::vector<net::Packet>& packets) {
  engine::VectorSource source(&packets);
  return attack.infer(source).combined;
}

class PipelinePerCondition
    : public ::testing::TestWithParam<sim::OperationalConditions> {};

TEST_P(PipelinePerCondition, RecoversAllChoices) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const sim::OperationalConditions conditions = GetParam();

  // Calibrate on a few sessions under the same conditions (the paper
  // built its Fig. 2 bands from multiple viewings per condition).
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t seed : {1001u, 1002u, 1003u}) {
    auto calib = simulate(graph, conditions, alternating(13), seed);
    calibration.push_back(CalibrationSession{std::move(calib.capture.packets),
                                             std::move(calib.truth)});
  }
  AttackPipeline attack("interval");
  attack.calibrate(calibration);

  // Attack a different viewing.
  const auto victim =
      simulate(graph, conditions, {Choice::kDefault, Choice::kDefault,
                                   Choice::kNonDefault, Choice::kDefault,
                                   Choice::kNonDefault, Choice::kDefault,
                                   Choice::kDefault, Choice::kDefault,
                                   Choice::kDefault, Choice::kDefault,
                                   Choice::kDefault, Choice::kDefault,
                                   Choice::kDefault},
               2002);
  const InferredSession inferred = infer_combined(attack, victim.capture.packets);
  const SessionScore score = score_session(victim.truth, inferred);
  // The paper reports 96% worst-case, not 100%: rare band-edge samples
  // outside the calibrated interval are expected.
  EXPECT_GE(score.choice_accuracy, 0.9) << conditions.to_string();
  EXPECT_TRUE(score.question_count_match) << conditions.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    RepresentativeConditions, PipelinePerCondition,
    ::testing::Values(
        sim::OperationalConditions{},  // Linux/Firefox/Wired/Desktop/Noon
        sim::OperationalConditions{sim::OperatingSystem::kWindows,
                                   sim::Platform::kDesktop,
                                   sim::TrafficCondition::kNoon,
                                   sim::ConnectionType::kWired,
                                   sim::Browser::kFirefox},
        sim::OperationalConditions{sim::OperatingSystem::kMac,
                                   sim::Platform::kLaptop,
                                   sim::TrafficCondition::kMorning,
                                   sim::ConnectionType::kWireless,
                                   sim::Browser::kChrome},
        sim::OperationalConditions{sim::OperatingSystem::kLinux,
                                   sim::Platform::kLaptop,
                                   sim::TrafficCondition::kNight,
                                   sim::ConnectionType::kWireless,
                                   sim::Browser::kChrome},
        sim::OperationalConditions{sim::OperatingSystem::kWindows,
                                   sim::Platform::kLaptop,
                                   sim::TrafficCondition::kNight,
                                   sim::ConnectionType::kWireless,
                                   sim::Browser::kFirefox}),
    [](const ::testing::TestParamInfo<sim::OperationalConditions>& info) {
      std::string name = sim::to_string(info.param.os) +
                         sim::to_string(info.param.connection) +
                         sim::to_string(info.param.browser);
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name;
    });

TEST(Pipeline, KnnAndNbAlsoRecover) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const sim::OperationalConditions conditions;
  // kNN needs denser calibration than the interval method: with one
  // session the two type-2 examples get outvoted by telemetry points.
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t seed : {3001u, 3003u, 3004u, 3005u}) {
    auto calib = simulate(graph, conditions,
                          std::vector<Choice>(13, Choice::kNonDefault), seed);
    calibration.push_back(CalibrationSession{std::move(calib.capture.packets),
                                             std::move(calib.truth)});
  }
  const auto victim = simulate(graph, conditions, alternating(13), 3002);

  for (const char* name : {"knn", "gaussian-nb"}) {
    AttackPipeline attack(name);
    attack.calibrate(calibration);
    const InferredSession inferred = infer_combined(attack, victim.capture.packets);
    const SessionScore score = score_session(victim.truth, inferred);
    EXPECT_GE(score.choice_accuracy, 0.75) << name;
  }
}

TEST(Pipeline, WorksOnGeneratedStories) {
  util::Rng rng(505);
  story::GeneratorConfig gen;
  gen.questions = 6;
  const story::StoryGraph graph = story::generate_story(gen, rng);
  const sim::OperationalConditions conditions;

  std::vector<CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    auto calib = simulate(graph, conditions, alternating(10), 4001 + s);
    calibration.push_back(CalibrationSession{std::move(calib.capture.packets),
                                             std::move(calib.truth)});
  }
  AttackPipeline attack("interval");
  attack.calibrate(calibration);

  const auto victim = simulate(graph, conditions, alternating(10), 4010);
  const InferredSession inferred = infer_combined(attack, victim.capture.packets);
  const SessionScore score = score_session(victim.truth, inferred);
  // At most one band-edge miss.
  EXPECT_GE(score.choices_correct + 1, score.questions_truth);
}

TEST(Pipeline, CrossConditionCalibrationKeepsJsonBandsUsable) {
  // Global (cross-condition) calibration: the classifier's bands become
  // unions over conditions. Two structural facts must hold: the JSON
  // unions stay disjoint from EACH OTHER, and every true JSON record of
  // a covered condition still classifies correctly. (Question *decode*
  // can still degrade, because one condition's telemetry may fall into
  // another condition's JSON band — quantified by the
  // ablation_calibration_scope bench.)
  const story::StoryGraph graph = story::make_bandersnatch();
  sim::OperationalConditions linux_cond;
  sim::OperationalConditions windows_cond = linux_cond;
  windows_cond.os = sim::OperatingSystem::kWindows;

  std::vector<CalibrationSession> calibration;
  const auto s1 = simulate(graph, linux_cond, alternating(13), 5001);
  const auto s2 = simulate(graph, windows_cond, alternating(13), 5002);
  calibration.push_back(CalibrationSession{s1.capture.packets, s1.truth});
  calibration.push_back(CalibrationSession{s2.capture.packets, s2.truth});

  AttackPipeline attack("interval");
  attack.calibrate(calibration);
  const auto& clf = dynamic_cast<const IntervalClassifier&>(attack.classifier());
  EXPECT_FALSE(clf.bands_overlap());

  for (std::uint64_t seed : {5003u, 5004u}) {
    for (const auto& conditions : {linux_cond, windows_cond}) {
      const auto victim = simulate(graph, conditions, alternating(13), seed);
      const auto observations = extract_client_records(victim.capture.packets);
      for (const auto& item : label_observations(observations, victim.truth)) {
        if (item.label == RecordClass::kOther) continue;
        EXPECT_EQ(clf.classify(item.observation.record_length), item.label)
            << "len=" << item.observation.record_length;
      }
    }
  }
}

TEST(Features, BatchFeaturePathKeepsTheGapTaint) {
  // Un-retransmitted segment loss leaves records parsed right after a
  // hole (RecordEvent::after_gap). The feature path must carry that
  // taint into its observations, in the decode order, or a lossy
  // capture decodes at full confidence. Reference: each record of
  // tls::extract_record_streams on the same packets.
  const story::StoryGraph graph = story::make_bandersnatch();
  const auto session =
      simulate(graph, sim::OperationalConditions{}, alternating(13), 5101);
  util::Rng rng(5102);
  const std::vector<net::Packet> lossy =
      sim::drop_segments(session.capture.packets, 0.05, rng);
  const std::vector<tls::FlowRecordStream> streams =
      tls::extract_record_streams(lossy);
  const std::vector<ClientRecordObservation> observations =
      extract_client_records(lossy);

  // Every observation against its source record: (time, length) with
  // the taint, as multisets.
  using Key = std::tuple<util::SimTime, std::uint16_t, bool>;
  std::vector<Key> want;
  for (const tls::FlowRecordStream& stream : streams) {
    for (const tls::RecordEvent& event : stream.events) {
      if (!event.is_client_application_data()) continue;
      want.emplace_back(event.timestamp, event.record_length, event.after_gap);
    }
  }
  std::vector<Key> got;
  std::size_t tainted = 0;
  for (const ClientRecordObservation& observation : observations) {
    got.emplace_back(observation.timestamp, observation.record_length,
                     observation.after_gap);
    if (observation.after_gap) ++tainted;
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_GT(tainted, 0u);
  EXPECT_TRUE(std::is_sorted(observations.begin(), observations.end(),
                             observation_before));
}

TEST(Pipeline, PcapRoundTripPreservesInference) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const sim::OperationalConditions conditions;
  const auto calib = simulate(graph, conditions, alternating(13), 6001);
  const auto victim = simulate(graph, conditions, alternating(13), 6002);

  AttackPipeline attack("interval");
  attack.calibrate({CalibrationSession{calib.capture.packets, calib.truth}});

  const auto direct = infer_combined(attack, victim.capture.packets);

  const auto path = std::filesystem::temp_directory_path() / "wm_victim.pcap";
  net::write_pcap(path, victim.capture.packets);
  const auto from_disk = attack.infer_capture(path);
  std::filesystem::remove(path);

  ASSERT_TRUE(from_disk.ok()) << from_disk.error().to_string();
  ASSERT_EQ(direct.questions.size(), from_disk->combined.questions.size());
  for (std::size_t i = 0; i < direct.questions.size(); ++i) {
    EXPECT_EQ(direct.questions[i].choice, from_disk->combined.questions[i].choice);
  }
}

TEST(Pipeline, UncalibratedPipelineState) {
  AttackPipeline attack("interval");
  EXPECT_FALSE(attack.calibrated());
  // An empty capture yields an empty inference without touching the
  // (unfitted) classifier.
  EXPECT_TRUE(infer_combined(attack, {}).questions.empty());
}

// --- bitrate baseline (ablation A2) -------------------------------------

TEST(BitrateBaseline, FailsIntraVideo) {
  // The baseline gets MORE information than a real attacker (true
  // question times) and still cannot tell default from non-default:
  // both branches stream at the same bitrate (§II).
  const story::StoryGraph graph = story::make_bandersnatch();
  const sim::OperationalConditions conditions;

  std::vector<BitrateBaseline::Calibration> calibration;
  for (std::uint64_t seed = 7001; seed < 7004; ++seed) {
    auto session = simulate(graph, conditions, alternating(13), seed);
    calibration.push_back(BitrateBaseline::Calibration{
        std::move(session.capture.packets), std::move(session.truth)});
  }
  BitrateBaseline baseline;
  baseline.fit(calibration);

  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 7101; seed < 7106; ++seed) {
    const auto victim = simulate(graph, conditions, alternating(13), seed);
    std::vector<util::SimTime> question_times;
    for (const auto& q : victim.truth.questions) {
      question_times.push_back(q.question_time);
    }
    const auto predictions =
        baseline.predict(victim.capture.packets, question_times);
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      ++total;
      if (predictions[i] == victim.truth.questions[i].choice) ++correct;
    }
  }
  const double accuracy = static_cast<double>(correct) / static_cast<double>(total);
  // Near chance: decisively worse than the record-length attack.
  EXPECT_LT(accuracy, 0.75);
  EXPECT_GT(total, 10u);
}

// --- Options API contract -------------------------------------------
// The historic vector/path wrapper overloads are retired; every
// capability they provided must be reachable — with identical
// results — through infer(PacketSource&, InferOptions) /
// infer_capture().

void expect_equal_sessions(const InferredSession& a, const InferredSession& b,
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

/// Two interleaved viewers with distinct endpoints, merged by time.
std::vector<net::Packet> two_viewer_capture(const story::StoryGraph& graph) {
  std::vector<net::Packet> merged;
  for (std::size_t v = 0; v < 2; ++v) {
    sim::SessionConfig config;
    config.seed = 7301 + v;
    config.packetize.client_ip =
        net::Ipv4Address(10, 0, 4, static_cast<std::uint8_t>(10 + v));
    config.packetize.cdn_client_port = static_cast<std::uint16_t>(55000 + 2 * v);
    config.packetize.api_client_port = static_cast<std::uint16_t>(55001 + 2 * v);
    auto session = sim::simulate_session(graph, alternating(9), config);
    const util::Duration stagger = util::Duration::millis(900) * static_cast<int>(v);
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

AttackPipeline wrapper_test_pipeline(const story::StoryGraph& graph) {
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t seed : {7311u, 7312u, 7313u}) {
    auto session = simulate(graph, sim::OperationalConditions{},
                            alternating(13), seed);
    calibration.push_back(CalibrationSession{std::move(session.capture.packets),
                                             std::move(session.truth)});
  }
  AttackPipeline pipeline("interval");
  pipeline.calibrate(calibration);
  return pipeline;
}

TEST(OptionsApi, PerClientSplitsViewersAndMatchesCombined) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = wrapper_test_pipeline(graph);
  const auto packets = two_viewer_capture(graph);

  engine::VectorSource source(&packets);
  InferOptions options;
  options.per_client = true;
  const InferReport report = pipeline.infer(source, options);
  ASSERT_EQ(report.per_client.size(), 2u);

  // The per-client split is a refinement of the combined decode, not a
  // different algorithm: question totals add up.
  std::size_t split_questions = 0;
  for (const auto& [client, session] : report.per_client) {
    split_questions += session.questions.size();
  }
  EXPECT_EQ(split_questions, report.combined.questions.size());

  // And re-running without per_client yields an identical combined view.
  engine::VectorSource again(&packets);
  expect_equal_sessions(report.combined, pipeline.infer(again).combined,
                        "per_client on vs off, combined view");
}

TEST(OptionsApi, InferCaptureMatchesInMemory) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = wrapper_test_pipeline(graph);
  const auto packets = two_viewer_capture(graph);

  const auto path =
      std::filesystem::temp_directory_path() / "wm_options_equiv.pcap";
  net::write_pcap(path, packets);

  const auto via_capture = pipeline.infer_capture(path);
  ASSERT_TRUE(via_capture.ok()) << via_capture.error().to_string();
  engine::VectorSource source(&packets);
  expect_equal_sessions(via_capture->combined, pipeline.infer(source).combined,
                        "infer_capture vs infer(source)");

  // Open-time failures are typed, not thrown.
  const auto missing = pipeline.infer_capture("/nonexistent/nowhere.pcap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);
  std::filesystem::remove(path);
}

TEST(OptionsApi, SourceErrorsAreCountedNotThrown) {
  // A tap that dies mid-capture must not take the analysis down with
  // it: infer() keeps what decoded, and reports the failure through
  // EngineStats::source_errors instead of throwing.
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = wrapper_test_pipeline(graph);
  const auto packets = two_viewer_capture(graph);

  const auto path =
      std::filesystem::temp_directory_path() / "wm_truncated.pcap";
  net::write_pcap(path, packets);
  // Chop into the middle of the final record: the stream ends in a
  // typed error after most packets delivered.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 7);

  auto source = engine::open_capture(path);
  ASSERT_TRUE(source.ok()) << source.error().to_string();
  const InferReport report = pipeline.infer(**source);
  EXPECT_EQ(report.stats.source_errors, 1u);
  EXPECT_TRUE((*source)->error().has_value());
  // The healthy prefix still decoded.
  EXPECT_FALSE(report.combined.questions.empty());
  std::filesystem::remove(path);
}

TEST(OptionsApi, InferReportsIntoInstalledRegistry) {
  // A registry installed with set_metrics() observes every infer run
  // that does not override it per call.
  const story::StoryGraph graph = story::make_bandersnatch();
  AttackPipeline pipeline = wrapper_test_pipeline(graph);
  const auto packets = two_viewer_capture(graph);

  obs::Registry registry;
  pipeline.set_metrics(&registry);
  engine::VectorSource first(&packets);
  (void)pipeline.infer(first);
  engine::VectorSource second(&packets);
  InferOptions options;
  options.per_client = true;
  (void)pipeline.infer(second, options);
  pipeline.set_metrics(nullptr);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.stable.at("pipeline.infer.runs"), 2u);
  EXPECT_EQ(snap.stable.at("engine.packets_in"), packets.size() * 2);
  EXPECT_GT(snap.stable.at("pipeline.questions"), 0u);
}

TEST(BitrateBaseline, RequiresBothClasses) {
  const story::StoryGraph graph = story::make_bandersnatch();
  auto session = simulate(graph, sim::OperationalConditions{},
                          std::vector<Choice>(13, Choice::kDefault), 7201);
  BitrateBaseline baseline;
  std::vector<BitrateBaseline::Calibration> calibration;
  calibration.push_back(BitrateBaseline::Calibration{
      std::move(session.capture.packets), std::move(session.truth)});
  EXPECT_THROW(baseline.fit(calibration), std::invalid_argument);
  EXPECT_THROW((void)baseline.predict({}, {}), std::logic_error);
}

}  // namespace
}  // namespace wm::core
