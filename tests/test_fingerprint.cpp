// Condition fingerprinting: identify the victim's platform from the
// capture, then attack with the matched per-condition classifier.
#include <gtest/gtest.h>

#include "wm/core/fingerprint.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/rng.hpp"

namespace wm::core {
namespace {

using story::Choice;

std::vector<sim::OperationalConditions> library_conditions() {
  sim::OperationalConditions linux_ff;
  sim::OperationalConditions windows_ff = linux_ff;
  windows_ff.os = sim::OperatingSystem::kWindows;
  sim::OperationalConditions mac_ff = linux_ff;
  mac_ff.os = sim::OperatingSystem::kMac;
  sim::OperationalConditions linux_chrome = linux_ff;
  linux_chrome.browser = sim::Browser::kChrome;
  sim::OperationalConditions windows_chrome = windows_ff;
  windows_chrome.browser = sim::Browser::kChrome;
  sim::OperationalConditions mac_chrome = mac_ff;
  mac_chrome.browser = sim::Browser::kChrome;
  return {linux_ff, windows_ff, mac_ff, linux_chrome, windows_chrome, mac_chrome};
}

const story::StoryGraph& graph() {
  static const story::StoryGraph g = story::make_bandersnatch();
  return g;
}

const ConditionFingerprinter& library() {
  static const ConditionFingerprinter lib = ConditionFingerprinter::build_library(
      graph(), library_conditions(), /*sessions_per_condition=*/3, /*seed=*/6100);
  return lib;
}

sim::SessionResult victim_session(const sim::OperationalConditions& conditions,
                                  std::uint64_t seed) {
  std::vector<Choice> choices;
  for (int i = 0; i < 13; ++i) {
    choices.push_back(i % 3 == 0 ? Choice::kNonDefault : Choice::kDefault);
  }
  sim::SessionConfig config;
  config.conditions = conditions;
  config.seed = seed;
  return sim::simulate_session(graph(), choices, config);
}

TEST(Fingerprint, LibraryBuilds) {
  EXPECT_EQ(library().size(), 6u);
}

class FingerprintPerCondition
    : public ::testing::TestWithParam<sim::OperationalConditions> {};

TEST_P(FingerprintPerCondition, IdentifiesVictimPlatform) {
  const auto victim = victim_session(GetParam(), 6200);
  const auto observations = extract_client_records(victim.capture.packets);
  const auto identified = library().identify(observations);
  ASSERT_TRUE(identified.has_value());
  EXPECT_EQ(identified->os, GetParam().os) << GetParam().to_string();
  EXPECT_EQ(identified->browser, GetParam().browser) << GetParam().to_string();
}

TEST_P(FingerprintPerCondition, AttacksWithoutPriorKnowledge) {
  const auto victim = victim_session(GetParam(), 6300);
  const auto result = library().infer(victim.capture.packets);
  ASSERT_TRUE(result.conditions.has_value());
  const SessionScore score = score_session(victim.truth, result.session);
  EXPECT_GE(score.choice_accuracy, 0.75) << GetParam().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    SixConditions, FingerprintPerCondition,
    ::testing::ValuesIn(library_conditions()),
    [](const ::testing::TestParamInfo<sim::OperationalConditions>& info) {
      std::string name =
          sim::to_string(info.param.os) + sim::to_string(info.param.browser);
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name;
    });

TEST(Fingerprint, ScoresExposeStructure) {
  const auto victim = victim_session(sim::OperationalConditions{}, 6400);
  const auto observations = extract_client_records(victim.capture.packets);
  const auto scores = library().score(observations);
  ASSERT_EQ(scores.size(), 6u);
  // Best hypothesis is plausible and matches the victim.
  EXPECT_TRUE(scores.front().plausible);
  EXPECT_EQ(scores.front().conditions.os, sim::OperatingSystem::kLinux);
  EXPECT_GE(scores.front().type1_hits, 1u);
  EXPECT_LE(scores.front().type2_hits, scores.front().type1_hits);
}

TEST(Fingerprint, PaddedTrafficYieldsNoPlausibleHypothesis) {
  // Under a padding countermeasure the bands catch nothing (or absurd
  // amounts); the fingerprinter must abstain rather than guess.
  std::vector<Choice> choices(13, Choice::kNonDefault);
  sim::SessionConfig config;
  config.seed = 6500;
  config.packetize.client_transform = [](sim::ClientMessageKind, std::size_t) {
    return std::vector<std::size_t>{4096};
  };
  const auto victim = sim::simulate_session(graph(), choices, config);
  const auto observations = extract_client_records(victim.capture.packets);
  const auto identified = library().identify(observations);
  EXPECT_FALSE(identified.has_value());
}

TEST(Fingerprint, DecodesTheEvidenceInferDecodes) {
  // On lossy captures the fingerprinter's session must be the matched
  // pipeline's infer().combined: the same observations, and the same
  // client gap spans tainting the same questions.
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sim::SessionConfig config;
    config.seed = 6100 + s;
    std::vector<Choice> alternating;
    for (int i = 0; i < 13; ++i) {
      alternating.push_back(i % 2 == 0 ? Choice::kNonDefault : Choice::kDefault);
    }
    auto session = sim::simulate_session(graph(), alternating, config);
    calibration.push_back(CalibrationSession{std::move(session.capture.packets),
                                             std::move(session.truth)});
  }
  auto pipeline = std::make_shared<AttackPipeline>("interval");
  pipeline->calibrate(calibration);
  ConditionFingerprinter fingerprinter;
  fingerprinter.add(sim::OperationalConditions{}, pipeline);

  std::size_t tainted = 0;
  for (std::uint64_t seed = 6300; seed < 6310; ++seed) {
    const auto victim = victim_session(sim::OperationalConditions{}, seed);
    util::Rng rng(seed);
    const std::vector<net::Packet> lossy =
        sim::drop_segments(victim.capture.packets, 0.05, rng);
    const auto result = fingerprinter.infer(lossy);
    ASSERT_TRUE(result.conditions.has_value()) << "seed " << seed;
    engine::VectorSource source(&lossy);
    const InferredSession want = pipeline->infer(source).combined;
    const InferredSession& got = result.session;
    const std::string context = "seed " + std::to_string(seed);
    ASSERT_EQ(got.questions.size(), want.questions.size()) << context;
    for (std::size_t i = 0; i < got.questions.size(); ++i) {
      EXPECT_EQ(got.questions[i].index, want.questions[i].index) << context;
      EXPECT_EQ(got.questions[i].question_time, want.questions[i].question_time)
          << context;
      EXPECT_EQ(got.questions[i].choice, want.questions[i].choice) << context;
      EXPECT_EQ(got.questions[i].override_time, want.questions[i].override_time)
          << context;
      EXPECT_EQ(got.questions[i].confidence, want.questions[i].confidence)
          << context << " Q" << i + 1;
      EXPECT_EQ(got.questions[i].evidence, want.questions[i].evidence)
          << context << " Q" << i + 1;
      if (want.questions[i].confidence < 1.0) ++tainted;
    }
    EXPECT_EQ(got.type1_records, want.type1_records) << context;
    EXPECT_EQ(got.type2_records, want.type2_records) << context;
    EXPECT_EQ(got.other_records, want.other_records) << context;
  }
  // The loss reached the evidence: some questions decode tainted.
  EXPECT_GT(tainted, 0u);
}

TEST(Fingerprint, EmptyCaptureAbstains) {
  EXPECT_FALSE(library().identify({}).has_value());
  const auto result = library().infer({});
  EXPECT_FALSE(result.conditions.has_value());
  EXPECT_TRUE(result.session.questions.empty());
}

}  // namespace
}  // namespace wm::core
