// Golden-trace replay: every committed fixture capture must decode to
// its committed .expected.json — same choice sequence, same record
// tallies, and a byte-identical stable wm::obs counter snapshot. This
// pins the whole stack (capture readers, reassembly, TLS parsing,
// classification, decode, instrumentation) against silent behavioural
// drift: any change that alters what a fixed capture means fails here
// first.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "golden_common.hpp"
#include "wm/obs/registry.hpp"
#include "wm/util/json.hpp"

#ifndef WM_GOLDEN_DIR
#define WM_GOLDEN_DIR "."
#endif

namespace wm::golden {
namespace {

util::JsonValue load_json(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return util::JsonValue::parse(buffer.str());
}

class GoldenFixture : public ::testing::TestWithParam<FixtureSpec> {};

TEST_P(GoldenFixture, ReplayMatchesExpectedDecodeAndSnapshot) {
  const FixtureSpec& spec = GetParam();
  const std::filesystem::path dir = WM_GOLDEN_DIR;
  const auto capture_path =
      dir / (spec.name + (spec.pcapng ? ".pcapng" : ".pcap"));
  const auto expected_path = dir / (spec.name + ".expected.json");
  ASSERT_TRUE(std::filesystem::exists(capture_path))
      << capture_path << " missing — run gen_fixtures";
  ASSERT_TRUE(std::filesystem::exists(expected_path))
      << expected_path << " missing — run gen_fixtures";

  const util::JsonValue expected = load_json(expected_path);
  const core::AttackPipeline pipeline = calibrated_pipeline();

  const std::string& context = spec.name;
  obs::Registry registry;
  core::InferOptions options;
  options.per_client = true;
  options.metrics = &registry;
  const auto report = pipeline.infer_capture(capture_path, options);
  ASSERT_TRUE(report.ok()) << context << ": " << report.error().to_string();

  // Choice sequence.
  const auto choices = report->combined.choices();
  const auto& expected_choices = expected.at("choices").as_array();
  ASSERT_EQ(choices.size(), expected_choices.size()) << context;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    const std::string got = choices[i] == story::Choice::kNonDefault
                                ? "non_default"
                                : "default";
    EXPECT_EQ(got, expected_choices[i].as_string()) << context << " Q" << i;
  }

  // Record tallies.
  EXPECT_EQ(static_cast<std::int64_t>(report->combined.type1_records),
            expected.at("type1_records").as_int()) << context;
  EXPECT_EQ(static_cast<std::int64_t>(report->combined.type2_records),
            expected.at("type2_records").as_int()) << context;
  EXPECT_EQ(static_cast<std::int64_t>(report->combined.other_records),
            expected.at("other_records").as_int()) << context;

  // Per-viewer separation.
  const auto& viewers = expected.at("viewers").as_array();
  ASSERT_EQ(report->per_client.size(), viewers.size()) << context;
  for (const auto& viewer : viewers) {
    const std::string& client = viewer.at("client").as_string();
    ASSERT_TRUE(report->per_client.count(client)) << context << " " << client;
    EXPECT_EQ(static_cast<std::int64_t>(
                  report->per_client.at(client).questions.size()),
              viewer.at("questions").as_int())
        << context << " " << client;
  }

  // Counter snapshot: the stable section must serialize to exactly
  // the committed bytes (both are canonical compact JSON).
  EXPECT_EQ(registry.snapshot().stable_json(), expected.at("stable").dump())
      << context;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenFixture,
                         ::testing::ValuesIn(fixture_specs()),
                         [](const ::testing::TestParamInfo<FixtureSpec>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace wm::golden
