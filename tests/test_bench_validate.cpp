// The BENCH schema validator and ratio gate: the well-formed fixtures
// in bench_fixtures/ pass, and the reference document with one field
// broken is rejected for that one reason. (The bench-validate ctest
// runs the validator over the committed BENCH files.)
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_report.hpp"

namespace wm::bench {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtures = WM_BENCH_FIXTURES_DIR;

const Spec& spec() {
  static const Spec loaded = load_spec(fs::path(WM_SOURCE_DIR) / "BENCHMARK.json");
  return loaded;
}

std::string joined(const std::vector<std::string>& problems) {
  std::string out;
  for (const std::string& problem : problems) out += problem + "\n";
  return out;
}

TEST(BenchValidate, ReferenceFixturePasses) {
  const std::vector<std::string> problems =
      validate_file(kFixtures / "reference.json", spec());
  EXPECT_TRUE(problems.empty()) << joined(problems);
}

TEST(BenchValidate, EachBrokenFieldFailsForItsReason) {
  // Each case breaks one field of the reference document.
  using Break = void (*)(util::JsonObject& untraced);
  struct Case {
    Break apply;
    const char* reason;
  };
  const Case cases[] = {
      {[](util::JsonObject& run) {
         util::JsonObject& metrics = run.at("metrics").as_object();
         metrics.emplace("pkts_per_sec", metrics.at("pkts_per_s"));
       },
       "metric \"pkts_per_sec\" is not in BENCHMARK.json end_to_end"},
      {[](util::JsonObject& run) {
         run.at("metrics").as_object().at("pkts_per_s").as_object()["unit"] = "pkt/s";
       },
       "has unit \"pkt/s\", BENCHMARK.json says \"1/s\""},
      {[](util::JsonObject& run) { run["correct"] = false; }, "\"correct\" is false"},
      {[](util::JsonObject& run) { run.at("env").as_object().erase("hardware_threads"); },
       "missing integer \"env.hardware_threads\""},
      {[](util::JsonObject& run) { run.at("metrics").as_object().erase("cpu_cores"); },
       "lacks BENCHMARK.json end_to_end metric \"cpu_cores\""},
  };
  const util::JsonValue reference = load_json(kFixtures / "reference.json");
  for (const Case& c : cases) {
    util::JsonValue broken = reference;
    c.apply(broken.as_object().at("runs").as_array().at(0).as_object());
    const std::vector<std::string> problems = validate(broken, spec());
    ASSERT_EQ(problems.size(), 1u) << c.reason << "\n" << joined(problems);
    EXPECT_NE(problems[0].find(c.reason), std::string::npos) << problems[0];
  }
}

TEST(BenchValidate, RatioGateFiresOnlyBeyondTwice) {
  const util::JsonValue reference = load_json(kFixtures / "reference.json");

  const std::vector<std::string> within =
      check_ratios(reference, load_json(kFixtures / "line_within_2x.json"), spec());
  EXPECT_TRUE(within.empty()) << joined(within);

  const std::vector<std::string> tripled =
      check_ratios(reference, load_json(kFixtures / "line_batch_feed_3x.json"), spec());
  ASSERT_EQ(tripled.size(), 1u) << joined(tripled);
  EXPECT_EQ(tripled[0].rfind(
                "tls.extract.batch_ns_per_pkt / tls.extract.feed_ns_per_pkt is 1.5", 0),
            0u)
      << tripled[0];
}

TEST(BenchValidate, RatioGateNeedsAVersionThreeReference) {
  const std::vector<std::string> problems =
      check_ratios(load_json(fs::path(WM_SOURCE_DIR) / "BENCH_pr10.json"),
                   load_json(kFixtures / "line_within_2x.json"), spec());
  ASSERT_EQ(problems.size(), 1u) << joined(problems);
  EXPECT_NE(problems[0].find("not a version 3"), std::string::npos) << problems[0];
}

}  // namespace
}  // namespace wm::bench
