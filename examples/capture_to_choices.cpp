// Operational attack tool: recover viewer choices from pcap files.
//
//   capture_to_choices --calibrate c1.pcap:c1.json[,c2.pcap:c2.json...]
//                      --target victim.pcap [--classifier interval]
//
// Calibration pairs are {trace, ground-truth JSON} data points in the
// dataset's on-disk format (see generate_dataset / DESIGN.md). With
// --demo (default when no flags are given) the tool synthesizes its own
// calibration and target captures first, writes them to a temp
// directory, and then runs purely from the files — demonstrating that
// the pipeline operates on the same artefacts a real eavesdropper
// would have.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "wm/core/pipeline.hpp"
#include "wm/dataset/builder.hpp"
#include "wm/obs/registry.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/cli.hpp"
#include "wm/util/strings.hpp"

using namespace wm;
namespace fs = std::filesystem;

namespace {

core::CalibrationSession load_pair(const std::string& spec) {
  const auto parts = util::split(spec, ':');
  if (parts.size() != 2) {
    throw std::runtime_error("calibration pair must be trace.pcap:truth.json, got " +
                             spec);
  }
  core::CalibrationSession session;
  session.packets = net::read_any_capture(parts[0]);
  session.truth = dataset::read_ground_truth(parts[1]);
  return session;
}

/// Write demo captures and return (calibration spec, target path).
std::pair<std::string, std::string> make_demo(const fs::path& dir) {
  fs::create_directories(dir);
  const story::StoryGraph graph = story::make_bandersnatch();

  std::string calibration_spec;
  for (std::uint64_t s = 0; s < 2; ++s) {
    std::vector<story::Choice> choices;
    for (int i = 0; i < 13; ++i) {
      choices.push_back(i % 2 == 0 ? story::Choice::kNonDefault
                                   : story::Choice::kDefault);
    }
    sim::SessionConfig config;
    config.seed = 7700 + s;
    const auto session = sim::simulate_session(graph, choices, config);

    const fs::path trace = dir / util::format("calib_%llu.pcap",
                                              static_cast<unsigned long long>(s));
    const fs::path truth = dir / util::format("calib_%llu.json",
                                              static_cast<unsigned long long>(s));
    net::write_pcap(trace, session.capture.packets);
    std::ofstream out(truth);
    dataset::Viewer viewer;
    viewer.id = static_cast<std::uint32_t>(s + 1);
    out << dataset::ground_truth_to_json(viewer, session.truth, graph) << '\n';
    if (!calibration_spec.empty()) calibration_spec += ',';
    calibration_spec += trace.string() + ":" + truth.string();
  }

  std::vector<story::Choice> victim_choices{
      story::Choice::kDefault,    story::Choice::kNonDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kNonDefault, story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault};
  sim::SessionConfig config;
  config.seed = 7800;
  const auto victim = sim::simulate_session(graph, victim_choices, config);
  const fs::path target = dir / "victim.pcap";
  net::write_pcap(target, victim.capture.packets);
  std::printf("demo victim's true choices:");
  for (const auto& q : victim.truth.questions) {
    std::printf(" %s", story::choice_notation(q.index, q.choice).c_str());
  }
  std::printf("\n\n");
  return {calibration_spec, target.string()};
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("capture_to_choices",
                      "recover interactive-video choices from pcap captures");
  cli.add_string("calibrate", "comma-separated trace.pcap:truth.json pairs", "");
  cli.add_string("target", "pcap to attack", "");
  cli.add_string("classifier", "interval | knn | gaussian-nb", "interval");
  cli.add_bool("metrics", "print the wm::obs stage report after the attack");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  try {
    std::string calibration_spec = cli.get_string("calibrate");
    std::string target = cli.get_string("target");
    if (calibration_spec.empty() || target.empty()) {
      std::printf("no inputs given: running self-contained demo\n");
      const auto demo = make_demo(fs::temp_directory_path() / "wm_capture_demo");
      calibration_spec = demo.first;
      target = demo.second;
    }

    core::AttackPipeline attack(cli.get_string("classifier"));
    // Observability: with --metrics every stage (calibration, capture
    // source, extraction, observation logs, decode) reports into a
    // registry and the run ends with the stage report. Without it, the
    // null registry costs nothing.
    obs::Registry registry;
    if (cli.get_bool("metrics")) attack.set_metrics(&registry);

    std::vector<core::CalibrationSession> calibration;
    for (const std::string& pair : util::split(calibration_spec, ',')) {
      calibration.push_back(load_pair(pair));
    }
    attack.calibrate(calibration);
    std::printf("calibrated '%s' classifier on %zu session(s)\n",
                cli.get_string("classifier").c_str(), calibration.size());

    // The typed-error path: open/parse failures come back as a
    // wm::Result instead of an exception, so an operational tool can
    // distinguish "file missing" from "not a capture" from "corrupt".
    const auto result = attack.infer_capture(target);
    if (!result.ok()) {
      std::fprintf(stderr, "cannot analyse %s: %s\n", target.c_str(),
                   result.error().to_string().c_str());
      return result.error().code == ErrorCode::kNotFound ? 2 : 3;
    }
    const core::InferredSession& inferred = result->combined;
    std::printf("target: %s\n", target.c_str());
    std::printf("detected %zu questions (%zu type-1, %zu type-2, %zu other "
                "client records)\n\n",
                inferred.questions.size(), inferred.type1_records,
                inferred.type2_records, inferred.other_records);
    for (const auto& q : inferred.questions) {
      std::printf("  Q%zu at %s: %s", q.index, q.question_time.to_string().c_str(),
                  story::choice_notation(q.index, q.choice).c_str());
      if (q.override_time) {
        std::printf("  (override at %s)", q.override_time->to_string().c_str());
      }
      std::printf("\n");
    }

    const story::StoryGraph graph = story::make_bandersnatch();
    const auto path = core::reconstruct_path(graph, inferred.choices());
    std::printf("\nimplied path: %s\n",
                util::join(path.segment_names, " -> ").c_str());

    if (cli.get_bool("metrics")) {
      std::printf("\n%s", registry.snapshot().to_text().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
