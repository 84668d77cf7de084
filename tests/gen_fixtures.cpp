// Golden-corpus generator. Writes the tiny deterministic capture
// fixtures plus their .expected.json companions (expected choice
// sequence, record tallies, and the stable wm::obs counter snapshot)
// into tests/golden/. Committed alongside the corpus so the fixtures
// are reproducible from source:
//
//     ./gen_fixtures [output_dir]     (default: the committed corpus)
//
// Regenerate only when the traffic model or the instrumentation
// deliberately changes; test_golden.cpp fails loudly on any drift.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "golden_common.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/obs/registry.hpp"
#include "wm/util/json.hpp"

#ifndef WM_GOLDEN_DIR
#define WM_GOLDEN_DIR "."
#endif

namespace {

wm::util::JsonValue expected_document(const wm::core::InferReport& report,
                                      const wm::obs::Snapshot& snapshot) {
  using wm::util::JsonArray;
  using wm::util::JsonObject;
  using wm::util::JsonValue;

  JsonArray choices;
  for (const wm::story::Choice choice : report.combined.choices()) {
    choices.emplace_back(choice == wm::story::Choice::kNonDefault
                             ? "non_default"
                             : "default");
  }
  JsonObject stable;
  for (const auto& [name, value] : snapshot.stable) {
    stable.emplace(name, JsonValue(value));
  }
  JsonArray viewers;
  for (const auto& [client, session] : report.per_client) {
    viewers.emplace_back(JsonObject{
        {"client", JsonValue(client)},
        {"questions", JsonValue(static_cast<std::uint64_t>(session.questions.size()))},
    });
  }
  return JsonValue(JsonObject{
      {"choices", JsonValue(std::move(choices))},
      {"other_records", JsonValue(static_cast<std::uint64_t>(report.combined.other_records))},
      {"stable", JsonValue(std::move(stable))},
      {"type1_records", JsonValue(static_cast<std::uint64_t>(report.combined.type1_records))},
      {"type2_records", JsonValue(static_cast<std::uint64_t>(report.combined.type2_records))},
      {"viewers", JsonValue(std::move(viewers))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : WM_GOLDEN_DIR;
  std::filesystem::create_directories(out_dir);

  const wm::core::AttackPipeline pipeline = wm::golden::calibrated_pipeline();

  for (const wm::golden::FixtureSpec& spec : wm::golden::fixture_specs()) {
    const auto packets = wm::golden::fixture_packets(spec.name);
    if (packets.empty()) {
      std::cerr << "unknown fixture " << spec.name << "\n";
      return 1;
    }
    const auto capture_path =
        out_dir / (spec.name + (spec.pcapng ? ".pcapng" : ".pcap"));
    if (spec.pcapng) {
      wm::net::write_pcapng(capture_path, packets);
    } else {
      wm::net::write_pcap(capture_path, packets);
    }

    // Decode exactly as the replay test will: from the file,
    // instrumented.
    wm::obs::Registry registry;
    wm::core::InferOptions options;
    options.per_client = true;
    options.metrics = &registry;
    auto report = pipeline.infer_capture(capture_path, options);
    if (!report.ok()) {
      std::cerr << spec.name << ": " << report.error().to_string() << "\n";
      return 1;
    }

    const auto expected_path = out_dir / (spec.name + ".expected.json");
    std::ofstream out(expected_path);
    out << expected_document(*report, registry.snapshot()).dump(2) << "\n";
    std::cout << spec.name << ": " << packets.size() << " packets, "
              << std::filesystem::file_size(capture_path) << " bytes, "
              << report->combined.questions.size() << " questions\n";
  }
  return 0;
}
