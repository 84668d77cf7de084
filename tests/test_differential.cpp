// Differential suite: across seeds × capture impairments, the engine's
// two read paths — stable views borrowed from the source, and owned
// packets copied out of it — must decode identically, and the wm::obs
// *stable* counter snapshot must be byte-identical too. The stable
// section is the contract: it holds only per-flow/per-record
// quantities, so however the bytes reach the extractor, the same
// impaired capture must export the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/engine/source.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/impairments.hpp"
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
    config.seed = 7400 + s;
    auto session = sim::simulate_session(graph, alternating(13, true), config);
    calibration.push_back(CalibrationSession{std::move(session.capture.packets),
                                             std::move(session.truth)});
  }
  AttackPipeline pipeline("interval");
  pipeline.calibrate(calibration);
  return pipeline;
}

std::vector<net::Packet> merged_capture(const story::StoryGraph& graph,
                                        std::size_t viewers,
                                        std::uint64_t seed) {
  std::vector<net::Packet> merged;
  for (std::size_t v = 0; v < viewers; ++v) {
    sim::SessionConfig config;
    config.seed = seed + v;
    config.packetize.client_ip =
        net::Ipv4Address(10, 0, 2, static_cast<std::uint8_t>(10 + v));
    config.packetize.cdn_client_port = static_cast<std::uint16_t>(53000 + 2 * v);
    config.packetize.api_client_port = static_cast<std::uint16_t>(53001 + 2 * v);
    auto session =
        sim::simulate_session(graph, alternating(13, v % 2 == 0), config);
    const util::Duration stagger =
        util::Duration::millis(1500) * static_cast<int>(v);
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

/// Serves a packet vector through next() alone, so the engine takes its
/// owned-packet read_batch() path instead of borrowing stable views.
class CopyingSource final : public engine::PacketSource {
 public:
  explicit CopyingSource(const std::vector<net::Packet>& packets)
      : packets_(packets) {}
  std::optional<net::Packet> next() override {
    if (index_ == packets_.size()) return std::nullopt;
    return packets_[index_++];
  }

 private:
  const std::vector<net::Packet>& packets_;
  std::size_t index_ = 0;
};

struct Scenario {
  std::string name;
  std::vector<net::Packet> packets;
};

/// The capture as an ideal tap saw it, plus five degraded variants:
/// random frame loss, snaplen truncation, timestamp jitter, and two
/// points of strict un-retransmitted segment loss (bytes the observer
/// never sees by any path, so reassembly must declare gaps and the TLS
/// parser must resynchronize). Impairments are seeded so every run of
/// the suite replays the same damage.
std::vector<Scenario> impaired_variants(const std::vector<net::Packet>& base,
                                        std::uint64_t seed) {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"pristine", base});
  {
    util::Rng rng(seed * 31 + 1);
    scenarios.push_back({"drop2pct", sim::drop_packets(base, 0.02, rng)});
  }
  scenarios.push_back({"snaplen200", sim::truncate_snaplen(base, 200)});
  {
    util::Rng rng(seed * 31 + 2);
    scenarios.push_back({"jitter2ms", sim::jitter_order(base, 0.002, rng)});
  }
  {
    util::Rng rng(seed * 31 + 3);
    scenarios.push_back({"loss01pct", sim::drop_segments(base, 0.001, rng)});
  }
  {
    util::Rng rng(seed * 31 + 4);
    scenarios.push_back({"loss1pct", sim::drop_segments(base, 0.01, rng)});
  }
  return scenarios;
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
    EXPECT_DOUBLE_EQ(a.questions[i].confidence, b.questions[i].confidence)
        << context << " Q" << i;
    EXPECT_EQ(a.questions[i].evidence, b.questions[i].evidence)
        << context << " Q" << i;
  }
  EXPECT_EQ(a.type1_records, b.type1_records) << context;
  EXPECT_EQ(a.type2_records, b.type2_records) << context;
  EXPECT_EQ(a.other_records, b.other_records) << context;
}

TEST(Differential, EngineReadPathsAgreeAcrossSeedsAndImpairments) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);

  for (const std::uint64_t seed : {std::uint64_t{7501}, std::uint64_t{7520}}) {
    const std::vector<net::Packet> base = merged_capture(graph, 2, seed);
    for (const Scenario& scenario : impaired_variants(base, seed)) {
      const std::string context =
          "seed=" + std::to_string(seed) + " " + scenario.name;
      InferOptions options;
      options.per_client = true;

      // Reference: stable views over the vector (zero-copy reassembly).
      obs::Registry view_registry;
      engine::VectorSource view_source(&scenario.packets);
      options.metrics = &view_registry;
      const InferReport views = pipeline.infer(view_source, options);
      const std::string view_stable = view_registry.snapshot().stable_json();
      ASSERT_FALSE(view_stable.empty());

      obs::Registry registry;
      CopyingSource source(scenario.packets);
      options.metrics = &registry;
      const InferReport report = pipeline.infer(source, options);

      // Identical decode: combined and per-viewer.
      expect_sessions_identical(report.combined, views.combined, context);
      ASSERT_EQ(report.per_client.size(), views.per_client.size()) << context;
      for (const auto& [client, session] : views.per_client) {
        ASSERT_TRUE(report.per_client.count(client)) << context << " " << client;
        expect_sessions_identical(report.per_client.at(client), session,
                                  context + " client " + client);
      }

      // Identical counters: the stable snapshot section is byte-for-byte
      // the view run's, timing excluded by design.
      EXPECT_EQ(registry.snapshot().stable_json(), view_stable) << context;
    }
  }
}

TEST(Differential, UnretransmittedLossDegradesGracefully) {
  // The headline robustness contract: at 1% un-retransmitted segment
  // loss the pipeline must still recover >= 90% of the choice events a
  // pristine tap yields, and any recovered question whose verdict
  // disagrees with the pristine decode must carry reduced confidence
  // with an evidence trail — loss may cost certainty, never silently
  // produce a wrong full-confidence answer.
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);

  const auto decode = [&](const std::vector<net::Packet>& packets) {
    engine::VectorSource source(&packets);
    return pipeline.infer(source).combined;
  };
  // A lossy question corresponds to a pristine one when their detection
  // times are within half the inter-question spacing; the simulator
  // spaces questions seconds apart, so 2s disambiguates safely.
  const util::Duration match_window = util::Duration::seconds(2);

  std::size_t pristine_total = 0;
  std::size_t recovered_total = 0;
  for (const std::uint64_t seed : {std::uint64_t{7501}, std::uint64_t{7520}}) {
    const std::vector<net::Packet> base = merged_capture(graph, 2, seed);
    const InferredSession pristine = decode(base);
    ASSERT_FALSE(pristine.questions.empty()) << "seed=" << seed;
    for (const InferredQuestion& question : pristine.questions) {
      EXPECT_DOUBLE_EQ(question.confidence, 1.0)
          << "seed=" << seed << " pristine Q" << question.index;
      EXPECT_TRUE(question.evidence.empty())
          << "seed=" << seed << " pristine Q" << question.index;
    }

    util::Rng rng(seed * 31 + 4);
    const InferredSession lossy = decode(sim::drop_segments(base, 0.01, rng));
    pristine_total += pristine.questions.size();

    std::vector<bool> claimed(pristine.questions.size(), false);
    for (const InferredQuestion& question : lossy.questions) {
      // Nearest unclaimed pristine question by detection time.
      std::size_t best = pristine.questions.size();
      util::Duration best_distance{};
      for (std::size_t i = 0; i < pristine.questions.size(); ++i) {
        if (claimed[i]) continue;
        const util::Duration delta =
            question.question_time - pristine.questions[i].question_time;
        const util::Duration distance = delta < util::Duration{} ? -delta : delta;
        if (best == pristine.questions.size() || distance < best_distance) {
          best = i;
          best_distance = distance;
        }
      }
      if (best == pristine.questions.size() || best_distance > match_window) {
        // An extra question the pristine decode never saw: it can only
        // be a loss artefact, so it must not pretend to certainty.
        EXPECT_LT(question.confidence, 1.0)
            << "seed=" << seed << " unmatched lossy question at "
            << question.question_time.to_string();
        continue;
      }
      claimed[best] = true;
      ++recovered_total;
      if (question.choice != pristine.questions[best].choice) {
        EXPECT_LT(question.confidence, 1.0)
            << "seed=" << seed << " Q" << question.index
            << " flipped choice at full confidence";
        EXPECT_FALSE(question.evidence.empty())
            << "seed=" << seed << " Q" << question.index;
      }
    }
  }

  ASSERT_GT(pristine_total, 0u);
  const double recovery = static_cast<double>(recovered_total) /
                          static_cast<double>(pristine_total);
  EXPECT_GE(recovery, 0.9) << "recovered " << recovered_total << "/"
                           << pristine_total << " choice events at 1% loss";
}

TEST(Differential, StableSnapshotIsByteStableAcrossRepeatedRuns) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  const std::vector<net::Packet> base = merged_capture(graph, 2, 7560);

  // Same capture, same configuration, two independent runs: stable AND
  // sharded sections must export identical bytes (only the
  // runtime/timing sections may differ between runs).
  std::vector<std::string> deterministic_exports;
  for (int run = 0; run < 2; ++run) {
    obs::Registry registry;
    engine::VectorSource source(&base);
    InferOptions options;
    options.per_client = true;
    options.metrics = &registry;
    (void)pipeline.infer(source, options);
    deterministic_exports.push_back(registry.snapshot().deterministic_json());
  }
  EXPECT_EQ(deterministic_exports[0], deterministic_exports[1]);
}

TEST(Differential, StableSectionCoversEveryStage) {
  // The differential assertion is only as strong as the section it
  // compares: pin the presence of each instrumented stage's rollup so
  // a future rename cannot silently empty the contract.
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline pipeline = calibrated_pipeline(graph);
  const std::vector<net::Packet> base = merged_capture(graph, 2, 7570);

  obs::Registry registry;
  engine::VectorSource source(&base);
  InferOptions options;
  options.per_client = true;
  options.metrics = &registry;
  const InferReport report = pipeline.infer(source, options);
  const obs::Snapshot snap = registry.snapshot();

  for (const char* key :
       {"engine.packets_in", "engine.packets", "engine.records",
        "engine.records.client_app", "engine.flows.opened",
        "engine.collector.client_records", "engine.collector.viewers",
        "pipeline.infer.runs", "pipeline.questions"}) {
    EXPECT_TRUE(snap.stable.count(key)) << "missing stable key " << key;
  }
  EXPECT_EQ(snap.stable.at("engine.packets_in"), base.size());
  EXPECT_EQ(snap.stable.at("engine.collector.viewers"), 2u);
  EXPECT_EQ(snap.stable.at("pipeline.questions"),
            report.combined.questions.size());
  EXPECT_EQ(snap.stable.at("engine.collector.client_records"),
            snap.stable.at("engine.collector.type1") +
                snap.stable.at("engine.collector.type2") +
                snap.stable.at("engine.collector.other"));
}

}  // namespace
}  // namespace wm::core
