// Online eavesdropper: drives a merged two-viewer capture through the
// continuous monitor, which emits each viewer's inferred choice the
// moment its evidence window closes — no end-of-capture barrier — and
// then cross-checks the online answers against a batch decode of the
// same packets.
//
// This is the service-shaped version of the attack: wm::monitor keeps
// O(1) state per live viewer, ages idle viewers out through a timer
// wheel, and delivers typed events (question opened, choice inferred,
// viewer evicted) through engine::EventSink as they happen.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "wm/core/pipeline.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/cli.hpp"

using namespace wm;

namespace {

/// Prints every monitor event as it fires (single-threaded delivery —
/// no locking needed, unlike a MonitorFleet sink).
class PrintSink final : public engine::EventSink {
 public:
  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    std::printf("[%s] %s: Q%zu appeared (record %u B) — assuming DEFAULT "
                "until overridden\n",
                event.question.question_time.to_string().c_str(),
                std::string(event.client).c_str(), event.question.index + 1,
                event.record_length);
  }
  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    if (!event.final) return;
    const bool overridden =
        event.question.choice == story::Choice::kNonDefault;
    std::printf("[%s] %s: Q%zu FINAL: %s (confidence %.2f)\n",
                event.at.to_string().c_str(),
                std::string(event.client).c_str(), event.question.index + 1,
                overridden ? "NON-DEFAULT branch" : "default branch",
                event.question.confidence);
    if (overridden) ++overrides_;
  }
  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    std::printf("[%s] %s: viewer retired (%zu questions)\n",
                event.at.to_string().c_str(),
                std::string(event.client).c_str(), event.questions_emitted);
  }

  [[nodiscard]] std::size_t overrides() const { return overrides_; }

 private:
  std::size_t overrides_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("live_monitor", "online multi-viewer choice inference demo");
  cli.add_int("seed", "first victim session seed", 99);
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const story::StoryGraph graph = story::make_bandersnatch();

  // Calibrate offline once.
  std::vector<story::Choice> calib_choices;
  for (int i = 0; i < 13; ++i) {
    calib_choices.push_back(i % 2 == 0 ? story::Choice::kNonDefault
                                       : story::Choice::kDefault);
  }
  std::vector<core::CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sim::SessionConfig calib_config;
    calib_config.seed = 4242 + s;
    auto calib = sim::simulate_session(graph, calib_choices, calib_config);
    calibration.push_back(core::CalibrationSession{
        std::move(calib.capture.packets), std::move(calib.truth)});
  }
  core::AttackPipeline attack("interval");
  attack.calibrate(calibration);

  // Two victims behind the same tap, starts offset by a couple seconds.
  std::vector<story::Choice> victim_choices{
      story::Choice::kDefault,    story::Choice::kNonDefault,
      story::Choice::kNonDefault, story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kNonDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault,    story::Choice::kDefault,
      story::Choice::kDefault};

  std::vector<net::Packet> merged;
  std::map<std::string, sim::SessionGroundTruth> truths;
  for (int v = 0; v < 2; ++v) {
    sim::SessionConfig config;
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed")) +
                  static_cast<std::uint64_t>(v);
    if (v == 1) {
      config.packetize.client_ip = net::Ipv4Address(10, 0, 0, 77);
      config.packetize.cdn_client_port = 53342;
      config.packetize.api_client_port = 53343;
      std::reverse(victim_choices.begin(), victim_choices.end());
    }
    auto victim = sim::simulate_session(graph, victim_choices, config);
    truths.emplace(victim.capture.client_ip.to_string(), victim.truth);
    for (net::Packet& packet : victim.capture.packets) {
      packet.timestamp += util::Duration::millis(2300) * v;
      merged.push_back(std::move(packet));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });

  std::printf("monitoring %zu packets from %zu viewers...\n\n", merged.size(),
              truths.size());

  PrintSink sink;
  monitor::MonitorConfig config;
  config.viewer_idle_timeout = util::Duration::seconds(30);
  config.flow_idle_timeout = util::Duration::seconds(20);
  monitor::ContinuousMonitor monitor(attack.classifier(), config, &sink);
  engine::VectorSource source(&merged);
  monitor.consume(source);
  const monitor::MonitorStats stats = monitor.finish();

  std::printf("\nmonitoring over: %s\n", stats.to_string().c_str());

  // Cross-check: the batch pipeline over the same packets must agree
  // with what the monitor emitted online.
  core::InferOptions options;
  options.per_client = true;
  engine::VectorSource batch_source(&merged);
  const core::InferReport report = attack.infer(batch_source, options);
  for (const auto& [client, session] : report.per_client) {
    std::printf("\nviewer %s batch-decoded %zu questions:", client.c_str(),
                session.questions.size());
    for (const auto& q : session.questions) {
      std::printf(" %s", story::choice_notation(q.index, q.choice).c_str());
    }
    std::printf("\n  ground truth was:                 ");
    for (const auto& q : truths.at(client).questions) {
      std::printf(" %s", story::choice_notation(q.index, q.choice).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
