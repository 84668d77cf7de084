// wm_monitor — long-running continuous-monitor service.
//
// Runs wm::monitor::ContinuousMonitor over one of two traffic sources
// and streams inferred events to stdout as they happen:
//
//   * capture mode (--capture file.pcap): replay a recorded capture,
//     optionally paced by its original timestamps (--speed 1 replays
//     in real time, --speed 10 compresses 10:1, --speed 0 runs as
//     fast as the file reads). The classifier is calibrated from
//     simulated Bandersnatch sessions, matching captures produced by
//     wm's simulator/generate_dataset.
//
//   * fleet mode (--fleet N): generate a synthetic monitoring fleet of
//     N sessions (--concurrency K in flight at once) and monitor it —
//     the soak workload, available from the command line. Calibration
//     comes from the workload generator itself.
//
// Memory stays bounded: pass --max-mb to cap viewer decode state; the
// monitor sheds oldest-idle viewers instead of growing. --stats-every
// prints a periodic one-line status so a long run is observable.
//
// --threads N (default 1) shards the monitor across N worker threads
// (wm::monitor::MonitorFleet): traffic is partitioned by viewer, each
// shard owns a private monitor, and --max-mb becomes the fleet-wide
// budget. Per-viewer event order is unchanged; cross-viewer order is
// per-shard (see fleet.hpp for the ordering contract).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/engine/events.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/live_source.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/cli.hpp"

using namespace wm;

namespace {

/// Emits one line per monitor event; --quiet reduces it to evictions.
/// Thread-safe as the fleet requires: the only state is the const
/// `quiet_` flag, and stdio makes each printf call atomic.
class LineSink final : public engine::EventSink {
 public:
  explicit LineSink(bool quiet) : quiet_(quiet) {}

  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    if (quiet_) return;
    std::printf("%s question client=%s q=%zu record=%u\n",
                event.question.question_time.to_string().c_str(),
                std::string(event.client).c_str(), event.question.index,
                event.record_length);
  }
  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    if (quiet_ || !event.final) return;
    std::printf("%s choice   client=%s q=%zu branch=%s confidence=%.2f\n",
                event.at.to_string().c_str(),
                std::string(event.client).c_str(), event.question.index,
                event.question.choice == story::Choice::kNonDefault
                    ? "non-default"
                    : "default",
                event.question.confidence);
  }
  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    if (quiet_ && event.reason == engine::ViewerEvictedEvent::Reason::kShutdown) {
      return;
    }
    const char* reason = "shutdown";
    if (event.reason == engine::ViewerEvictedEvent::Reason::kIdle) {
      reason = "idle";
    } else if (event.reason ==
               engine::ViewerEvictedEvent::Reason::kMemoryShed) {
      reason = "memory-shed";
    }
    std::printf("%s evicted  client=%s reason=%s questions=%zu\n",
                event.at.to_string().c_str(),
                std::string(event.client).c_str(), reason,
                event.questions_emitted);
  }
  void on_gap_observed(const engine::GapObservedEvent& event) override {
    if (quiet_) return;
    std::printf("%s gap      client=%s\n",
                event.gap.at.to_string().c_str(),
                std::string(event.client).c_str());
  }

 private:
  const bool quiet_;
};

/// Classifier for capture mode: fit on simulated calibration sessions,
/// the same procedure the examples use against simulator captures.
std::unique_ptr<core::AttackPipeline> simulated_calibration() {
  const story::StoryGraph graph = story::make_bandersnatch();
  std::vector<story::Choice> choices;
  for (int i = 0; i < 13; ++i) {
    choices.push_back(i % 2 == 0 ? story::Choice::kNonDefault
                                 : story::Choice::kDefault);
  }
  std::vector<core::CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sim::SessionConfig config;
    config.seed = 4242 + s;
    auto session = sim::simulate_session(graph, choices, config);
    calibration.push_back(core::CalibrationSession{
        std::move(session.capture.packets), std::move(session.truth)});
  }
  auto attack = std::make_unique<core::AttackPipeline>("interval");
  attack->calibrate(calibration);
  return attack;
}

int run_monitor(monitor::ContinuousMonitor& monitor,
                engine::PacketSource& source, std::size_t stats_every) {
  engine::PacketBatch batch;
  std::uint64_t fed = 0;
  std::uint64_t next_report = stats_every;
  for (;;) {
    const std::size_t count = source.read_batch(batch, 256);
    if (count == 0) break;
    monitor.feed_batch(batch.begin(), count);
    fed += count;
    if (stats_every != 0 && fed >= next_report) {
      next_report += stats_every;
      std::fprintf(stderr,
                   "status packets=%llu viewers=%zu mem=%zuB shed=%llu\n",
                   static_cast<unsigned long long>(fed),
                   monitor.active_viewers(), monitor.memory_bytes(),
                   static_cast<unsigned long long>(monitor.stats().viewers_shed));
    }
  }
  const monitor::MonitorStats stats = monitor.finish();
  std::printf("%s\n", stats.to_string().c_str());
  if (source.error().has_value()) {
    std::fprintf(stderr, "source error: %s\n",
                 source.error()->message.c_str());
    return 1;
  }
  return 0;
}

/// Forwarding source that prints the periodic status line from the
/// pumping thread (the fleet's gauges are safe to read concurrently).
class StatusSource final : public engine::PacketSource {
 public:
  StatusSource(engine::PacketSource& inner, monitor::MonitorFleet& fleet,
               std::size_t stats_every)
      : inner_(inner), fleet_(fleet), stats_every_(stats_every) {}

  std::optional<net::Packet> next() override {
    auto packet = inner_.next();
    if (packet) tick(1);
    return packet;
  }
  std::size_t read_batch(engine::PacketBatch& out, std::size_t max) override {
    const std::size_t got = inner_.read_batch(out, max);
    tick(got);
    return got;
  }

 private:
  void tick(std::size_t count) {
    fed_ += count;
    if (stats_every_ == 0 || fed_ < next_report_) return;
    next_report_ += stats_every_;
    std::fprintf(stderr, "status packets=%llu viewers=%zu mem=%zuB\n",
                 static_cast<unsigned long long>(fed_),
                 fleet_.active_viewers(), fleet_.memory_bytes());
  }

  engine::PacketSource& inner_;
  monitor::MonitorFleet& fleet_;
  const std::size_t stats_every_;
  std::uint64_t fed_ = 0;
  std::uint64_t next_report_ = stats_every_;
};

int run_fleet_monitor(monitor::MonitorFleet& fleet,
                      engine::PacketSource& source, std::size_t stats_every) {
  StatusSource wrapped(source, fleet, stats_every);
  fleet.consume(wrapped);
  const monitor::FleetStats stats = fleet.finish();
  std::printf("%s\n", stats.to_string().c_str());
  if (source.error().has_value()) {
    std::fprintf(stderr, "source error: %s\n",
                 source.error()->message.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("wm_monitor", "continuous traffic-analysis monitor");
  cli.add_string("capture", "pcap/pcapng file to monitor", std::string());
  cli.add_double("speed", "replay pacing (1 = real time, 0 = unpaced)", 0.0);
  cli.add_int("fleet", "synthetic fleet mode: total sessions", 0);
  cli.add_int("concurrency", "fleet sessions in flight at once", 64);
  cli.add_int("questions", "fleet questions per session", 4);
  cli.add_int("max-mb", "viewer-state budget in MiB (0 = unlimited)", 0);
  cli.add_int("idle-sec", "viewer idle eviction timeout, seconds", 120);
  cli.add_int("window-sec", "evidence window, seconds", 10);
  cli.add_int("stats-every", "status line to stderr every N packets", 0);
  cli.add_int("threads", "monitor shards (>1 = sharded MonitorFleet)", 1);
  cli.add_bool("quiet", "suppress per-event output (evictions still print)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  monitor::MonitorConfig config;
  config.evidence_window =
      util::Duration::seconds(cli.get_int("window-sec"));
  config.viewer_idle_timeout =
      util::Duration::seconds(cli.get_int("idle-sec"));
  config.flow_idle_timeout = config.viewer_idle_timeout;
  config.max_total_bytes =
      static_cast<std::size_t>(cli.get_int("max-mb")) * 1024 * 1024;

  LineSink sink(cli.get_bool("quiet"));
  const std::size_t stats_every =
      static_cast<std::size_t>(cli.get_int("stats-every"));
  const std::size_t fleet = static_cast<std::size_t>(cli.get_int("fleet"));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads") < 1
                                   ? 1
                                   : cli.get_int("threads"));

  monitor::FleetConfig fleet_config;
  fleet_config.shards = threads;
  fleet_config.monitor = config;

  try {
    if (fleet != 0) {
      monitor::WorkloadConfig workload;
      workload.sessions = fleet;
      workload.concurrency =
          static_cast<std::size_t>(cli.get_int("concurrency"));
      workload.questions_per_session =
          static_cast<std::size_t>(cli.get_int("questions"));
      core::IntervalClassifier classifier;
      classifier.fit(monitor::workload_calibration(workload));
      monitor::SyntheticFleetSource source(workload);
      std::fprintf(stderr, "fleet: %zu sessions, %zu packets, %zu threads\n",
                   workload.sessions, source.packets_total(), threads);
      if (threads > 1) {
        monitor::MonitorFleet mon(classifier, fleet_config, &sink);
        return run_fleet_monitor(mon, source, stats_every);
      }
      monitor::ContinuousMonitor mon(classifier, config, &sink);
      return run_monitor(mon, source, stats_every);
    }

    const std::string capture = cli.get_string("capture");
    if (capture.empty()) {
      std::fprintf(stderr, "pass --capture <file> or --fleet <n>\n%s",
                   cli.usage().c_str());
      return 1;
    }
    auto attack = simulated_calibration();
    auto opened = engine::open_capture(capture);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", capture.c_str(),
                   opened.error().message.c_str());
      return 1;
    }
    const double speed = cli.get_double("speed");
    monitor::TimedReplaySource::Config pace;
    pace.speed = speed;
    std::unique_ptr<monitor::TimedReplaySource> paced;
    engine::PacketSource* source = opened.value().get();
    if (speed > 0.0) {
      paced = std::make_unique<monitor::TimedReplaySource>(*opened.value(),
                                                           pace);
      source = paced.get();
    }
    if (threads > 1) {
      monitor::MonitorFleet mon(attack->classifier(), fleet_config, &sink);
      return run_fleet_monitor(mon, *source, stats_every);
    }
    monitor::ContinuousMonitor mon(attack->classifier(), config, &sink);
    return run_monitor(mon, *source, stats_every);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wm_monitor: %s\n", e.what());
    return 1;
  }
}
