// ContinuousMonitor: online emission equivalence against the batch
// decoder, multi-viewer separation, idle eviction and memory shedding,
// feed_batch chunking invariance, and the live-source drivers
// (InjectableTap through a one-shard fleet, TimedReplaySource).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "teardown.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/live_source.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/rng.hpp"

namespace wm::monitor {
namespace {

using core::AttackPipeline;
using core::CalibrationSession;
using story::Choice;

std::vector<Choice> alternating(std::size_t n, bool first_non_default) {
  std::vector<Choice> choices;
  for (std::size_t i = 0; i < n; ++i) {
    const bool non_default = (i % 2 == 0) == first_non_default;
    choices.push_back(non_default ? Choice::kNonDefault : Choice::kDefault);
  }
  return choices;
}

AttackPipeline calibrated_pipeline(const story::StoryGraph& graph) {
  std::vector<CalibrationSession> calibration;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sim::SessionConfig config;
    config.seed = 77000 + s;
    auto session = sim::simulate_session(graph, alternating(13, true), config);
    calibration.push_back(CalibrationSession{
        std::move(session.capture.packets), std::move(session.truth)});
  }
  AttackPipeline pipeline("interval");
  pipeline.calibrate(calibration);
  return pipeline;
}

/// Owning copies of everything the monitor emitted, per viewer.
struct CollectingSink final : engine::EventSink {
  struct Emitted {
    core::InferredQuestion question;
    util::SimTime at;
    bool final = false;
  };
  std::map<std::string, std::vector<Emitted>> choices;
  std::map<std::string, std::size_t> opened;
  std::vector<std::pair<std::string, engine::ViewerEvictedEvent::Reason>>
      evictions;
  std::size_t gaps = 0;

  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    ++opened[std::string(event.client)];
  }
  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    choices[std::string(event.client)].push_back(
        Emitted{event.question, event.at, event.final});
  }
  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    evictions.emplace_back(std::string(event.client), event.reason);
  }
  void on_gap_observed(const engine::GapObservedEvent&) override { ++gaps; }
};

MonitorConfig test_config() {
  MonitorConfig config;
  // The sim's choice window is a 10s UI constant; overrides land inside
  // it, so the evidence window must exceed it for online == batch.
  config.evidence_window = util::Duration::seconds(12);
  return config;
}

TEST(Monitor, OnlineEmissionsMatchBatchDecode) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline attack = calibrated_pipeline(graph);

  sim::SessionConfig config;
  config.seed = 77100;
  const auto victim = sim::simulate_session(graph, alternating(13, false), config);

  // Batch reference on the identical packets.
  engine::VectorSource batch_source(&victim.capture.packets);
  const core::InferredSession batch = attack.infer(batch_source).combined;
  ASSERT_FALSE(batch.questions.empty());

  CollectingSink sink;
  ContinuousMonitor monitor(attack.classifier(), test_config(), &sink);
  engine::VectorSource live_source(&victim.capture.packets);
  monitor.consume(live_source);
  const MonitorStats stats = monitor.finish();

  ASSERT_EQ(sink.choices.size(), 1u);
  const auto& emitted = sink.choices.begin()->second;
  ASSERT_EQ(emitted.size(), batch.questions.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].question.choice, batch.questions[i].choice) << i;
    EXPECT_EQ(emitted[i].question.question_time.nanos(),
              batch.questions[i].question_time.nanos()) << i;
    EXPECT_NEAR(emitted[i].question.confidence, batch.questions[i].confidence,
                1e-12) << i;
    EXPECT_TRUE(emitted[i].final) << i;
    // Answers are emitted no later than the evidence window closes.
    EXPECT_LE((emitted[i].at - emitted[i].question.question_time).total_nanos(),
              util::Duration::seconds(12).total_nanos()) << i;
  }
  EXPECT_EQ(stats.choices_inferred, batch.questions.size());
  EXPECT_EQ(stats.questions_opened, sink.opened.begin()->second);
  EXPECT_EQ(stats.viewers_opened, 1u);
  // finish() flushed the viewer.
  ASSERT_EQ(sink.evictions.size(), 1u);
  EXPECT_EQ(sink.evictions[0].second,
            engine::ViewerEvictedEvent::Reason::kShutdown);
  EXPECT_EQ(monitor.active_viewers(), 0u);
}

TEST(Monitor, TwoViewersDecodeIndependently) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline attack = calibrated_pipeline(graph);

  sim::SessionConfig config_a;
  config_a.seed = 77200;
  auto a = sim::simulate_session(graph, alternating(13, false), config_a);
  sim::SessionConfig config_b;
  config_b.seed = 77201;
  config_b.packetize.client_ip = net::Ipv4Address(10, 0, 0, 99);
  config_b.packetize.cdn_client_port = 52000;
  config_b.packetize.api_client_port = 52001;
  auto b = sim::simulate_session(graph, alternating(13, true), config_b);

  std::vector<net::Packet> merged;
  for (auto& packet : a.capture.packets) merged.push_back(std::move(packet));
  for (auto& packet : b.capture.packets) {
    packet.timestamp += util::Duration::millis(1700);  // interleave
    merged.push_back(std::move(packet));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const net::Packet& x, const net::Packet& y) {
                     return x.timestamp < y.timestamp;
                   });

  // Batch per-client reference.
  engine::VectorSource batch_source(&merged);
  core::InferOptions options;
  options.per_client = true;
  const auto batch = attack.infer(batch_source, options);
  ASSERT_EQ(batch.per_client.size(), 2u);

  CollectingSink sink;
  ContinuousMonitor monitor(attack.classifier(), test_config(), &sink);
  engine::VectorSource live_source(&merged);
  monitor.consume(live_source);
  monitor.finish();

  ASSERT_EQ(sink.choices.size(), 2u);
  for (const auto& [client, reference] : batch.per_client) {
    ASSERT_TRUE(sink.choices.count(client)) << client;
    const auto& emitted = sink.choices.at(client);
    ASSERT_EQ(emitted.size(), reference.questions.size()) << client;
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_EQ(emitted[i].question.choice, reference.questions[i].choice)
          << client << " Q" << i;
    }
  }
}

TEST(Monitor, IdleViewersAgeOutThroughTheWheel) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline attack = calibrated_pipeline(graph);

  sim::SessionConfig config;
  config.seed = 77300;
  const auto victim = sim::simulate_session(graph, alternating(13, false), config);

  MonitorConfig monitor_config = test_config();
  monitor_config.viewer_idle_timeout = util::Duration::seconds(30);
  CollectingSink sink;
  ContinuousMonitor monitor(attack.classifier(), monitor_config, &sink);
  engine::VectorSource source(&victim.capture.packets);
  monitor.consume(source);
  EXPECT_EQ(monitor.active_viewers(), 1u);

  // A quiet heartbeat far past the idle horizon: the viewer must leave
  // without any packet arriving.
  monitor.advance_to(victim.capture.packets.back().timestamp +
                     util::Duration::seconds(120));
  EXPECT_EQ(monitor.active_viewers(), 0u);
  ASSERT_EQ(sink.evictions.size(), 1u);
  EXPECT_EQ(sink.evictions[0].second,
            engine::ViewerEvictedEvent::Reason::kIdle);
  const MonitorStats stats = monitor.finish();
  EXPECT_EQ(stats.viewers_evicted_idle, 1u);
  EXPECT_EQ(stats.viewers_shed, 0u);
}

TEST(Monitor, MemoryCeilingShedsOldestIdleViewer) {
  // A fleet through a deliberately starved byte budget: the monitor
  // must shed oldest-idle viewers (emitting kMemoryShed) instead of
  // growing, and every shed viewer's open question still gets settled.
  WorkloadConfig workload;
  workload.sessions = 24;
  workload.concurrency = 6;
  workload.questions_per_session = 2;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));

  MonitorConfig config = test_config();
  config.viewer_idle_timeout = util::Duration{};  // isolate shedding
  // Just above the empty-monitor floor (the wheel's slot array): room
  // for a handful of viewers at most.
  ContinuousMonitor probe(classifier, config);
  const std::size_t floor_bytes = probe.memory_bytes();
  config.max_total_bytes = floor_bytes + 4096;

  CollectingSink sink;
  ContinuousMonitor monitor(classifier, config, &sink);
  SyntheticFleetSource fleet(workload);
  monitor.consume(fleet);
  const MonitorStats stats = monitor.finish();

  // A shed viewer whose session keeps sending reopens as a fresh
  // viewer, so opened >= sessions under a starved budget.
  EXPECT_GE(stats.viewers_opened, workload.sessions);
  EXPECT_GT(stats.viewers_shed, 0u);
  // The peak may transiently exceed the budget by the viewer being
  // admitted (shedding runs right after), never by more.
  EXPECT_LE(stats.peak_memory_bytes, config.max_total_bytes + 8192);
  std::size_t shed_events = 0;
  for (const auto& [client, reason] : sink.evictions) {
    if (reason == engine::ViewerEvictedEvent::Reason::kMemoryShed) {
      ++shed_events;
    }
  }
  EXPECT_EQ(shed_events, stats.viewers_shed);
}

TEST(Monitor, FirstGapBringsTheGapRingIntoTheBudget) {
  // One session whose next-to-last client upload is snaplen-truncated:
  // the cut tail surfaces as a gap when the last upload arrives. The
  // viewer's gap ring is allocated then, and the budget's accounting
  // grows by it.
  WorkloadConfig workload;
  workload.sessions = 1;
  workload.concurrency = 1;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  SyntheticFleetSource source(workload);
  std::vector<net::Packet> packets;
  while (auto packet = source.next()) packets.push_back(std::move(*packet));
  std::vector<std::size_t> uploads;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto decoded = net::decode_packet(packets[i]);
    if (decoded && decoded->has_tcp() && decoded->tcp().destination_port == 443 &&
        !decoded->transport_payload.empty()) {
      uploads.push_back(i);
    }
  }
  ASSERT_GE(uploads.size(), 2u);
  net::Packet& cut = packets[uploads[uploads.size() - 2]];
  cut.data.resize(cut.data.size() - 40);

  const MonitorConfig config = test_config();
  ContinuousMonitor monitor(classifier, config);
  std::size_t ring_grew = 0;
  for (const net::Packet& packet : packets) {
    const std::size_t before = monitor.memory_bytes();
    const std::uint64_t gaps_before = monitor.stats().gaps_observed;
    monitor.feed(packet);
    if (monitor.stats().gaps_observed != gaps_before) {
      EXPECT_EQ(monitor.memory_bytes() - before,
                config.max_viewer_gaps * sizeof(core::GapSpan));
      ++ring_grew;
    }
  }
  EXPECT_EQ(ring_grew, 1u);
  EXPECT_EQ(monitor.finish().gaps_observed, 1u);
}

/// Every callback as one line, in delivery order, with exact values
/// (confidence by its bit pattern): two runs agree iff their event
/// streams are identical.
struct TranscriptSink final : engine::EventSink {
  std::vector<std::string> lines;

  static std::uint64_t bits(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  }
  static std::string question_line(const core::InferredQuestion& q) {
    std::ostringstream out;
    out << q.question_time.nanos() << ' ' << static_cast<int>(q.choice) << ' '
        << bits(q.confidence);
    return out.str();
  }
  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    lines.push_back("open " + std::string(event.client) + ' ' +
                    question_line(event.question) + ' ' +
                    std::to_string(event.record_length));
  }
  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    lines.push_back("choice " + std::string(event.client) + ' ' +
                    question_line(event.question) + ' ' +
                    std::to_string(event.record_length) + ' ' +
                    std::to_string(event.at.nanos()) + ' ' +
                    std::to_string(event.final));
  }
  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    lines.push_back("evict " + std::string(event.client) + ' ' +
                    std::to_string(static_cast<int>(event.reason)) + ' ' +
                    std::to_string(event.at.nanos()) + ' ' +
                    std::to_string(event.questions_emitted));
  }
  void on_gap_observed(const engine::GapObservedEvent& event) override {
    lines.push_back("gap " + std::string(event.client) + ' ' +
                    std::to_string(event.gap.at.nanos()) + ' ' +
                    std::to_string(event.gap.bytes));
  }
};

/// Per-packet feed() against feed_batch() in seeded random chunks of
/// 1–600 packets (so chunks straddle the 256-packet slab boundary):
/// timers must fire between the packets of a chunk exactly as between
/// lone packets, so the transcripts and the stats are identical.
void expect_chunking_invariant(const std::vector<net::Packet>& packets,
                               const core::RecordClassifier& classifier,
                               std::uint64_t seed, bool impaired) {
  MonitorConfig config;
  // Short enough that evidence windows, idle evictions and flow sweeps
  // all come due while a chunk is being fed.
  config.evidence_window = util::Duration::seconds(5);
  config.viewer_idle_timeout = util::Duration::seconds(10);
  config.flow_idle_timeout = util::Duration::seconds(8);

  TranscriptSink single_sink;
  ContinuousMonitor single(classifier, config, &single_sink);
  for (const net::Packet& packet : packets) single.feed(packet);
  const MonitorStats single_stats = single.finish();
  ASSERT_GT(single_stats.choices_inferred, 0u);
  ASSERT_GT(single_stats.viewers_evicted_idle, 0u);
  ASSERT_GT(single_stats.flows_swept, 0u);
  ASSERT_GT(single_stats.flows_closed, 0u);
  if (impaired) {
    ASSERT_GT(single_stats.gaps_observed, 0u);
  }

  TranscriptSink chunked_sink;
  ContinuousMonitor chunked(classifier, config, &chunked_sink);
  util::Rng rng(seed);
  std::size_t offset = 0;
  std::size_t longest = 0;
  while (offset < packets.size()) {
    const auto want = static_cast<std::size_t>(rng.uniform_int(1, 600));
    const std::size_t n = std::min(want, packets.size() - offset);
    chunked.feed_batch(packets.data() + offset, n);
    offset += n;
    longest = std::max(longest, n);
  }
  const MonitorStats chunked_stats = chunked.finish();
  ASSERT_GT(longest, net::DecodedSlab::kCapacity);

  EXPECT_EQ(chunked_stats.to_string(), single_stats.to_string());
  ASSERT_EQ(chunked_sink.lines.size(), single_sink.lines.size());
  for (std::size_t i = 0; i < single_sink.lines.size(); ++i) {
    ASSERT_EQ(chunked_sink.lines[i], single_sink.lines[i]) << "event " << i;
  }
}

TEST(Monitor, FeedBatchChunkingMatchesPerPacketFeed) {
  WorkloadConfig workload;
  workload.sessions = 200;
  workload.concurrency = 16;
  workload.questions_per_session = 3;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  SyntheticFleetSource source(workload);
  std::vector<net::Packet> packets;
  while (auto packet = source.next()) packets.push_back(std::move(*packet));
  // Half the flows lose their FIN segments, so the flow sweep has work
  // beside the flows that retire at close.
  packets = test::strip_teardown(packets, 2);

  expect_chunking_invariant(packets, classifier, 4401, /*impaired=*/false);

  util::Rng rng(4402);
  const std::vector<net::Packet> dropped = sim::drop_packets(packets, 0.01, rng);
  const std::vector<net::Packet> impaired =
      sim::jitter_order(dropped, 0.005, rng);
  ASSERT_LT(impaired.size(), packets.size());
  expect_chunking_invariant(impaired, classifier, 4403, /*impaired=*/true);
}

TEST(Monitor, InjectableTapRoundTripsThroughMonitor) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const AttackPipeline attack = calibrated_pipeline(graph);
  sim::SessionConfig config;
  config.seed = 77400;
  const auto victim = sim::simulate_session(graph, alternating(13, true), config);

  // A single monitor with a live tap is a one-shard fleet: producer ->
  // one SPSC ring -> one worker.
  CollectingSink sink;
  FleetConfig fleet_config;
  fleet_config.monitor = test_config();
  MonitorFleet fleet(attack.classifier(), fleet_config, &sink);
  InjectableTap tap;
  fleet.attach(tap);
  for (const net::Packet& packet : victim.capture.packets) {
    ASSERT_TRUE(tap.inject(packet));
  }
  tap.close();
  EXPECT_EQ(fleet.finish().packets, victim.capture.packets.size());

  engine::VectorSource batch_source(&victim.capture.packets);
  const core::InferredSession batch = attack.infer(batch_source).combined;
  ASSERT_EQ(sink.choices.size(), 1u);
  EXPECT_EQ(sink.choices.begin()->second.size(), batch.questions.size());
}

TEST(Monitor, TimedReplayPreservesOrderAndPaces) {
  WorkloadConfig workload;
  workload.sessions = 2;
  workload.concurrency = 2;
  workload.questions_per_session = 2;
  SyntheticFleetSource fleet(workload);

  // Collect the reference stream (already capture-time ordered).
  std::vector<net::Packet> reference;
  engine::PacketBatch batch;
  while (fleet.read_batch(batch, 64) != 0) {
    for (const net::Packet& packet : batch) reference.push_back(packet);
  }
  ASSERT_GT(reference.size(), 8u);
  const std::int64_t span_nanos = reference.back().timestamp.nanos() -
                                  reference.front().timestamp.nanos();

  // Replay the same workload at a very high speed: order preserved,
  // everything delivered, and wall time roughly span/speed.
  SyntheticFleetSource again(workload);
  TimedReplaySource::Config replay_config;
  replay_config.speed = 4000.0;
  TimedReplaySource replay(again, replay_config);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<net::Packet> replayed;
  while (replay.read_batch(batch, 64) != 0) {
    for (const net::Packet& packet : batch) replayed.push_back(packet);
  }
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;

  ASSERT_EQ(replayed.size(), reference.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].timestamp.nanos(), reference[i].timestamp.nanos())
        << i;
  }
  EXPECT_EQ(replay.replay_position().nanos(),
            reference.back().timestamp.nanos());
  // Pacing actually slept: at 4000x a multi-second capture takes at
  // least span/4000 of wall time (scheduling slack keeps this loose).
  EXPECT_GE(std::chrono::duration_cast<std::chrono::nanoseconds>(wall_elapsed)
                .count(),
            span_nanos / 4000 / 2);
}

TEST(Monitor, UnpacedReplayIsPassthrough) {
  WorkloadConfig workload;
  workload.sessions = 1;
  workload.concurrency = 1;
  SyntheticFleetSource fleet(workload);
  TimedReplaySource::Config config;
  config.speed = 0.0;  // unpaced
  TimedReplaySource replay(fleet, config);

  std::size_t total = 0;
  engine::PacketBatch batch;
  while (replay.read_batch(batch, 64) != 0) total += batch.size();
  EXPECT_GT(total, 0u);
  EXPECT_GT(replay.replay_position().nanos(), 0);
  EXPECT_FALSE(replay.error().has_value());
}

}  // namespace
}  // namespace wm::monitor
