// MonitorFleet: the viewer-sharded monitor against its single-threaded
// reference. The headline property is the differential — for any shard
// count and source count, per-viewer emission streams (choices,
// question times, confidence, evictions) are identical to one
// ContinuousMonitor fed the same capture, clean and under drop/jitter
// impairments. Plus: rollup metric accounting, viewer-hash routing
// invariants, and a tiny-ring stress leg (backpressure +
// shutdown-while-feeding + the abort-without-finish destructor path),
// buffer recycling through
// the return rings under constant backpressure, and taps bound to the
// fleet (routing on the producer's thread, shutdown, ring parks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "wm/core/classifier.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/live_source.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/net/flow.hpp"
#include "wm/net/pcap.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/util/rng.hpp"
#include "wm/util/spsc_ring.hpp"

namespace wm::monitor {
namespace {

/// Thread-safe collecting sink (the fleet delivers from N shard
/// threads). Per-viewer delivery is serial by contract, so one mutex
/// around the containers is all the synchronization needed.
struct FleetSink final : engine::EventSink {
  struct Emitted {
    core::InferredQuestion question;
    std::int64_t at_nanos = 0;
    bool final = false;
  };
  struct Eviction {
    engine::ViewerEvictedEvent::Reason reason{};
    std::int64_t at_nanos = 0;
    std::size_t questions_emitted = 0;
  };

  mutable std::mutex mu;
  std::map<std::string, std::vector<Emitted>> choices;
  std::map<std::string, std::size_t> opened;
  std::map<std::string, std::vector<Eviction>> evictions;
  std::map<std::string, std::size_t> gaps;

  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    const std::lock_guard<std::mutex> lock(mu);
    ++opened[std::string(event.client)];
  }
  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    const std::lock_guard<std::mutex> lock(mu);
    choices[std::string(event.client)].push_back(
        Emitted{event.question, event.at.nanos(), event.final});
  }
  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    const std::lock_guard<std::mutex> lock(mu);
    evictions[std::string(event.client)].push_back(
        Eviction{event.reason, event.at.nanos(), event.questions_emitted});
  }
  void on_gap_observed(const engine::GapObservedEvent& event) override {
    const std::lock_guard<std::mutex> lock(mu);
    ++gaps[std::string(event.client)];
  }
};

WorkloadConfig small_fleet_workload() {
  WorkloadConfig workload;
  workload.sessions = 12;
  workload.concurrency = 4;
  workload.questions_per_session = 3;
  return workload;
}

std::vector<net::Packet> materialize(const WorkloadConfig& workload) {
  SyntheticFleetSource source(workload);
  std::vector<net::Packet> packets;
  packets.reserve(source.packets_total());
  while (auto packet = source.next()) packets.push_back(std::move(*packet));
  return packets;
}

/// Differential monitor tuning: idle timeout short enough that early
/// sessions age out mid-capture, so the comparison covers idle
/// evictions and not just the shutdown flush.
MonitorConfig diff_config() {
  MonitorConfig config;
  config.evidence_window = util::Duration::seconds(5);
  config.viewer_idle_timeout = util::Duration::seconds(10);
  config.flow_idle_timeout = util::Duration::seconds(8);
  return config;
}

/// Split a time-ordered capture into `sources` time-ordered streams,
/// keeping every viewer inside one stream (the shutdown contract the
/// per-viewer ordering guarantee is specified against).
std::vector<std::vector<net::Packet>> split_by_viewer(
    const std::vector<net::Packet>& packets, std::size_t sources) {
  std::vector<std::vector<net::Packet>> parts(sources);
  for (const net::Packet& packet : packets) {
    const auto hash = net::viewer_shard_hash(packet);
    const std::size_t slot = hash ? static_cast<std::size_t>(*hash % sources) : 0;
    parts[slot].push_back(packet);
  }
  return parts;
}

struct ReferenceRun {
  FleetSink sink;
  MonitorStats stats;
};

void run_reference(const core::RecordClassifier& classifier,
                   const std::vector<net::Packet>& packets,
                   ReferenceRun& out) {
  ContinuousMonitor monitor(classifier, diff_config(), &out.sink);
  for (const net::Packet& packet : packets) monitor.feed(packet);
  out.stats = monitor.finish();
}

struct FleetRun {
  FleetSink sink;
  FleetStats stats;
};

void run_fleet(const core::RecordClassifier& classifier,
               const std::vector<net::Packet>& packets, std::size_t shards,
               std::size_t sources, FleetRun& out) {
  FleetConfig config;
  config.shards = shards;
  config.sources = sources;
  // Rings sized past the whole capture and a merge wait no real
  // scheduling hiccup can reach: the run is deterministic (no
  // backpressure parks, no merge deferrals) so the differential is
  // exact, not statistical.
  config.ring_capacity = packets.size() + 1;
  config.merge_wait = util::Duration::seconds(30);
  config.monitor = diff_config();

  MonitorFleet fleet(classifier, config, &out.sink);
  const auto parts = split_by_viewer(packets, sources);
  std::vector<engine::VectorSource> vector_sources;
  vector_sources.reserve(parts.size());
  for (const auto& part : parts) vector_sources.emplace_back(&part);
  for (auto& source : vector_sources) fleet.attach(source);
  out.stats = fleet.finish();
  EXPECT_EQ(out.stats.merge_deferrals, 0u)
      << shards << " shards x " << sources << " sources";
}

void expect_equal_streams(const FleetSink& fleet, const FleetSink& reference,
                          const std::string& label) {
  ASSERT_EQ(fleet.opened, reference.opened) << label;
  ASSERT_EQ(fleet.gaps, reference.gaps) << label;

  std::set<std::string> fleet_clients;
  for (const auto& [client, emitted] : fleet.choices)
    fleet_clients.insert(client), (void)emitted;
  std::set<std::string> reference_clients;
  for (const auto& [client, emitted] : reference.choices)
    reference_clients.insert(client), (void)emitted;
  ASSERT_EQ(fleet_clients, reference_clients) << label;

  for (const auto& [client, expected] : reference.choices) {
    const auto& got = fleet.choices.at(client);
    ASSERT_EQ(got.size(), expected.size()) << label << " client " << client;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].question.choice, expected[i].question.choice)
          << label << " client " << client << " question " << i;
      EXPECT_EQ(got[i].question.question_time.nanos(),
                expected[i].question.question_time.nanos())
          << label << " client " << client << " question " << i;
      EXPECT_NEAR(got[i].question.confidence, expected[i].question.confidence,
                  1e-12)
          << label << " client " << client << " question " << i;
      EXPECT_EQ(got[i].at_nanos, expected[i].at_nanos)
          << label << " client " << client << " question " << i;
      EXPECT_EQ(got[i].final, expected[i].final)
          << label << " client " << client << " question " << i;
    }
  }

  ASSERT_EQ(fleet.evictions.size(), reference.evictions.size()) << label;
  for (const auto& [client, expected] : reference.evictions) {
    const auto it = fleet.evictions.find(client);
    ASSERT_NE(it, fleet.evictions.end()) << label << " client " << client;
    const auto& got = it->second;
    ASSERT_EQ(got.size(), expected.size()) << label << " client " << client;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].reason, expected[i].reason)
          << label << " client " << client << " eviction " << i;
      EXPECT_EQ(got[i].at_nanos, expected[i].at_nanos)
          << label << " client " << client << " eviction " << i;
      EXPECT_EQ(got[i].questions_emitted, expected[i].questions_emitted)
          << label << " client " << client << " eviction " << i;
    }
  }
}

void expect_equal_totals(const FleetStats& fleet, const MonitorStats& reference,
                         const std::string& label) {
  EXPECT_EQ(fleet.totals.packets, reference.packets) << label;
  EXPECT_EQ(fleet.totals.viewers_opened, reference.viewers_opened) << label;
  EXPECT_EQ(fleet.totals.viewers_evicted_idle, reference.viewers_evicted_idle)
      << label;
  EXPECT_EQ(fleet.totals.viewers_shed, reference.viewers_shed) << label;
  EXPECT_EQ(fleet.totals.questions_opened, reference.questions_opened) << label;
  EXPECT_EQ(fleet.totals.choices_inferred, reference.choices_inferred) << label;
  EXPECT_EQ(fleet.totals.overrides, reference.overrides) << label;
  EXPECT_EQ(fleet.totals.gaps_observed, reference.gaps_observed) << label;
}

/// The full differential matrix on one capture: shard counts x source
/// counts, every per-viewer stream equal to the single monitor's.
void run_matrix(const std::vector<net::Packet>& packets,
                const core::RecordClassifier& classifier,
                const std::string& tag) {
  ReferenceRun reference;
  run_reference(classifier, packets, reference);
  ASSERT_FALSE(reference.sink.choices.empty()) << tag;
  ASSERT_GT(reference.stats.viewers_evicted_idle, 0u)
      << tag << ": tuning should cover idle eviction, not just shutdown";

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t sources : {1u, 4u}) {
      const std::string label = tag + " shards=" + std::to_string(shards) +
                                " sources=" + std::to_string(sources);
      FleetRun fleet;
      run_fleet(classifier, packets, shards, sources, fleet);
      expect_equal_streams(fleet.sink, reference.sink, label);
      expect_equal_totals(fleet.stats, reference.stats, label);
      EXPECT_EQ(fleet.stats.packets, packets.size()) << label;
    }
  }
}

TEST(MonitorFleet, DifferentialMatchesSingleMonitorAcrossShardMatrix) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  run_matrix(materialize(workload), classifier, "clean");
}

TEST(MonitorFleet, DifferentialHoldsUnderDropAndJitter) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> clean = materialize(workload);

  // Impair the capture ONCE, before partitioning: reference and fleet
  // see the same damaged packets, so equality must survive capture loss
  // and local reordering (jitter_order re-sorts, keeping the global
  // time order sources promise).
  util::Rng rng(20260807);
  const std::vector<net::Packet> dropped = sim::drop_packets(clean, 0.01, rng);
  const std::vector<net::Packet> impaired =
      sim::jitter_order(dropped, 0.005, rng);
  ASSERT_LT(impaired.size(), clean.size());
  run_matrix(impaired, classifier, "impaired");
}

TEST(MonitorFleet, RollupCountersMatchShardSumAndSingleMonitor) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  obs::Registry registry;
  FleetConfig config;
  config.shards = 4;
  config.ring_capacity = packets.size() + 1;
  config.monitor = diff_config();
  config.monitor.metrics = &registry;

  MonitorFleet fleet(classifier, config);
  engine::VectorSource source(&packets);
  EXPECT_EQ(fleet.consume(source), packets.size());
  const FleetStats stats = fleet.finish();

  const obs::Snapshot snap = registry.snapshot();
  // Rollups keep the flat standalone names and equal the aggregate.
  EXPECT_EQ(snap.stable.at("monitor.emit.choices"),
            stats.totals.choices_inferred);
  EXPECT_EQ(snap.stable.at("monitor.emit.questions"),
            stats.totals.questions_opened);
  EXPECT_EQ(snap.stable.at("monitor.viewers.opened"),
            stats.totals.viewers_opened);
  EXPECT_EQ(snap.sharded.at("monitor.viewers.shed"),
            stats.totals.viewers_shed);
  EXPECT_EQ(snap.sharded.at("monitor.mem.ceiling_violations"),
            stats.totals.ceiling_violations);

  // Every rollup is exactly the sum of its per-shard counters.
  for (const char* suffix : {".emit.choices", ".emit.questions",
                             ".viewers.opened", ".viewers.evicted_idle"}) {
    std::uint64_t shard_sum = 0;
    for (std::size_t i = 0; i < config.shards; ++i) {
      shard_sum += snap.sharded.at("monitor.shard[" + std::to_string(i) + "]" +
                                   std::string(suffix));
    }
    EXPECT_EQ(snap.stable.at("monitor" + std::string(suffix)), shard_sum)
        << suffix;
  }

  // And the rollup equals what a standalone monitor registers flat.
  obs::Registry single_registry;
  MonitorConfig single_config = diff_config();
  single_config.metrics = &single_registry;
  ContinuousMonitor monitor(classifier, single_config);
  engine::VectorSource single_source(&packets);
  monitor.consume(single_source);
  monitor.finish();
  const obs::Snapshot single_snap = single_registry.snapshot();
  EXPECT_EQ(snap.stable.at("monitor.emit.choices"),
            single_snap.stable.at("monitor.emit.choices"));
  EXPECT_EQ(snap.stable.at("monitor.viewers.opened"),
            single_snap.stable.at("monitor.viewers.opened"));
}

TEST(MonitorFleet, ViewerHashPinsEverySessionPacketToOneShard) {
  WorkloadConfig workload = small_fleet_workload();
  workload.sessions = 1;
  const std::vector<net::Packet> one_session = materialize(workload);
  ASSERT_FALSE(one_session.empty());
  const auto first = net::viewer_shard_hash(one_session.front());
  ASSERT_TRUE(first.has_value());
  // Both directions of every flow in the session hash to the viewer.
  for (const net::Packet& packet : one_session) {
    const auto hash = net::viewer_shard_hash(packet);
    ASSERT_TRUE(hash.has_value());
    EXPECT_EQ(*hash, *first);
  }

  // Across a fleet of distinct viewers the hash spreads over shards.
  workload.sessions = 32;
  std::set<std::uint64_t> buckets;
  for (const net::Packet& packet : materialize(workload)) {
    const auto hash = net::viewer_shard_hash(packet);
    ASSERT_TRUE(hash.has_value());
    buckets.insert(*hash % 8);
  }
  EXPECT_GT(buckets.size(), 2u);
}

/// A live pull source: a producer thread pushes, and read_batch blocks
/// for the first packet, then takes whatever else is already queued.
class ProducerFedSource final : public engine::PacketSource {
 public:
  explicit ProducerFedSource(std::size_t capacity) : ring_(capacity) {}

  bool push(net::Packet packet) { return ring_.push(std::move(packet)); }
  void close() { ring_.close(); }

  std::optional<net::Packet> next() override {
    net::Packet packet;
    if (!ring_.pop(packet)) return std::nullopt;
    return packet;
  }
  std::size_t read_batch(engine::PacketBatch& out, std::size_t max) override {
    out.clear();
    net::Packet packet;
    if (max == 0 || !ring_.pop(packet)) return 0;
    do {
      out.append(std::move(packet));
    } while (out.size() < max && ring_.try_pop(packet));
    return out.size();
  }

 private:
  util::SpscRing<net::Packet> ring_;
};

/// Both ways a live feed reaches the fleet: bound taps (their producers
/// route) and producer-fed pull sources (pump threads read them).
TEST(MonitorFleet, StressTinyRingsBackpressureAndShutdownWhileFeeding) {
  WorkloadConfig workload;
  workload.sessions = 48;
  workload.concurrency = 12;
  workload.questions_per_session = 2;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);
  const auto parts = split_by_viewer(packets, 4);

  for (const bool bound : {true, false}) {
    const std::string label = bound ? "bound taps" : "pumped sources";
    FleetSink sink;
    FleetConfig config;
    config.shards = 4;
    config.sources = 4;
    config.ring_capacity = 8;  // force pump parks
    config.batch = 4;
    config.merge_wait = util::Duration::millis(1);
    config.monitor = diff_config();

    MonitorFleet fleet(classifier, config, &sink);
    std::vector<std::unique_ptr<InjectableTap>> taps;
    std::vector<std::unique_ptr<ProducerFedSource>> sources;
    for (std::size_t i = 0; i < 4; ++i) {
      if (bound) {
        taps.push_back(std::make_unique<InjectableTap>());
        fleet.attach(*taps.back());
      } else {
        sources.push_back(std::make_unique<ProducerFedSource>(/*capacity=*/8));
        fleet.attach(*sources.back());
      }
    }

    // Producers feed while the main thread is already inside finish():
    // shutdown races live feeding, and finish() must block until every
    // source ends, then account for every packet.
    std::vector<std::thread> producers;
    producers.reserve(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      producers.emplace_back([&taps, &sources, &parts, bound, i] {
        for (const net::Packet& packet : parts[i]) {
          net::Packet copy = packet;
          EXPECT_TRUE(bound ? taps[i]->inject(std::move(copy))
                            : sources[i]->push(std::move(copy)));
        }
        if (bound) {
          taps[i]->close();
        } else {
          sources[i]->close();
        }
      });
    }
    const FleetStats stats = fleet.finish();
    for (std::thread& producer : producers) producer.join();

    EXPECT_EQ(stats.packets, packets.size()) << label;
    EXPECT_EQ(stats.totals.packets, packets.size()) << label;
    EXPECT_EQ(stats.totals.viewers_opened, workload.sessions) << label;
    // 8-slot rings against thousands of packets: the pumps parked.
    EXPECT_GT(stats.backpressure_waits, 0u) << label;
    // Deferrals are allowed here (1ms merge_wait, racing producers); the
    // per-viewer serial guarantee still holds — spot-check every viewer
    // got a full answer stream despite the chaos.
    std::size_t total_choices = 0;
    for (const auto& [client, emitted] : sink.choices)
      total_choices += emitted.size(), (void)client;
    EXPECT_EQ(total_choices, stats.totals.choices_inferred) << label;
    EXPECT_EQ(stats.totals.choices_inferred,
              workload.sessions * workload.questions_per_session)
        << label;
  }
}

/// Rings no bigger than one batch keep every pump parking, so buffers
/// cross the return rings constantly; the sources mix a borrowed batch
/// (copied), owned capture-file slots (recycled in place) and a bound
/// tap (routed on the injecting thread, its buffers freed by the
/// workers once its return rings are full). Streams stay exactly the
/// single monitor's, and the pumps' fresh allocations stay under a
/// bound set by ring and batch sizes alone — far below the capture's
/// length. The second pass replays the capture reordered by N(0, 0.2
/// ms) jitter (the simulator's reorder jitter), so the workers' monitors
/// hold out-of-order segments in the frame buffers they lend, which go
/// home through the same return rings.
TEST(MonitorFleet, RecycledBuffersKeepStreamsExactUnderBackpressure) {
  WorkloadConfig workload;
  workload.sessions = 400;
  workload.concurrency = 24;
  workload.questions_per_session = 3;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));

  // Round-trip through pcap, so the file-backed sources replay exactly
  // the packets (and timestamp resolution) the reference sees.
  const auto dir = std::filesystem::temp_directory_path();
  const auto round_trip = [&](const std::vector<net::Packet>& in) {
    const auto whole = dir / "wm_fleet_recycle_whole.pcap";
    net::write_pcap(whole, in);
    std::vector<net::Packet> out = net::read_pcap(whole);
    std::filesystem::remove(whole);
    return out;
  };
  const std::vector<net::Packet> clean = round_trip(materialize(workload));
  util::Rng jitter_rng(2305);
  const std::vector<net::Packet> jittered =
      round_trip(sim::jitter_order(clean, 0.0002, jitter_rng));

  for (const bool reordered : {false, true}) {
    const std::vector<net::Packet>& packets = reordered ? jittered : clean;
    const std::string traffic = reordered ? "jittered " : "clean ";

    ReferenceRun reference;
    run_reference(classifier, packets, reference);

    constexpr std::size_t kShards = 4;
    constexpr std::size_t kSources = 4;
    // Sources take viewers by different hash bits than shards do, so
    // every source feeds every shard and the merge interleaves them.
    std::vector<std::vector<net::Packet>> parts(kSources);
    for (const net::Packet& packet : packets) {
      const auto hash = net::viewer_shard_hash(packet);
      const std::size_t slot = hash ? static_cast<std::size_t>((*hash >> 8) % kSources) : 0;
      parts[slot].push_back(packet);
    }

    for (const std::size_t batch : {1u, 7u}) {
      const std::string label = traffic + "batch=" + std::to_string(batch);
      FleetSink sink;
      FleetConfig config;
      config.shards = kShards;
      config.sources = kSources;
      config.ring_capacity = batch;
      config.batch = batch;
      config.merge_wait = util::Duration::seconds(30);
      config.monitor = diff_config();
      ASSERT_GE(packets.size(), 50 * kSources * kShards * config.ring_capacity)
          << label;

      std::vector<std::filesystem::path> files;
      for (const std::size_t slot : {1u, 3u}) {
        files.push_back(dir / ("wm_fleet_recycle_" + std::to_string(batch) +
                               "_" + std::to_string(slot) + ".pcap"));
        net::write_pcap(files.back(), parts[slot]);
      }
      engine::VectorSource borrowed(&parts[0]);
      auto first_file = engine::open_capture(files[0]);
      auto second_file = engine::open_capture(files[1]);
      ASSERT_TRUE(first_file.ok() && second_file.ok()) << label;
      InjectableTap tap;
      {
        MonitorFleet fleet(classifier, config, &sink);
        fleet.attach(borrowed);
        fleet.attach(*first_file.value());
        fleet.attach(tap);
        fleet.attach(*second_file.value());
        for (const net::Packet& packet : parts[2]) {
          ASSERT_TRUE(tap.inject(packet)) << label;
        }
        tap.close();
        const FleetStats stats = fleet.finish();

        expect_equal_streams(sink, reference.sink, label);
        expect_equal_totals(stats, reference.stats, label);
        EXPECT_EQ(stats.packets, packets.size()) << label;
        EXPECT_EQ(stats.merge_deferrals, 0u) << label;
        EXPECT_GT(stats.backpressure_waits, 0u) << label;
        EXPECT_LE(stats.buffers_allocated,
                  kSources * kShards * 2 * (config.ring_capacity + batch))
            << label;
        if (reordered) {
          EXPECT_GT(stats.totals.holds_lent, 0u) << label;
        }
      }
      for (const auto& file : files) std::filesystem::remove(file);
    }
  }
}

/// Bound taps fed from producer threads, one per source, each
/// refilling a single array of `array_size` packets between its
/// inject_batch calls.
void run_fleet_through_taps(const core::RecordClassifier& classifier,
                            const std::vector<std::vector<net::Packet>>& parts,
                            const FleetConfig& config, std::size_t array_size,
                            FleetRun& out) {
  std::vector<std::unique_ptr<InjectableTap>> taps;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    taps.push_back(std::make_unique<InjectableTap>());
  }
  MonitorFleet fleet(classifier, config, &out.sink);
  for (auto& tap : taps) fleet.attach(*tap);
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    producers.emplace_back([&tap = *taps[i], &part = parts[i], array_size] {
      std::vector<net::Packet> array(array_size);
      for (std::size_t next = 0; next < part.size();) {
        const std::size_t count = std::min(array_size, part.size() - next);
        for (std::size_t j = 0; j < count; ++j) {
          const net::Packet& packet = part[next + j];
          array[j].timestamp = packet.timestamp;
          array[j].original_length = packet.original_length;
          array[j].data.assign(packet.data.begin(), packet.data.end());
        }
        EXPECT_EQ(tap.inject_batch(array.data(), count), count);
        next += count;
      }
      tap.close();
    });
  }
  out.stats = fleet.finish();
  for (std::thread& producer : producers) producer.join();
}

/// A bound tap routes on its producer's thread, under constant
/// backpressure from rings no bigger than one batch, from a producer
/// that refills one array: every stream is still the single monitor's,
/// and no pump buffer is taken.
TEST(MonitorFleet, BoundTapReusingOneArrayKeepsStreamsExact) {
  WorkloadConfig workload;
  workload.sessions = 400;
  workload.concurrency = 24;
  workload.questions_per_session = 3;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);
  ReferenceRun reference;
  run_reference(classifier, packets, reference);

  for (const std::size_t batch : {1u, 7u}) {
    const std::string label = "batch=" + std::to_string(batch);
    FleetConfig config;
    config.shards = 4;
    config.ring_capacity = batch;
    config.batch = batch;
    config.monitor = diff_config();
    ASSERT_GE(packets.size(), 50 * config.shards * config.ring_capacity) << label;

    FleetRun fleet;
    run_fleet_through_taps(classifier, {packets}, config, batch, fleet);
    expect_equal_streams(fleet.sink, reference.sink, label);
    expect_equal_totals(fleet.stats, reference.stats, label);
    EXPECT_EQ(fleet.stats.packets, packets.size()) << label;
    EXPECT_GT(fleet.stats.backpressure_waits, 0u) << label;
    EXPECT_EQ(fleet.stats.buffers_allocated, 0u) << label;
  }
}

/// Bound taps, one source (the worker's plain drain) and two (the
/// timestamp merge, fed by two producers).
TEST(MonitorFleet, BoundTapsMatchSingleMonitor) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);
  ReferenceRun reference;
  run_reference(classifier, packets, reference);

  for (const std::size_t sources : {1u, 2u}) {
    const std::string label = "taps=" + std::to_string(sources);
    FleetConfig config;
    config.shards = 4;
    config.sources = sources;
    config.ring_capacity = packets.size() + 1;
    config.merge_wait = util::Duration::seconds(30);
    config.monitor = diff_config();

    FleetRun fleet;
    run_fleet_through_taps(classifier, split_by_viewer(packets, sources), config,
                           /*array_size=*/64, fleet);
    expect_equal_streams(fleet.sink, reference.sink, label);
    expect_equal_totals(fleet.stats, reference.stats, label);
    EXPECT_EQ(fleet.stats.merge_deferrals, 0u) << label;
  }
}

/// A tap refuses injects until it is bound, leaving the packet as it
/// was; a second bind of the same tap is refused. Once bound, the whole
/// capture through it matches the single monitor.
TEST(MonitorFleet, UnboundTapRefusesInjectsAndBindsOnce) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);
  ReferenceRun reference;
  run_reference(classifier, packets, reference);

  FleetConfig config;
  config.shards = 2;
  config.sources = 2;
  config.monitor = diff_config();
  FleetSink sink;
  InjectableTap tap;
  net::Packet early = packets.front();
  EXPECT_FALSE(tap.try_inject(early));
  EXPECT_EQ(tap.inject_batch(&early, 1), 0u);
  EXPECT_EQ(early.data, packets.front().data);
  EXPECT_EQ(early.timestamp.nanos(), packets.front().timestamp.nanos());
  EXPECT_FALSE(tap.inject(packets.front()));
  EXPECT_EQ(tap.queued_approx(), 0u);
  EXPECT_FALSE(tap.closed());
  {
    MonitorFleet fleet(classifier, config, &sink);
    fleet.attach(tap);
    EXPECT_THROW(fleet.attach(tap), std::logic_error);
    for (const net::Packet& packet : packets) {
      net::Packet copy = packet;
      ASSERT_TRUE(tap.try_inject(copy) || tap.inject(std::move(copy)));
    }
    tap.close();
    const FleetStats stats = fleet.finish();
    EXPECT_EQ(stats.packets, packets.size());
    expect_equal_streams(sink, reference.sink, "bound after refusals");
    expect_equal_totals(stats, reference.stats, "bound after refusals");
  }
}

/// A tap closed before its bind ends the slot at the bind: the fleet
/// drains and finishes without waiting on it, and it refuses injects.
TEST(MonitorFleet, TapClosedBeforeBindEndsItsSlot) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  InjectableTap tap;
  tap.close();
  EXPECT_TRUE(tap.closed());
  FleetConfig config;
  config.shards = 2;
  MonitorFleet fleet(classifier, config);
  fleet.attach(tap);
  EXPECT_TRUE(fleet.drained());
  EXPECT_FALSE(tap.inject(packets.front()));
  EXPECT_EQ(fleet.finish().packets, 0u);
}

/// A bound tap may outlive its fleet: once closed, it never touches the
/// fleet again, before or after the fleet is gone.
TEST(MonitorFleet, ClosedTapOutlivesItsFleet) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  InjectableTap tap;
  {
    FleetConfig config;
    config.shards = 2;
    MonitorFleet fleet(classifier, config);
    fleet.attach(tap);
    for (const net::Packet& packet : packets) ASSERT_TRUE(tap.inject(packet));
    tap.close();
    tap.close();  // idempotent
    EXPECT_FALSE(tap.inject(packets.front()));
    EXPECT_TRUE(fleet.drained());
    EXPECT_EQ(fleet.finish().packets, packets.size());
  }
  // The fleet is destroyed: every producer call is inert.
  net::Packet copy = packets.front();
  EXPECT_FALSE(tap.inject(copy));
  EXPECT_FALSE(tap.try_inject(copy));
  EXPECT_EQ(copy.data, packets.front().data);
  EXPECT_EQ(tap.inject_batch(&copy, 1), 0u);
  EXPECT_EQ(tap.queued_approx(), 0u);
  EXPECT_TRUE(tap.closed());
  tap.close();
}

/// Holds a shard worker inside its first question callback until
/// opened, so the rings behind it fill and the producer parks.
struct GateSink final : engine::EventSink {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};

  void on_question_opened(const engine::QuestionOpenedEvent&) override {
    entered.store(true);
    while (!open.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

/// close() from an owner thread while the tap's producer is parked on a
/// full shard ring: the parked inject returns, close() waits for it
/// before it ends the slot, later injects are refused, and the fleet
/// counts exactly the packets the producer was told it accepted.
TEST(MonitorFleet, OwnerClosesABoundTapWhileItsProducerIsParked) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  FleetConfig config;
  config.ring_capacity = 2;
  config.batch = 1;
  config.monitor = diff_config();
  GateSink sink;
  InjectableTap tap;
  MonitorFleet fleet(classifier, config, &sink);
  fleet.attach(tap);
  std::atomic<std::size_t> accepted{0};
  std::thread producer([&] {
    for (const net::Packet& packet : packets) {
      if (!tap.inject(packet)) break;
      accepted.fetch_add(1);
    }
  });
  while (!sink.entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The worker is held: wait until the producer stops getting anywhere.
  std::size_t seen = accepted.load();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t now = accepted.load();
    if (now == seen) break;
    seen = now;
  }
  EXPECT_LT(seen, packets.size());

  tap.close();
  producer.join();
  EXPECT_TRUE(tap.closed());
  EXPECT_FALSE(tap.inject(packets.front()));
  EXPECT_EQ(tap.queued_approx(), 0u);
  sink.open.store(true);
  const FleetStats stats = fleet.finish();
  EXPECT_EQ(stats.packets, accepted.load());
  EXPECT_EQ(stats.totals.packets, accepted.load());
}

/// Tiny rings make both sides of a shard ring sleep: the workers while
/// the producer is held back, the producer once it outruns them.
TEST(MonitorFleet, RingParksCountBothSides) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  FleetConfig config;
  config.shards = 2;
  config.ring_capacity = 2;
  config.batch = 1;
  config.monitor = diff_config();
  MonitorFleet fleet(classifier, config);
  InjectableTap tap;
  fleet.attach(tap);
  // Both workers find their rings empty and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const net::Packet& packet : packets) ASSERT_TRUE(tap.inject(packet));
  tap.close();
  const FleetStats stats = fleet.finish();

  ASSERT_EQ(stats.ring_parks.size(), config.shards);
  std::uint64_t producer = 0;
  for (const auto& parks : stats.ring_parks) {
    EXPECT_GT(parks.consumer, 0u);
    producer += parks.producer;
  }
  EXPECT_GT(producer, 0u);
  EXPECT_NE(stats.to_string().find(" parks="), std::string::npos);
}

TEST(MonitorFleet, DestructionWithoutFinishDrainsAndJoins) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  FleetSink sink;
  // Sources must outlive the fleet (pumps read them until end-of-
  // stream), so they are declared outside the fleet's scope.
  const auto parts = split_by_viewer(packets, 2);
  engine::VectorSource a(&parts[0]);
  engine::VectorSource b(&parts[1]);
  {
    FleetConfig config;
    config.shards = 2;
    config.sources = 2;
    config.ring_capacity = 16;
    config.monitor = diff_config();
    MonitorFleet fleet(classifier, config, &sink);
    fleet.attach(a);
    fleet.attach(b);
    // No finish(): the destructor must join pumps and workers cleanly.
  }
  // The abort path skips the shutdown flush, so no kShutdown evictions;
  // whatever WAS delivered before teardown is still well-formed.
  for (const auto& [client, events] : sink.evictions) {
    for (const auto& eviction : events) {
      EXPECT_NE(eviction.reason,
                engine::ViewerEvictedEvent::Reason::kShutdown)
          << client;
    }
  }
}

TEST(MonitorFleet, SourceSlotOveruseThrows) {
  const WorkloadConfig workload = small_fleet_workload();
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));
  const std::vector<net::Packet> packets = materialize(workload);

  FleetConfig config;
  config.sources = 1;
  MonitorFleet fleet(classifier, config);
  engine::VectorSource first(&packets);
  fleet.consume(first);
  engine::VectorSource second(&packets);
  EXPECT_THROW(fleet.attach(second), std::logic_error);
  fleet.finish();
  engine::VectorSource third(&packets);
  EXPECT_THROW(fleet.attach(third), std::logic_error);
}

}  // namespace
}  // namespace wm::monitor
