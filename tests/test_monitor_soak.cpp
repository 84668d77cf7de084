// Soak: a large synthetic session fleet through ContinuousMonitor —
// and through a sharded MonitorFleet — with a hard byte budget. Proves
// the headline properties of the continuous design: steady RSS over
// the run, zero ceiling violations, and full per-viewer emission (no
// viewer shed) at fleet scale, single-threaded and sharded alike.
//
// Session count scales with WM_SOAK_SESSIONS (default 100000; CI's PR
// gate sets a short budget, the nightly leg runs the full 10^6-session
// fleet). Shard count for the fleet leg scales with WM_SOAK_SHARDS
// (default 4).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include <unistd.h>

#include "teardown.hpp"
#include "wm/core/classifier.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/obs/registry.hpp"

namespace wm::monitor {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

std::size_t soak_sessions() { return env_size("WM_SOAK_SESSIONS", 100'000); }
std::size_t soak_shards() { return env_size("WM_SOAK_SHARDS", 4); }

/// Resident set in bytes, from /proc/self/statm (Linux CI / dev boxes;
/// returns 0 elsewhere and the RSS assertions self-disable).
std::size_t resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int scanned =
      std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (scanned != 2) return 0;
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(MonitorSoak, FleetRunsAtSteadyStateWithinBudget) {
  WorkloadConfig workload;
  workload.sessions = soak_sessions();
  workload.concurrency = 256;
  workload.questions_per_session = 4;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));

  MonitorConfig config;
  config.evidence_window = util::Duration::seconds(5);
  config.viewer_idle_timeout = util::Duration::seconds(30);
  config.flow_idle_timeout = util::Duration::seconds(20);
  // A real ceiling, far above steady state (~concurrency viewers live
  // at once) and far below what an unbounded fleet would accumulate.
  config.max_total_bytes = 64u << 20;

  ContinuousMonitor monitor(classifier, config);
  SyntheticFleetSource fleet(workload);

  // Feed in batches so RSS can be sampled mid-run. The warmup sample
  // waits for a quarter of the fleet: by then the viewer arena, timer
  // wheel, and extractor tables are at their working size.
  const std::size_t total_packets = fleet.packets_total();
  const std::size_t warmup_at = total_packets / 4;
  // Half the flows lose their FIN segments: those never close, so the
  // flow sweep retires them, while the rest retire at close.
  std::size_t fed = 0;
  std::size_t stripped = 0;
  std::size_t warmup_rss = 0;
  engine::PacketBatch batch;
  while (fleet.read_batch(batch, 512) != 0) {
    for (const net::Packet& packet : batch) {
      if (test::is_stripped_fin(packet, 2)) {
        ++stripped;
        continue;
      }
      monitor.feed(packet);
    }
    fed += batch.size();
    if (warmup_rss == 0 && fed >= warmup_at) warmup_rss = resident_bytes();
  }
  const std::size_t final_rss = resident_bytes();
  const MonitorStats stats = monitor.finish();

  EXPECT_EQ(fed, total_packets);
  EXPECT_GT(stripped, 0u);
  EXPECT_EQ(stats.packets, total_packets - stripped);

  // --- Bounded memory, proven three ways -----------------------------
  // 1. The monitor's own accounting never found the ceiling violated.
  EXPECT_EQ(stats.ceiling_violations, 0u);
  EXPECT_LE(stats.peak_memory_bytes, config.max_total_bytes);
  // 2. The budget was generous enough that nothing was shed: steady
  //    state really is ~concurrency viewers, not budget-forced.
  EXPECT_EQ(stats.viewers_shed, 0u);
  EXPECT_LT(stats.peak_viewers, workload.sessions);
  // 3. Whole-process RSS is steady: from a quarter of the fleet to the
  //    end, growth stays within 25% + a fixed allocator slack.
  if (warmup_rss != 0 && final_rss != 0) {
    EXPECT_LE(final_rss, warmup_rss + warmup_rss / 4 + (32u << 20))
        << "RSS grew from " << warmup_rss << " to " << final_rss;
  }

  // --- Full emission -------------------------------------------------
  // Every session's viewer opened, and with nothing shed every
  // question got its final answer.
  EXPECT_EQ(stats.viewers_opened, workload.sessions);
  EXPECT_EQ(stats.questions_opened,
            workload.sessions * workload.questions_per_session);
  EXPECT_EQ(stats.choices_inferred, stats.questions_opened);
  // The workload overrides every even-indexed question.
  std::size_t overrides_per_session = 0;
  for (std::size_t q = 0; q < workload.questions_per_session; ++q) {
    if (question_overridden(workload, q)) ++overrides_per_session;
  }
  EXPECT_EQ(stats.overrides, workload.sessions * overrides_per_session);
  // Sessions ended long before the capture did: idle eviction, not
  // shutdown flush, retired nearly everyone.
  EXPECT_GT(stats.viewers_evicted_idle, workload.sessions / 2);
  EXPECT_GT(stats.flows_swept, 0u);
  // One flow per session: the closed half retired at close, not by the
  // sweep.
  EXPECT_GT(stats.flows_closed, workload.sessions / 4);
  EXPECT_LE(stats.flows_closed + stats.flows_swept, workload.sessions);
}

/// Forwarding source that samples process RSS from the pumping thread
/// once a quarter of the fleet has been read — no cross-thread reads
/// of the generator's internals.
class SamplingSource final : public engine::PacketSource {
 public:
  SamplingSource(engine::PacketSource& inner, std::size_t warmup_at)
      : inner_(inner), warmup_at_(warmup_at) {}

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

  [[nodiscard]] std::size_t fed() const { return fed_; }
  [[nodiscard]] std::size_t warmup_rss() const { return warmup_rss_; }

 private:
  void tick(std::size_t count) {
    fed_ += count;
    if (warmup_rss_ == 0 && fed_ >= warmup_at_) warmup_rss_ = resident_bytes();
  }

  engine::PacketSource& inner_;
  const std::size_t warmup_at_;
  std::size_t fed_ = 0;
  std::size_t warmup_rss_ = 0;
};

TEST(MonitorSoak, ShardedFleetStaysWithinBudgetWithFullEmission) {
  WorkloadConfig workload;
  workload.sessions = soak_sessions();
  workload.concurrency = 256;
  workload.questions_per_session = 4;
  core::IntervalClassifier classifier;
  classifier.fit(workload_calibration(workload));

  obs::Registry registry;
  FleetConfig config;
  config.shards = soak_shards();
  config.monitor.evidence_window = util::Duration::seconds(5);
  config.monitor.viewer_idle_timeout = util::Duration::seconds(30);
  config.monitor.flow_idle_timeout = util::Duration::seconds(20);
  // The same fleet-WIDE ceiling the single-monitor soak proves: split
  // across shards, shed locally, never violated.
  config.monitor.max_total_bytes = 64u << 20;
  config.monitor.metrics = &registry;

  MonitorFleet fleet(classifier, config);
  SyntheticFleetSource source(workload);
  const std::size_t total_packets = source.packets_total();
  SamplingSource sampled(source, total_packets / 4);
  const std::size_t routed = fleet.consume(sampled);
  const std::size_t final_rss = resident_bytes();
  const FleetStats stats = fleet.finish();

  EXPECT_EQ(routed, total_packets);
  EXPECT_EQ(stats.packets, total_packets);
  EXPECT_EQ(stats.totals.packets, total_packets);
  EXPECT_EQ(stats.packets_unroutable, 0u);
  ASSERT_EQ(stats.shards.size(), config.shards);

  // --- Bounded memory, fleet-wide ------------------------------------
  EXPECT_EQ(stats.totals.ceiling_violations, 0u);
  EXPECT_EQ(stats.totals.viewers_shed, 0u);
  EXPECT_LE(stats.totals.peak_memory_bytes, config.monitor.max_total_bytes);
  if (sampled.warmup_rss() != 0 && final_rss != 0) {
    EXPECT_LE(final_rss,
              sampled.warmup_rss() + sampled.warmup_rss() / 4 + (32u << 20))
        << "RSS grew from " << sampled.warmup_rss() << " to " << final_rss;
  }

  // --- Full emission, via the rollup counters ------------------------
  // The flat "monitor.*" rollups must equal the aggregate stats AND
  // tell the same zero-violation, full-accounting story — that is what
  // an operator's dashboard sees.
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sharded.at("monitor.mem.ceiling_violations"), 0u);
  EXPECT_EQ(snap.sharded.at("monitor.viewers.shed"), 0u);
  EXPECT_EQ(snap.stable.at("monitor.viewers.opened"), workload.sessions);
  EXPECT_EQ(snap.stable.at("monitor.emit.questions"),
            workload.sessions * workload.questions_per_session);
  EXPECT_EQ(snap.stable.at("monitor.emit.choices"),
            snap.stable.at("monitor.emit.questions"));
  std::size_t overrides_per_session = 0;
  for (std::size_t q = 0; q < workload.questions_per_session; ++q) {
    if (question_overridden(workload, q)) ++overrides_per_session;
  }
  EXPECT_EQ(snap.stable.at("monitor.emit.overrides"),
            workload.sessions * overrides_per_session);
  // The rollups agree with the aggregated FleetStats and with the sum
  // of the per-shard counters (no event lost between the layers).
  EXPECT_EQ(snap.stable.at("monitor.emit.choices"),
            stats.totals.choices_inferred);
  std::uint64_t shard_sum = 0;
  for (std::size_t i = 0; i < config.shards; ++i) {
    shard_sum += snap.sharded.at("monitor.shard[" + std::to_string(i) +
                                 "].emit.choices");
  }
  EXPECT_EQ(shard_sum, stats.totals.choices_inferred);
  EXPECT_GT(stats.totals.viewers_evicted_idle, workload.sessions / 2);
}

}  // namespace
}  // namespace wm::monitor
