// Self-test of the benchmark's own measurement helpers: percentiles and
// their supported depth, due-time lag under a fixed compression factor,
// the per-viewer address rewrite that builds the cohort capture, and
// the part files a capture is stored in. Writes its part files under
// the current directory and removes them.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "harness.hpp"
#include "wm/dataset/builder.hpp"
#include "wm/net/flow.hpp"
#include "wm/story/bandersnatch.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

bool near(double a, double b, double tolerance = 1e-9) {
  return std::fabs(a - b) <= tolerance;
}

void test_percentiles() {
  using perfbench::percentile;
  expect(near(percentile({}, 50), 0.0), "empty percentile is 0");
  expect(near(percentile({7.0}, 90), 7.0), "single sample");
  // 1..100: linear interpolation between closest ranks.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 50), 50.5), "p50 of 1..100");
  expect(near(percentile(hundred, 90), 90.1), "p90 of 1..100");
  expect(near(percentile(hundred, 0), 1.0) && near(percentile(hundred, 100), 100.0),
         "p0/p100 are the extremes");
  expect(near(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5), "even-count median");

  expect(near(perfbench::supported_percentile(1000), 99.0), "1000 samples support p99");
  expect(near(perfbench::supported_percentile(100), 90.0), "100 samples support p90");
  expect(near(perfbench::supported_percentile(10), 0.0), "10 samples support nothing");
  const perfbench::Distribution d = perfbench::distribution(hundred);
  expect(d.samples == 100 && near(d.max, 100.0) && near(d.supported_pct, 90.0),
         "distribution summary");
}

void test_due_time_lag() {
  using namespace std::chrono;
  const auto origin = perfbench::Clock::now();
  const auto capture_origin = wm::util::SimTime::from_seconds(5.0);
  // 20 capture seconds per wall second.
  const perfbench::PacedSchedule schedule(capture_origin, 20.0, origin);
  expect(schedule.due(capture_origin) == origin, "origin maps to origin");
  const auto due = schedule.due(wm::util::SimTime::from_seconds(7.0));
  expect(duration_cast<milliseconds>(due - origin).count() == 100,
         "2 capture seconds at x20 are due after 100 ms");
  const double lag = perfbench::lag_ms(due, origin + milliseconds(103));
  expect(near(lag, 3.0, 1e-6), "delivery 3 ms after due is 3 ms lag");
  expect(perfbench::lag_ms(due, origin) < 0, "early delivery has negative lag");
  // Halving the compression doubles the wall distance.
  const perfbench::PacedSchedule slower(capture_origin, 10.0, origin);
  expect(duration_cast<milliseconds>(slower.due(wm::util::SimTime::from_seconds(7.0)) -
                                     origin).count() == 200,
         "2 capture seconds at x10 are due after 200 ms");
}

void test_address_rewrite() {
  const wm::story::StoryGraph graph = wm::story::make_bandersnatch();
  wm::dataset::DatasetConfig config;
  config.viewer_count = 1;
  config.seed = 11;
  const auto points = wm::dataset::generate_dataset(graph, config);
  const auto& packets = points.front().session.capture.packets;
  expect(packets.size() > 100, "simulated session has packets");
  const std::size_t sample = std::min<std::size_t>(packets.size(), 400);

  std::set<std::uint64_t> viewer_keys;
  std::size_t rewritten = 0;
  bool all_valid = true;
  for (std::size_t viewer = 0; viewer < 100; ++viewer) {
    std::set<std::uint64_t> keys_of_viewer;
    for (std::size_t i = 0; i < sample; ++i) {
      wm::net::Packet packet = packets[i];
      if (!perfbench::checksums_valid(packet)) continue;  // only judge valid input
      if (perfbench::rewrite_client_address(packet, perfbench::default_client_address(),
                                            perfbench::cohort_client_address(viewer))) {
        ++rewritten;
      }
      all_valid &= perfbench::checksums_valid(packet);
      if (const auto key = wm::net::viewer_shard_hash(packet)) keys_of_viewer.insert(*key);
    }
    // Every flow of one viewer routes by the same key.
    expect(keys_of_viewer.size() == 1, "viewer " + std::to_string(viewer) +
                                           " has one routing key");
    viewer_keys.insert(keys_of_viewer.begin(), keys_of_viewer.end());
  }
  expect(rewritten >= 100 * (sample / 2), "most frames carry the client address");
  expect(all_valid, "checksums stay valid after the rewrite");
  expect(viewer_keys.size() == 100, "100 viewers give 100 distinct routing keys");

  // A frame without the address is untouched.
  wm::net::Packet other = packets.front();
  const wm::util::Bytes before = other.data;
  expect(!perfbench::rewrite_client_address(other, wm::net::Ipv4Address(192, 0, 2, 1),
                                            perfbench::cohort_client_address(0)),
         "no match, no rewrite");
  expect(other.data == before, "unmatched frame bytes unchanged");
}

void test_capture_parts() {
  const wm::story::StoryGraph graph = wm::story::make_bandersnatch();
  wm::dataset::DatasetConfig config;
  config.viewer_count = 1;
  config.seed = 12;
  const auto points = wm::dataset::generate_dataset(graph, config);
  const auto& packets = points.front().session.capture.packets;

  constexpr std::uint64_t kPart = 64 * 1024;
  const std::filesystem::path dir = "perfbench-selftest-parts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  perfbench::PcapPartWriter writer(dir / "part", kPart);
  std::uint64_t bytes = 0;
  for (const wm::net::Packet& packet : packets) {
    writer.write(packet);
    bytes += packet.data.size();
  }
  const perfbench::CaptureParts parts = writer.finish();
  expect(parts.size() > 2, "a capture larger than a part spans several parts");
  std::uint64_t counted = 0;
  bool sizes_ok = true;
  for (const auto& part : parts) {
    sizes_ok &= std::filesystem::file_size(part) <= kPart;
    counted += perfbench::count_pcap(part).packets;
  }
  expect(sizes_ok, "no part is larger than the part size");
  expect(counted == packets.size(), "the parts hold every packet");

  // One stream over the parts, in order, on each read path.
  wm::engine::PacketBatch batch;
  auto views = perfbench::open_parts(parts);
  std::size_t seen = 0;
  bool same = true;
  while (const std::size_t got = views->read_views(batch, 256)) {
    for (std::size_t i = 0; i < got; ++i, ++seen) {
      const auto view = batch.views()[i].data;
      same &= seen < packets.size() &&
              std::equal(view.begin(), view.end(), packets[seen].data.begin(),
                         packets[seen].data.end());
    }
  }
  expect(seen == packets.size() && same && !views->error(),
         "read_views yields every packet in order");
  auto batches = perfbench::open_parts(parts);
  std::uint64_t batched = 0;
  while (batches->read_batch(batch, 256) > 0) {
    for (const wm::net::Packet& packet : batch) batched += packet.data.size();
  }
  expect(batched == bytes, "read_batch yields every byte");
  auto single = perfbench::open_parts(parts);
  std::size_t nexted = 0;
  while (single->next()) ++nexted;
  expect(nexted == packets.size(), "next yields every packet");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  test_percentiles();
  test_due_time_lag();
  test_address_rewrite();
  test_capture_parts();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
