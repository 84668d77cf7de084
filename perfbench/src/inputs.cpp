#include "inputs.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "wm/core/engine/source.hpp"
#include "wm/dataset/builder.hpp"
#include "wm/net/pcap.hpp"
#include "wm/story/bandersnatch.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wm;

namespace {

/// Seeds whose inputs stay cached (the current one included).
constexpr std::size_t kSeedsKept = 2;

fs::path seed_dir(const fs::path& work, std::uint64_t seed) {
  return work / ("seed-" + std::to_string(seed));
}

/// Mark `dir` as most recently used and delete the least recently
/// used other seed directories beyond kSeedsKept.
void claim_seed_dir(const fs::path& work, const fs::path& dir) {
  fs::create_directories(dir);
  fs::last_write_time(dir, fs::file_time_type::clock::now());
  std::vector<std::pair<fs::file_time_type, fs::path>> others;
  for (const auto& entry : fs::directory_iterator(work)) {
    if (!entry.is_directory() || entry.path() == dir) continue;
    if (entry.path().filename().string().rfind("seed-", 0) != 0) continue;
    others.emplace_back(entry.last_write_time(), entry.path());
  }
  std::sort(others.begin(), others.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = kSeedsKept - 1; i < others.size(); ++i) {
    fs::remove_all(others[i].second);
  }
}

/// Marker line per capture: relative path, packets, bytes, first, last.
void write_marker(const fs::path& marker, const fs::path& base,
                  const std::vector<std::pair<fs::path, CaptureCount>>& counts) {
  const fs::path tmp = marker.string() + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [path, count] : counts) {
      out << fs::relative(path, base).string() << ' ' << count.packets << ' '
          << count.bytes << ' ' << count.first_nanos << ' ' << count.last_nanos
          << '\n';
    }
  }
  fs::rename(tmp, marker);
}

std::map<std::string, CaptureCount> read_marker(const fs::path& marker) {
  std::map<std::string, CaptureCount> out;
  std::ifstream in(marker);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    CaptureCount count;
    fields >> name >> count.packets >> count.bytes >> count.first_nanos >>
        count.last_nanos;
    if (fields) out[name] = count;
  }
  return out;
}

std::vector<TraceInput> load_traces(const fs::path& dataset_dir, const fs::path& base,
                                    const std::map<std::string, CaptureCount>& counts) {
  std::vector<TraceInput> out;
  for (const dataset::DatasetIndexEntry& entry : dataset::read_manifest(dataset_dir)) {
    TraceInput trace;
    trace.pcap = entry.trace_file;
    trace.truth_file = entry.truth_file;
    trace.truth = dataset::read_ground_truth(entry.truth_file);
    const auto it = counts.find(fs::relative(entry.trace_file, base).string());
    if (it == counts.end()) {
      throw std::runtime_error("input marker lacks " + entry.trace_file.string());
    }
    trace.count = it->second;
    out.push_back(std::move(trace));
  }
  return out;
}

/// Interleave `traces` by timestamp into the parts of one capture
/// under `prefix`, moving trace i's default client address to
/// cohort_client_address(i).
CaptureParts write_cohort(const std::vector<fs::path>& traces, const fs::path& prefix) {
  struct Head {
    std::int64_t nanos = 0;
    std::size_t trace = 0;
    bool operator>(const Head& other) const {
      return nanos != other.nanos ? nanos > other.nanos : trace > other.trace;
    }
  };
  std::vector<std::unique_ptr<engine::PacketSource>> sources;
  std::vector<net::Packet> pending(traces.size());
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto opened = engine::open_capture(traces[i]);
    if (!opened) throw std::runtime_error("cannot open " + traces[i].string());
    sources.push_back(std::move(opened.value()));
    if (auto packet = sources[i]->next()) {
      pending[i] = std::move(*packet);
      heap.push(Head{pending[i].timestamp.nanos(), i});
    }
  }
  PcapPartWriter writer(prefix);
  const net::Ipv4Address from = default_client_address();
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    net::Packet& packet = pending[head.trace];
    rewrite_client_address(packet, from, cohort_client_address(head.trace));
    writer.write(packet);
    if (auto next = sources[head.trace]->next()) {
      packet = std::move(*next);
      heap.push(Head{packet.timestamp.nanos(), head.trace});
    }
  }
  for (const auto& source : sources) {
    if (source->error()) throw std::runtime_error("trace read failed while interleaving");
  }
  return writer.finish();
}

}  // namespace

DatasetInputs ensure_dataset(const fs::path& work, std::uint64_t seed) {
  const fs::path dir = seed_dir(work, seed);
  claim_seed_dir(work, dir);
  const fs::path marker = dir / "dataset.ready";
  if (!fs::exists(marker)) {
    std::cerr << "perfbench: building dataset for seed " << seed << "\n";
    fs::remove_all(dir / "dataset");
    fs::remove_all(dir / "calibration");
    const story::StoryGraph graph = story::make_bandersnatch();
    dataset::DatasetConfig config;
    config.viewer_count = kDatasetViewers;
    config.seed = seed;
    dataset::write_dataset(dir / "dataset", graph, config);
    dataset::DatasetConfig calibration = config;
    calibration.viewer_count = kCalibrationViewers;
    // The calibration cohort is the attacker's own lab capture, the same
    // for every seed, so set-up does the same work on every run.
    calibration.seed = kCalibrationSeed;
    dataset::write_dataset(dir / "calibration", graph, calibration);

    std::vector<std::pair<fs::path, CaptureCount>> counts;
    for (const char* part : {"dataset", "calibration"}) {
      for (const auto& entry : dataset::read_manifest(dir / part)) {
        counts.emplace_back(entry.trace_file, count_pcap(entry.trace_file));
      }
    }
    write_marker(marker, dir, counts);
    // Finish writeback now so it does not run under the timed passes.
    ::sync();
  }
  const auto counts = read_marker(marker);
  DatasetInputs out;
  out.traces = load_traces(dir / "dataset", dir, counts);
  out.calibration = load_traces(dir / "calibration", dir, counts);
  if (out.traces.size() != kDatasetViewers ||
      out.calibration.size() != kCalibrationViewers) {
    throw std::runtime_error("cached dataset for seed " + std::to_string(seed) +
                             " is incomplete");
  }
  for (const TraceInput& trace : out.traces) out.packets += trace.count.packets;
  return out;
}

CohortInputs ensure_cohort(const fs::path& work, std::uint64_t seed,
                           const DatasetInputs& dataset) {
  const fs::path dir = seed_dir(work, seed);
  const fs::path marker = dir / "cohort.ready";
  if (!fs::exists(marker)) {
    std::cerr << "perfbench: interleaving cohort capture for seed " << seed << "\n";
    fs::remove_all(dir / "cohort");
    fs::create_directories(dir / "cohort");
    std::vector<fs::path> traces;
    for (const TraceInput& trace : dataset.traces) traces.push_back(trace.pcap);
    std::vector<std::pair<fs::path, CaptureCount>> counts;
    for (const fs::path& part : write_cohort(traces, dir / "cohort" / "part")) {
      counts.emplace_back(part, count_pcap(part));
    }
    write_marker(marker, dir, counts);
    ::sync();
  }
  // Part names are numbered with leading zeros, so the marker's sorted
  // order is capture order.
  CohortInputs out;
  for (const auto& [name, count] : read_marker(marker)) {
    out.capture.push_back(dir / name);
    if (out.count.packets == 0) out.count.first_nanos = count.first_nanos;
    out.count.packets += count.packets;
    out.count.bytes += count.bytes;
    out.count.last_nanos = std::max(out.count.last_nanos, count.last_nanos);
  }
  if (out.capture.empty()) throw std::runtime_error("cohort marker is empty");
  for (std::size_t i = 0; i < dataset.traces.size(); ++i) {
    out.viewer_addresses.push_back(cohort_client_address(i).to_string());
  }
  return out;
}

}  // namespace perfbench
