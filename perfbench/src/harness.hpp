// Measurement helpers shared by the benchmark program and its tests:
// order statistics, the paced-replay schedule, the per-viewer address
// rewrite used to build the cohort capture, process resource probes,
// an in-memory span tracer and the metric/JSON writer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "wm/core/engine/source.hpp"
#include "wm/net/address.hpp"
#include "wm/net/packet.hpp"
#include "wm/net/pcap.hpp"
#include "wm/util/time.hpp"

namespace perfbench {

namespace engine = wm::engine;
namespace net = wm::net;
namespace util = wm::util;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- order statistics --------------------------------------------------

/// Linear-interpolation percentile (`pct` in [0, 100]) of `samples`,
/// the same rule as Python's statistics.quantiles(method="inclusive").
/// Empty input yields 0.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);
[[nodiscard]] double median(std::vector<double> samples);

/// Highest percentile that still has at least `beyond` samples above
/// it: 100 * (n - beyond) / n, or 0 when n <= beyond. A p99 over fewer
/// than 1000 samples is one outlier wide; this says how far up the
/// tail a sample set can be trusted.
[[nodiscard]] double supported_percentile(std::size_t n, std::size_t beyond = 10);

struct Distribution {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// supported_percentile(samples).
  double supported_pct = 0.0;
};
[[nodiscard]] Distribution distribution(const std::vector<double>& samples);

// --- paced replay schedule ---------------------------------------------

/// Maps capture time onto wall time with one fixed compression factor:
/// capture instant `t` is due at wall_origin + (t - capture_origin) /
/// compression. The generator injects by it and emit lag is measured
/// against it, so both sides share one definition of "due".
class PacedSchedule {
 public:
  PacedSchedule(util::SimTime capture_origin, double compression,
                Clock::time_point wall_origin)
      : capture_origin_(capture_origin.nanos()),
        compression_(compression),
        wall_origin_(wall_origin) {}

  [[nodiscard]] Clock::time_point due(util::SimTime at) const;

 private:
  std::int64_t capture_origin_;
  double compression_;
  Clock::time_point wall_origin_;
};

/// Wall milliseconds from `due` to `delivered` (negative when early).
[[nodiscard]] inline double lag_ms(Clock::time_point due, Clock::time_point delivered) {
  return std::chrono::duration<double, std::milli>(delivered - due).count();
}

// --- cohort address rewrite --------------------------------------------

/// The client address every simulated viewer shares by default
/// (sim::PacketizeConfig::client_ip).
[[nodiscard]] net::Ipv4Address default_client_address();
/// Distinct client address for cohort viewer `index` (0-based).
[[nodiscard]] net::Ipv4Address cohort_client_address(std::size_t index);

/// Replace `from` by `to` in the IPv4 source and destination of an
/// Ethernet frame and repair the IPv4 header and TCP/UDP checksums
/// incrementally (RFC 1624), so snaplen-truncated frames stay valid
/// too. Returns true when an address was rewritten.
bool rewrite_client_address(net::Packet& packet, net::Ipv4Address from,
                            net::Ipv4Address to);

/// Full recomputation check of an untruncated IPv4 frame's header and
/// TCP/UDP checksums. Non-IPv4 frames report true.
[[nodiscard]] bool checksums_valid(const net::Packet& packet);

// --- capture files -----------------------------------------------------

/// What a classic pcap file holds, counted by walking its record
/// headers directly (independent of the library's readers).
struct CaptureCount {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::int64_t first_nanos = 0;
  std::int64_t last_nanos = 0;
};
[[nodiscard]] CaptureCount count_pcap(const std::filesystem::path& path);

/// Read a file once so its pages are resident before anything is timed.
void page_in(const std::filesystem::path& path);

/// One capture stored as consecutive classic pcap part files.
using CaptureParts = std::vector<std::filesystem::path>;

/// Largest part file the benchmark writes. It is below the smallest
/// dataset trace, so a file-size limit (RLIMIT_FSIZE) that lets the
/// dataset be written lets every capture the benchmark builds be
/// written too.
inline constexpr std::uint64_t kPartBytes = std::uint64_t{4} << 20;

/// Writes one packet stream as `<prefix>-0000.pcap`, `<prefix>-0001.pcap`,
/// ... in order, starting a new part before a record would take the
/// current one past `part_bytes` (a part holds at least one packet).
class PcapPartWriter {
 public:
  explicit PcapPartWriter(std::filesystem::path prefix,
                          std::uint64_t part_bytes = kPartBytes);
  void write(const net::Packet& packet);
  /// Flush and close the last part; returns every part in order.
  CaptureParts finish();

 private:
  std::filesystem::path prefix_;
  std::uint64_t part_bytes_;
  std::uint64_t part_size_ = 0;
  std::unique_ptr<net::PcapWriter> writer_;
  CaptureParts parts_;
};

/// Reads the parts of one capture in order as a single stream. Every
/// part stays open for the source's lifetime, so views handed out by
/// read_views() keep PacketSource's whole-lifetime stability contract.
class PartsSource final : public engine::PacketSource {
 public:
  explicit PartsSource(std::vector<std::unique_ptr<engine::PacketSource>> parts)
      : parts_(std::move(parts)) {}

  std::optional<net::Packet> next() override;
  [[nodiscard]] std::size_t read_batch(engine::PacketBatch& out, std::size_t max) override;
  [[nodiscard]] std::size_t read_views(engine::PacketBatch& out, std::size_t max) override;
  [[nodiscard]] const std::optional<wm::Error>& error() const override { return error_; }

 private:
  /// Move past the current part once it has ended; false when it ended
  /// on an error, which then ends the whole stream.
  bool advance();

  std::vector<std::unique_ptr<engine::PacketSource>> parts_;
  std::size_t current_ = 0;
  /// Whether the current part has served a view yet (a part holds at
  /// least one packet, so a first read_views() of 0 means no views).
  bool part_viewed_ = false;
  bool any_viewed_ = false;
  std::optional<wm::Error> error_;
};

/// engine::open_capture over every part; a single part is returned as
/// it opened, more as one PartsSource. Throws std::runtime_error when
/// a part cannot be opened.
[[nodiscard]] std::unique_ptr<engine::PacketSource> open_parts(
    const CaptureParts& parts, wm::obs::Registry* metrics = nullptr);

// --- process probes ----------------------------------------------------

/// The process's own resident memory in MiB: RssAnon + RssShmem from
/// /proc/self/status (heap, stacks, anonymous and shared mappings).
/// File-backed pages, such as a mapped capture, are not counted.
[[nodiscard]] double own_rss_mb();

/// Samples own_rss_mb() on a side thread every `period` and keeps the
/// maximum: the peak resident memory of the program, without the
/// inputs the benchmark mapped.
class RssSampler {
 public:
  explicit RssSampler(std::chrono::milliseconds period = std::chrono::milliseconds(10));
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Peak MiB since construction or the previous call, including a
  /// sample taken now; the next peak starts from that sample.
  double take_peak();

 private:
  void sample();

  std::chrono::milliseconds period_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  double peak_mb_ = 0.0;
  std::thread thread_;
};

[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double thread_cpu_seconds();
[[nodiscard]] std::string cpu_model();
[[nodiscard]] double load_average_1m();

// --- span tracer -------------------------------------------------------

/// In-memory span recorder. Spans nest per thread through a parent
/// stack; only the thread that owns the tracer records. Self time of a
/// span is its duration minus its children's.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t unit = 0;  // per-trace / per-batch id
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int32_t begin(const std::string& name, std::uint64_t unit);
  void end(std::int32_t span);

  /// Summed self time (ns) and span count per span name.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>> self_times() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write every span as JSON lines.
  void write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op on a disabled or null tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t unit = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->begin(name, unit) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// --- results -----------------------------------------------------------

/// Named metrics with units, rendered as the benchmark's result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace perfbench
