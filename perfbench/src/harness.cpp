#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wm/net/checksum.hpp"

namespace perfbench {

// --- order statistics --------------------------------------------------

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(samples.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, samples.size() - 1);
  const double fraction = rank - static_cast<double>(low);
  return samples[low] + (samples[high] - samples[low]) * fraction;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double supported_percentile(std::size_t n, std::size_t beyond) {
  if (n <= beyond) return 0.0;
  return 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
}

Distribution distribution(const std::vector<double>& samples) {
  Distribution out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  out.p50 = percentile(sorted, 50.0);
  out.p90 = percentile(sorted, 90.0);
  out.p99 = percentile(sorted, 99.0);
  out.max = sorted.back();
  out.supported_pct = supported_percentile(sorted.size());
  return out;
}

// --- paced replay schedule ---------------------------------------------

Clock::time_point PacedSchedule::due(util::SimTime at) const {
  const double capture_ns = static_cast<double>(at.nanos() - capture_origin_);
  return wall_origin_ + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(capture_ns / compression_));
}

// --- cohort address rewrite --------------------------------------------

net::Ipv4Address default_client_address() {
  return net::Ipv4Address(10, 0, 0, 23);
}

net::Ipv4Address cohort_client_address(std::size_t index) {
  return net::Ipv4Address(10, 64, static_cast<std::uint8_t>(index / 250),
                          static_cast<std::uint8_t>(index % 250 + 1));
}

namespace {

constexpr std::size_t kEthernetHeader = 14;

/// Offset of the IPv4 header in an Ethernet frame (one optional
/// 802.1Q tag), or 0 when the frame carries no IPv4.
std::size_t ipv4_offset(const util::Bytes& data) {
  if (data.size() < kEthernetHeader + 20) return 0;
  std::size_t type_at = 12;
  if (data[12] == 0x81 && data[13] == 0x00) type_at = 16;
  if (data.size() < type_at + 2 + 20) return 0;
  if (data[type_at] != 0x08 || data[type_at + 1] != 0x00) return 0;
  const std::size_t ip = type_at + 2;
  if ((data[ip] >> 4) != 4) return 0;
  return ip;
}

std::uint16_t word_at(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((static_cast<unsigned>(p[0]) << 8) | p[1]);
}

void put_word(std::uint8_t* p, std::uint16_t value) {
  p[0] = static_cast<std::uint8_t>(value >> 8);
  p[1] = static_cast<std::uint8_t>(value & 0xff);
}

/// RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m').
std::uint16_t checksum_update(std::uint16_t checksum, std::uint16_t old_word,
                              std::uint16_t new_word) {
  std::uint32_t sum = static_cast<std::uint16_t>(~checksum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while ((sum >> 16) != 0) sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

bool rewrite_client_address(net::Packet& packet, net::Ipv4Address from,
                            net::Ipv4Address to) {
  util::Bytes& data = packet.data;
  const std::size_t ip = ipv4_offset(data);
  if (ip == 0) return false;
  const std::size_t header_len = static_cast<std::size_t>(data[ip] & 0x0f) * 4;
  if (header_len < 20 || data.size() < ip + header_len) return false;
  const std::uint8_t protocol = data[ip + 9];
  const std::size_t transport = ip + header_len;
  std::size_t transport_checksum = 0;
  if (protocol == 6 && data.size() >= transport + 18) transport_checksum = transport + 16;
  if (protocol == 17 && data.size() >= transport + 8) transport_checksum = transport + 6;
  // A zero UDP checksum means "none" and stays that way.
  if (protocol == 17 && transport_checksum != 0 &&
      word_at(data.data() + transport_checksum) == 0) {
    transport_checksum = 0;
  }

  bool rewritten = false;
  for (const std::size_t address : {ip + 12, ip + 16}) {
    std::uint8_t* bytes = data.data() + address;
    const std::uint32_t current = (static_cast<std::uint32_t>(bytes[0]) << 24) |
                                  (static_cast<std::uint32_t>(bytes[1]) << 16) |
                                  (static_cast<std::uint32_t>(bytes[2]) << 8) |
                                  bytes[3];
    if (current != from.value()) continue;
    const std::uint16_t old_hi = word_at(bytes);
    const std::uint16_t old_lo = word_at(bytes + 2);
    const std::uint32_t value = to.value();
    put_word(bytes, static_cast<std::uint16_t>(value >> 16));
    put_word(bytes + 2, static_cast<std::uint16_t>(value & 0xffff));
    for (const std::size_t field : {ip + 10, transport_checksum}) {
      if (field == 0) continue;
      std::uint16_t sum = word_at(data.data() + field);
      sum = checksum_update(sum, old_hi, word_at(bytes));
      sum = checksum_update(sum, old_lo, word_at(bytes + 2));
      if (field == transport_checksum && protocol == 17 && sum == 0) sum = 0xffff;
      put_word(data.data() + field, sum);
    }
    rewritten = true;
  }
  return rewritten;
}

bool checksums_valid(const net::Packet& packet) {
  const util::Bytes& data = packet.data;
  const std::size_t ip = ipv4_offset(data);
  if (ip == 0) return true;
  const std::size_t header_len = static_cast<std::size_t>(data[ip] & 0x0f) * 4;
  if (data.size() < ip + header_len) return false;
  if (net::internet_checksum(util::BytesView(data.data() + ip, header_len)) != 0) {
    return false;
  }
  const std::size_t total_len = word_at(data.data() + ip + 2);
  if (total_len < header_len || data.size() < ip + total_len) return false;
  const std::uint8_t protocol = data[ip + 9];
  if (protocol != 6 && protocol != 17) return true;
  const std::size_t transport = ip + header_len;
  const std::size_t field = transport + (protocol == 6 ? 16 : 6);
  if (field + 2 > ip + total_len) return false;
  const std::uint16_t stored = word_at(data.data() + field);
  if (protocol == 17 && stored == 0) return true;
  util::Bytes segment(data.begin() + static_cast<std::ptrdiff_t>(transport),
                      data.begin() + static_cast<std::ptrdiff_t>(ip + total_len));
  put_word(segment.data() + (field - transport), 0);
  const net::Ipv4Address source(word_at(data.data() + ip + 12) * 65536u +
                                word_at(data.data() + ip + 14));
  const net::Ipv4Address destination(word_at(data.data() + ip + 16) * 65536u +
                                     word_at(data.data() + ip + 18));
  std::uint16_t expected = net::transport_checksum_v4(
      source, destination, net::IpProtocolValue{protocol}, util::BytesView(segment));
  if (protocol == 17 && expected == 0) expected = 0xffff;
  return expected == stored;
}

// --- capture files -----------------------------------------------------

CaptureCount count_pcap(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::uint8_t header[24];
  if (!in.read(reinterpret_cast<char*>(header), sizeof header)) {
    throw std::runtime_error("short pcap header in " + path.string());
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, header, 4);
  bool nanos = false;
  if (magic == 0xa1b23c4du) {
    nanos = true;
  } else if (magic != 0xa1b2c3d4u) {
    throw std::runtime_error("not a native-order classic pcap: " + path.string());
  }
  CaptureCount out;
  std::uint8_t record[16];
  while (in.read(reinterpret_cast<char*>(record), sizeof record)) {
    std::uint32_t fields[4];
    std::memcpy(fields, record, sizeof record);
    const std::int64_t ts = static_cast<std::int64_t>(fields[0]) * 1'000'000'000 +
                            static_cast<std::int64_t>(fields[1]) * (nanos ? 1 : 1000);
    if (out.packets == 0) out.first_nanos = ts;
    out.last_nanos = std::max(out.last_nanos, ts);
    ++out.packets;
    out.bytes += fields[2];
    in.seekg(fields[2], std::ios::cur);
  }
  return out;
}

void page_in(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buffer(1 << 20);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
  }
}

PcapPartWriter::PcapPartWriter(std::filesystem::path prefix, std::uint64_t part_bytes)
    : prefix_(std::move(prefix)), part_bytes_(part_bytes) {}

void PcapPartWriter::write(const net::Packet& packet) {
  constexpr std::uint64_t kFileHeader = 24;
  constexpr std::uint64_t kRecordHeader = 16;
  const std::uint64_t record = kRecordHeader + packet.data.size();
  if (writer_ == nullptr || (part_size_ > kFileHeader && part_size_ + record > part_bytes_)) {
    if (writer_ != nullptr) writer_->flush();
    char name[16];
    std::snprintf(name, sizeof name, "-%04zu.pcap", parts_.size());
    parts_.push_back(prefix_.string() + name);
    writer_ = std::make_unique<net::PcapWriter>(parts_.back());
    part_size_ = kFileHeader;
  }
  writer_->write(packet);
  part_size_ += record;
}

CaptureParts PcapPartWriter::finish() {
  if (writer_ != nullptr) writer_->flush();
  writer_.reset();
  return std::move(parts_);
}

bool PartsSource::advance() {
  if (const auto& failed = parts_[current_]->error()) {
    error_ = failed;
    current_ = parts_.size();
    return false;
  }
  ++current_;
  part_viewed_ = false;
  return true;
}

std::optional<net::Packet> PartsSource::next() {
  while (current_ < parts_.size()) {
    if (auto packet = parts_[current_]->next()) return packet;
    if (!advance()) break;
  }
  return std::nullopt;
}

std::size_t PartsSource::read_batch(engine::PacketBatch& out, std::size_t max) {
  while (current_ < parts_.size()) {
    const std::size_t got = parts_[current_]->read_batch(out, max);
    if (got > 0) return got;
    if (!advance()) break;
  }
  out.clear();
  return 0;
}

std::size_t PartsSource::read_views(engine::PacketBatch& out, std::size_t max) {
  while (current_ < parts_.size()) {
    const std::size_t got = parts_[current_]->read_views(out, max);
    if (got > 0) {
      part_viewed_ = any_viewed_ = true;
      return got;
    }
    if (!part_viewed_) {
      // This part serves no views: before any view that sends the
      // caller to read_batch(); after some it would drop packets.
      if (any_viewed_) {
        error_ = wm::Error{wm::ErrorCode::kIo, "capture part serves no views"};
        current_ = parts_.size();
      }
      return 0;
    }
    if (!advance()) break;
  }
  return 0;
}

std::unique_ptr<engine::PacketSource> open_parts(const CaptureParts& parts,
                                                 wm::obs::Registry* metrics) {
  std::vector<std::unique_ptr<engine::PacketSource>> sources;
  for (const std::filesystem::path& part : parts) {
    auto opened = engine::open_capture(part, metrics);
    if (!opened) {
      throw std::runtime_error("open_capture(" + part.string() +
                               ") failed: " + opened.error().message);
    }
    sources.push_back(std::move(opened.value()));
  }
  if (sources.size() == 1) return std::move(sources.front());
  return std::make_unique<PartsSource>(std::move(sources));
}

// --- process probes ----------------------------------------------------

namespace {

double status_field_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr);
    }
  }
  return 0.0;
}

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double own_rss_mb() {
  return (status_field_kb("RssAnon:") + status_field_kb("RssShmem:")) / 1024.0;
}

RssSampler::RssSampler(std::chrono::milliseconds period)
    : period_(period), peak_mb_(own_rss_mb()), thread_([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, period_, [this] { return stopping_; })) {
          lock.unlock();
          sample();
          lock.lock();
        }
      }) {}

RssSampler::~RssSampler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void RssSampler::sample() {
  const double mb = own_rss_mb();
  const std::lock_guard<std::mutex> lock(mutex_);
  peak_mb_ = std::max(peak_mb_, mb);
}

double RssSampler::take_peak() {
  const double now = own_rss_mb();
  const std::lock_guard<std::mutex> lock(mutex_);
  const double peak = std::max(peak_mb_, now);
  peak_mb_ = now;
  return peak;
}

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double load_average_1m() {
  double loads[3] = {0.0, 0.0, 0.0};
  return getloadavg(loads, 3) > 0 ? loads[0] : 0.0;
}

// --- span tracer -------------------------------------------------------

std::int32_t Tracer::begin(const std::string& name, std::uint64_t unit) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  Span span;
  span.name = it->second;
  span.unit = unit;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = out[names_[spans_[i].name]];
    entry.first += self[i];
    ++entry.second;
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << json_escape(names_[span.name])
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"unit\":" << span.unit << "}\n";
  }
}

// --- results -----------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out << ", ";
    first = false;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", entry.first);
    out << '"' << json_escape(name) << "\": {\"value\": " << number
        << ", \"unit\": \"" << json_escape(entry.second) << "\"}";
  }
  out << '}';
  return out.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
