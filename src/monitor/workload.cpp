#include "wm/monitor/workload.hpp"

#include <algorithm>
#include <utility>

#include "wm/net/checksum.hpp"
#include "wm/net/packet_builder.hpp"
#include "wm/tls/record.hpp"
#include "wm/util/rng.hpp"

namespace wm::monitor {

namespace {

tls::TlsSessionConfig effective_tls(const WorkloadConfig& config) {
  tls::TlsSessionConfig tls = config.tls;
  if (tls.sni.empty()) tls.sni = "ichnaea.netflix.com";
  return tls;
}

/// Override delay clamped so a type-2 never outlives its question's
/// slot (otherwise it would be attributed to the next question).
util::Duration effective_override_delay(const WorkloadConfig& config) {
  const std::int64_t spacing = config.question_spacing.total_nanos();
  const std::int64_t delay = config.override_delay.total_nanos();
  if (spacing > 1 && delay >= spacing) {
    return util::Duration::nanos(spacing - 1);
  }
  return config.override_delay;
}

/// RFC 1624 incremental checksum update for one changed 16-bit word.
void incremental_checksum_fix(std::uint8_t* checksum, std::uint16_t old_word,
                              std::uint16_t new_word) {
  std::uint32_t sum = static_cast<std::uint16_t>(
      ~((static_cast<std::uint16_t>(checksum[0]) << 8) | checksum[1]));
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
  const std::uint16_t fixed = static_cast<std::uint16_t>(~sum);
  checksum[0] = static_cast<std::uint8_t>(fixed >> 8);
  checksum[1] = static_cast<std::uint8_t>(fixed & 0xff);
}

std::uint16_t word_at(const util::Bytes& data, std::size_t offset) {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data[offset]) << 8) | data[offset + 1]);
}

/// XOR the low 24 bits of `session` into octets 1..3 of both IPv4
/// addresses and repair both checksums — every session becomes a
/// distinct flow between distinct endpoints while the template bytes
/// stay otherwise untouched.
void rewrite_ipv4_session(util::Bytes& data, std::uint32_t session) {
  constexpr std::size_t kIp = 14;
  if (data.size() < kIp + 20) return;
  if (data[12] != 0x08 || data[13] != 0x00) return;
  const std::size_t header_len = static_cast<std::size_t>(data[kIp] & 0x0f) * 4;
  if (header_len < 20 || data.size() < kIp + header_len) return;

  const std::uint8_t protocol = data[kIp + 9];
  std::size_t transport_checksum = 0;
  const std::size_t transport = kIp + header_len;
  if (protocol == 6 && data.size() >= transport + 18) {
    transport_checksum = transport + 16;
  }

  const std::uint8_t o1 = static_cast<std::uint8_t>(session >> 16);
  const std::uint8_t o2 = static_cast<std::uint8_t>(session >> 8);
  const std::uint8_t o3 = static_cast<std::uint8_t>(session);
  for (const std::size_t addr : {kIp + 12, kIp + 16}) {
    const std::uint16_t old_hi = word_at(data, addr);
    const std::uint16_t old_lo = word_at(data, addr + 2);
    data[addr + 1] ^= o1;
    data[addr + 2] ^= o2;
    data[addr + 3] ^= o3;
    if (transport_checksum != 0) {
      incremental_checksum_fix(data.data() + transport_checksum, old_hi,
                               word_at(data, addr));
      incremental_checksum_fix(data.data() + transport_checksum, old_lo,
                               word_at(data, addr + 2));
    }
  }

  data[kIp + 10] = 0;
  data[kIp + 11] = 0;
  const std::uint16_t ip_checksum =
      net::internet_checksum(util::BytesView(data.data() + kIp, header_len));
  data[kIp + 10] = static_cast<std::uint8_t>(ip_checksum >> 8);
  data[kIp + 11] = static_cast<std::uint8_t>(ip_checksum & 0xff);
}

}  // namespace

bool question_overridden(const WorkloadConfig& config, std::size_t q) {
  if (config.override_stride == 0) return false;
  return q % config.override_stride == 0;
}

std::vector<core::LabeledObservation> workload_calibration(
    const WorkloadConfig& config) {
  tls::TlsSession session(effective_tls(config), util::Rng(config.seed));
  std::vector<core::LabeledObservation> calibration;
  util::SimTime when = util::SimTime::from_seconds(0.0);
  const auto sample = [&](std::int64_t plaintext_signed,
                          core::RecordClass label) {
    if (plaintext_signed <= 0) return;
    const auto plaintext = static_cast<std::size_t>(plaintext_signed);
    for (const auto& record : session.seal_application_data(plaintext)) {
      core::LabeledObservation item;
      item.observation.timestamp = when;
      item.observation.record_length = record.length();
      item.label = label;
      calibration.push_back(std::move(item));
      when += util::Duration::millis(10);
    }
  };
  // A few samples per band so the adaptive guard sees the band width;
  // kOther examples bracket the JSON bands from both sides.
  for (const std::int64_t jitter : {-2, 0, 2}) {
    sample(static_cast<std::int64_t>(config.type1_plaintext) + jitter,
           core::RecordClass::kType1Json);
    sample(static_cast<std::int64_t>(config.type2_plaintext) + jitter,
           core::RecordClass::kType2Json);
    if (config.noise_plaintext != 0) {
      sample(static_cast<std::int64_t>(config.noise_plaintext) + jitter,
             core::RecordClass::kOther);
    }
  }
  sample(60, core::RecordClass::kOther);
  sample(4000, core::RecordClass::kOther);
  return calibration;
}

std::vector<net::Packet> make_session_template(const WorkloadConfig& config) {
  using util::Duration;
  using util::SimTime;
  tls::TlsSession session(effective_tls(config), util::Rng(config.seed));

  net::TcpEndpointConfig client;
  client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
  client.ip = net::Ipv4Address(10, 0, 0, 1);
  client.port = 51000;
  net::TcpEndpointConfig server = client;
  server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
  server.ip = net::Ipv4Address(198, 51, 100, 9);
  server.port = 443;
  net::TcpConnectionBuilder conn(client, server);

  const auto send_client = [&](SimTime at, std::size_t plaintext) {
    conn.send(net::FlowDirection::kClientToServer, at,
              tls::serialize_records(session.seal_application_data(plaintext)));
  };

  SimTime t = SimTime::from_seconds(0.0);
  conn.handshake(t, Duration::millis(20));
  conn.send(net::FlowDirection::kClientToServer, t + Duration::millis(30),
            tls::serialize_records(session.client_hello_flight()));
  conn.send(net::FlowDirection::kServerToClient, t + Duration::millis(50),
            tls::serialize_records(session.server_hello_flight()));
  conn.send(net::FlowDirection::kClientToServer, t + Duration::millis(70),
            tls::serialize_records(session.client_finished_flight()));
  // A slab of server content so the flow looks like streaming, not a
  // bare control channel.
  conn.send(net::FlowDirection::kServerToClient, t + Duration::millis(100),
            tls::serialize_records(session.seal_application_data(
                std::size_t{6000})));

  const Duration override_delay = effective_override_delay(config);
  const SimTime first_question = t + Duration::millis(200);
  for (std::size_t q = 0; q < config.questions_per_session; ++q) {
    const SimTime anchor =
        first_question + config.question_spacing * static_cast<std::int64_t>(q);
    if (config.noise_plaintext != 0) {
      send_client(anchor - Duration::millis(40), config.noise_plaintext);
    }
    send_client(anchor, config.type1_plaintext);
    if (question_overridden(config, q)) {
      send_client(anchor + override_delay, config.type2_plaintext);
    }
  }

  const SimTime end =
      first_question +
      config.question_spacing *
          static_cast<std::int64_t>(config.questions_per_session);
  conn.close(end, Duration::millis(20));
  return conn.take_packets();
}

SyntheticFleetSource::SyntheticFleetSource(WorkloadConfig config)
    : config_(std::move(config)), template_(make_session_template(config_)) {
  if (config_.sessions == 0 || template_.empty()) return;
  util::SimTime last;
  for (const net::Packet& packet : template_) {
    last = std::max(last, packet.timestamp);
  }
  period_ = (last - util::SimTime()) + config_.lane_gap;
  lane_count_ = std::max<std::size_t>(config_.concurrency, 1);
  lane_count_ = std::min(lane_count_, config_.sessions);
  stagger_ = util::Duration::nanos(period_.total_nanos() /
                                   static_cast<std::int64_t>(lane_count_));
  lanes_.resize(lane_count_);
  for (std::size_t l = 0; l < lane_count_; ++l) {
    lanes_[l] = Lane{l, 0};
    push_lane(l);
  }
}

util::Duration SyntheticFleetSource::session_shift(std::size_t session) const {
  const std::size_t lane = session % lane_count_;
  const std::size_t round = session / lane_count_;
  return (config_.start - util::SimTime()) +
         period_ * static_cast<std::int64_t>(round) +
         stagger_ * static_cast<std::int64_t>(lane);
}

void SyntheticFleetSource::push_lane(std::size_t lane) {
  const Lane& state = lanes_[lane];
  const std::int64_t nanos =
      (template_[state.index].timestamp + session_shift(state.session)).nanos();
  heap_.push(HeapItem{nanos, lane});
}

bool SyntheticFleetSource::produce(net::Packet& slot) {
  if (heap_.empty()) return false;
  const std::size_t lane_index = heap_.top().lane;
  heap_.pop();
  Lane& lane = lanes_[lane_index];

  const net::Packet& base = template_[lane.index];
  slot.timestamp = base.timestamp + session_shift(lane.session);
  slot.original_length = base.original_length;
  slot.data.assign(base.data.begin(), base.data.end());
  rewrite_ipv4_session(slot.data,
                       static_cast<std::uint32_t>(lane.session) & 0xffffffu);
  ++emitted_;

  if (++lane.index == template_.size()) {
    lane.index = 0;
    lane.session += lane_count_;
    if (lane.session >= config_.sessions) return true;  // lane retired
  }
  push_lane(lane_index);
  return true;
}

std::optional<net::Packet> SyntheticFleetSource::next() {
  net::Packet packet;
  if (!produce(packet)) return std::nullopt;
  return packet;
}

std::size_t SyntheticFleetSource::read_batch(engine::PacketBatch& out,
                                             std::size_t max) {
  out.clear();
  std::size_t count = 0;
  net::Packet scratch;
  while (count < max && produce(scratch)) {
    // append(Packet&&) swaps buffers, so scratch re-acquires the
    // slot's previous capacity — the fill loop stops allocating once
    // the batch has warmed up.
    out.append(std::move(scratch));
    ++count;
  }
  return count;
}

}  // namespace wm::monitor
