// Test-side packet source: replays a base capture lap after lap with
// fresh flow identities, the stand-in for an indefinitely running tap
// in the engine's eviction and per-viewer tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "wm/core/engine/source.hpp"
#include "wm/net/checksum.hpp"

namespace wm::test {

/// Replays a base capture for `laps` laps, shifting timestamps each lap
/// so the result is one continuous stream, and (by default) rewriting
/// IP addresses per lap so every lap carries fresh flows from a fresh
/// viewer. This turns a single captured session into an arbitrarily
/// long monitoring workload.
class ChunkedReplaySource final : public engine::PacketSource {
 public:
  struct Config {
    std::size_t laps = 1;
    /// Quiet gap appended after each lap before the next begins.
    util::Duration lap_gap = util::Duration::millis(50);
    /// Give each lap distinct IPv4 addresses (both endpoints; IPv4
    /// header checksum is recomputed). Off = replay identical bytes.
    bool rewrite_addresses = true;
  };

  ChunkedReplaySource(std::vector<net::Packet> base, Config config);

  std::optional<net::Packet> next() override;

  /// Lap 0 is handed out as a borrowed span (zero-copy); later laps
  /// shift/rewrite into recycled slots, leaving the base pristine.
  [[nodiscard]] std::size_t read_batch(engine::PacketBatch& out, std::size_t max) override;

  [[nodiscard]] std::size_t laps_completed() const { return lap_; }

 private:
  std::vector<net::Packet> base_;
  Config config_;
  util::Duration lap_span_{};
  std::size_t lap_ = 0;
  std::size_t index_ = 0;
};

namespace detail {

/// RFC 1624 incremental checksum update for one changed 16-bit word.
inline void incremental_checksum_fix(std::uint8_t* checksum, std::uint16_t old_word,
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

inline std::uint16_t word_at(const util::Bytes& data, std::size_t offset) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(data[offset]) << 8) |
                                    data[offset + 1]);
}

/// XOR `lap` into the second/third octet of both IPv4 addresses and
/// repair both checksums (IP header fully recomputed, TCP/UDP updated
/// incrementally through the pseudo-header delta). Leaves non-IPv4 and
/// VLAN-tagged frames untouched.
inline void rewrite_ipv4_lap(util::Bytes& data, std::uint16_t lap) {
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
  } else if (protocol == 17 && data.size() >= transport + 8 &&
             (data[transport + 6] != 0 || data[transport + 7] != 0)) {
    transport_checksum = transport + 6;  // zero means "no UDP checksum"
  }

  for (const std::size_t addr : {kIp + 12, kIp + 16}) {
    const std::uint16_t old_hi = word_at(data, addr);
    const std::uint16_t old_lo = word_at(data, addr + 2);
    data[addr + 1] ^= static_cast<std::uint8_t>(lap >> 8);
    data[addr + 2] ^= static_cast<std::uint8_t>(lap & 0xff);
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

}  // namespace detail

inline ChunkedReplaySource::ChunkedReplaySource(std::vector<net::Packet> base,
                                                Config config)
    : base_(std::move(base)), config_(config) {
  util::SimTime last;
  for (const net::Packet& packet : base_) {
    last = std::max(last, packet.timestamp);
  }
  lap_span_ = (last - util::SimTime()) + config_.lap_gap;
}

inline std::optional<net::Packet> ChunkedReplaySource::next() {
  if (base_.empty()) return std::nullopt;
  if (index_ >= base_.size()) {
    ++lap_;
    index_ = 0;
  }
  if (lap_ >= config_.laps) return std::nullopt;

  net::Packet packet = base_[index_++];
  if (lap_ > 0) {
    packet.timestamp += lap_span_ * static_cast<std::int64_t>(lap_);
    if (config_.rewrite_addresses) {
      detail::rewrite_ipv4_lap(packet.data, static_cast<std::uint16_t>(lap_));
    }
  }
  return packet;
}

inline std::size_t ChunkedReplaySource::read_batch(engine::PacketBatch& out, std::size_t max) {
  out.clear();
  if (base_.empty()) return 0;
  if (index_ >= base_.size()) {
    ++lap_;
    index_ = 0;
  }
  if (lap_ >= config_.laps) return 0;

  // Batches never straddle a lap boundary; the next call rolls over.
  const std::size_t count = std::min(max, base_.size() - index_);
  if (lap_ == 0) {
    // First lap replays the base verbatim — borrow it outright.
    out.borrow(base_.data() + index_, count);
    index_ += count;
    return count;
  }
  const util::Duration shift = lap_span_ * static_cast<std::int64_t>(lap_);
  for (std::size_t i = 0; i < count; ++i) {
    net::Packet& slot = out.append(base_[index_ + i]);
    slot.timestamp += shift;
    if (config_.rewrite_addresses) {
      detail::rewrite_ipv4_lap(slot.data, static_cast<std::uint16_t>(lap_));
    }
  }
  index_ += count;
  return count;
}

}  // namespace wm::test
