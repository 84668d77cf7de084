// Captured-packet representation and the layered decoder.
//
// A Packet is what a capture contains: a timestamp plus raw frame
// bytes. DecodedPacket is the parsed view an analyzer works with:
// Ethernet → IPv4/IPv6 → TCP/UDP, with the transport payload exposed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "wm/net/headers.hpp"
#include "wm/util/bytes.hpp"
#include "wm/util/time.hpp"

namespace wm::net {

/// A raw captured frame. `data` holds the full link-layer frame as it
/// appeared on the wire; `original_length` can exceed data.size() when a
/// capture was truncated (snaplen).
struct Packet {
  util::SimTime timestamp;
  util::Bytes data;
  std::size_t original_length = 0;

  Packet() = default;
  Packet(util::SimTime t, util::Bytes bytes)
      : timestamp(t), data(std::move(bytes)), original_length(data.size()) {}
};

/// A non-owning captured frame: what the zero-copy readers yield. The
/// bytes borrow from the producer's backing store (an mmap'd capture
/// file, a reader's staging buffer, a Packet someone else owns), so a
/// PacketView is valid only until the producer's next read — consumers
/// either finish with it immediately or assign_to() an owned Packet.
struct PacketView {
  util::SimTime timestamp;
  util::BytesView data;
  std::size_t original_length = 0;

  PacketView() = default;
  PacketView(util::SimTime t, util::BytesView bytes, std::size_t original)
      : timestamp(t), data(bytes), original_length(original) {}
  explicit PacketView(const Packet& packet)
      : timestamp(packet.timestamp),
        data(packet.data),
        original_length(packet.original_length) {}

  /// Copy into `out`, reusing out.data's existing capacity (the slot-
  /// recycling idiom: steady-state ingestion never mallocs per packet).
  void assign_to(Packet& out) const {
    out.timestamp = timestamp;
    out.data.assign(data.begin(), data.end());
    out.original_length = original_length;
  }

  /// Materialize an owning copy.
  [[nodiscard]] Packet to_packet() const {
    Packet packet;
    assign_to(packet);
    return packet;
  }
};

/// Fully parsed view of one packet. Views borrow from the Packet's
/// buffer, so a DecodedPacket must not outlive the Packet it came from.
struct DecodedPacket {
  util::SimTime timestamp;
  EthernetHeader ethernet;
  /// 802.1Q VLAN id when the frame was tagged (0 otherwise).
  std::uint16_t vlan_id = 0;
  std::variant<std::monostate, Ipv4Header, Ipv6Header> ip;
  std::variant<std::monostate, TcpHeader, UdpHeader> transport;
  // wm-lint: allow(borrow): points into the Packet::data the decoder was
  // handed; a DecodedPacket never outlives its Packet (batch contract).
  util::BytesView transport_payload;
  /// Transport payload bytes the wire packet carried beyond what the
  /// capture retained (snaplen truncation). The reassembler turns these
  /// into an explicit dead range instead of a silent hole.
  std::size_t transport_payload_missing = 0;

  [[nodiscard]] bool has_ipv4() const { return std::holds_alternative<Ipv4Header>(ip); }
  [[nodiscard]] bool has_ipv6() const { return std::holds_alternative<Ipv6Header>(ip); }
  [[nodiscard]] bool has_tcp() const {
    return std::holds_alternative<TcpHeader>(transport);
  }
  [[nodiscard]] bool has_udp() const {
    return std::holds_alternative<UdpHeader>(transport);
  }
  [[nodiscard]] const Ipv4Header& ipv4() const { return std::get<Ipv4Header>(ip); }
  [[nodiscard]] const Ipv6Header& ipv6() const { return std::get<Ipv6Header>(ip); }
  [[nodiscard]] const TcpHeader& tcp() const { return std::get<TcpHeader>(transport); }
  [[nodiscard]] const UdpHeader& udp() const { return std::get<UdpHeader>(transport); }

  /// One-line human-readable summary, e.g.
  /// "t=1.250s 10.0.0.2:51234 -> 198.18.0.1:443 TCP PSH|ACK len=1380".
  [[nodiscard]] std::string summary() const;
};

/// Decode a captured frame through Ethernet/IP/transport. Returns
/// nullopt when the frame is not parseable to at least the IP layer.
std::optional<DecodedPacket> decode_packet(const Packet& packet);

// --- Slab-batched hot-path decode -----------------------------------
//
// The full parse_* chain materializes headers (MAC addresses, option
// byte vectors, header checksums) that the record-extraction hot path
// never reads. A PacketLens is the minimal per-packet decode result
// that path does read: a classification, the flow 5-tuple as offsets
// into the frame, and the TCP fields the reassembler consumes. Lenses
// store offsets, not views, so they borrow nothing and can sit in a
// reusable slab.
//
// Two producers fill lenses: decode_lens() (scalar, one packet) and
// decode_slab() (column-wise over up to 256 packets: one pass per
// protocol layer, so each layer's branch pattern stays predictable on
// homogeneous traffic). Both must classify every frame exactly like
// decode_packet() — that three-way equivalence is pinned by the
// slab differential tests and by the extractor's slab paths against
// its per-packet feed().

/// What the hot path needs to know about a frame.
enum class LensStatus : std::uint8_t {
  /// decode_packet() would return nullopt for this frame.
  kUndecodable = 0,
  /// Decodable but not TCP (UDP or another IP protocol): counted and
  /// skipped by the extractor. Only `status` is meaningful.
  kNonTcp,
  /// TCP: every lens field below is filled.
  kTcp,
};

/// Per-packet decode result, all offsets relative to the frame start.
struct PacketLens {
  LensStatus status = LensStatus::kUndecodable;
  bool is_v6 = false;
  /// Raw TCP flag bits (low byte of the offset/flags word).
  std::uint8_t tcp_flags = 0;
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint32_t sequence = 0;
  /// Offset of the source address bytes; the destination address
  /// follows at +4 (IPv4) or +16 (IPv6) — both stacks lay the
  /// addresses out adjacently.
  std::uint32_t address_offset = 0;
  std::uint32_t payload_offset = 0;
  std::uint32_t payload_length = 0;
  /// Transport payload bytes the wire carried beyond the capture
  /// (snaplen truncation) — DecodedPacket::transport_payload_missing.
  std::uint32_t truncated_bytes = 0;

  [[nodiscard]] bool syn() const { return (tcp_flags & 0x02) != 0; }
  [[nodiscard]] bool fin() const { return (tcp_flags & 0x01) != 0; }
  [[nodiscard]] bool rst() const { return (tcp_flags & 0x04) != 0; }
  [[nodiscard]] bool ack() const { return (tcp_flags & 0x10) != 0; }
};

/// A reusable batch of lenses, decoded column-wise. Holds no pointers
/// into the packets; lens[i] describes the i-th packet the caller
/// passed to decode_slab().
struct DecodedSlab {
  static constexpr std::size_t kCapacity = 256;
  std::array<PacketLens, kCapacity> lens;
  std::size_t count = 0;
};

/// Scalar reference decode of one frame into a lens. Classification
/// and every filled field match decode_packet() exactly.
void decode_lens(const Packet& packet, PacketLens& out);
void decode_lens(const PacketView& packet, PacketLens& out);

/// Column-wise slab decode: Ethernet/VLAN pass, IP pass, transport
/// pass over `count` (<= DecodedSlab::kCapacity) packets. Byte-for-
/// byte equivalent to calling decode_lens() per packet. The PacketView
/// overload decodes borrowed frames in place (the zero-copy ingest
/// path) — fields and classification are identical for the same bytes.
void decode_slab(const Packet* packets, std::size_t count, DecodedSlab& out);
void decode_slab(const PacketView* packets, std::size_t count, DecodedSlab& out);

}  // namespace wm::net
