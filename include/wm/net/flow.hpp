// Flow identification: canonical 5-tuple keys, per-flow direction, and
// a flow table that groups decoded packets into bidirectional flows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/obs/metrics.hpp"

namespace wm::net {

/// Which way a packet travels within its bidirectional flow.
enum class FlowDirection : std::uint8_t {
  kClientToServer,
  kServerToClient,
};

std::string to_string(FlowDirection direction);

/// One endpoint of a flow. IPv6 addresses are supported alongside IPv4;
/// exactly one of the address fields is meaningful per key (`is_v6`).
struct Endpoint {
  bool is_v6 = false;
  Ipv4Address v4;
  Ipv6Address v6;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  auto operator<=>(const Endpoint&) const = default;
};

/// Canonical bidirectional flow key. The "client" is the endpoint that
/// was seen initiating (first packet / SYN); the key stores client and
/// server in that orientation so both directions map to the same key.
struct FlowKey {
  Endpoint client;
  Endpoint server;
  IpProtocol protocol = IpProtocol::kTcp;

  [[nodiscard]] std::string to_string() const;
  auto operator<=>(const FlowKey&) const = default;
};

/// Extract the (source, destination, protocol) endpoints of a decoded
/// packet; nullopt for non-TCP/UDP packets.
struct PacketEndpoints {
  Endpoint source;
  Endpoint destination;
  IpProtocol protocol = IpProtocol::kTcp;
};
std::optional<PacketEndpoints> packet_endpoints(const DecodedPacket& packet);

/// A packet's membership record inside a flow.
struct FlowPacket {
  std::size_t packet_index = 0;  // index into the original capture
  util::SimTime timestamp;
  FlowDirection direction = FlowDirection::kClientToServer;
  std::size_t transport_payload_size = 0;
  // TCP-only bookkeeping used by the reassembler:
  std::uint32_t sequence = 0;
  bool syn = false;
  bool fin = false;
  bool rst = false;
};

/// Aggregate statistics and membership for one bidirectional flow.
struct FlowRecord {
  FlowKey key;
  std::vector<FlowPacket> packets;
  std::uint64_t client_bytes = 0;  // transport payload bytes client->server
  std::uint64_t server_bytes = 0;
  util::SimTime first_seen;
  util::SimTime last_seen;
  bool saw_syn = false;

  [[nodiscard]] std::uint64_t total_bytes() const {
    return client_bytes + server_bytes;
  }
  [[nodiscard]] util::Duration duration() const { return last_seen - first_seen; }
};

/// Groups a packet sequence into bidirectional flows.
///
/// Orientation rule: for TCP, the sender of the first pure SYN is the
/// client; otherwise (no SYN observed — mid-stream capture) the sender
/// of the first packet of the flow is presumed the client, unless its
/// source port is a well-known service port (< 1024) and the peer's is
/// not, in which case orientation flips.
class FlowTable {
 public:
  struct Config {
    /// Flows idle for longer than this become eligible for eviction
    /// via evict_idle(). Zero means "never" (the historical behaviour:
    /// a batch analysis over a finite capture keeps every flow).
    util::Duration idle_timeout{};
    /// Keep the per-packet membership list in each FlowRecord.
    /// Streaming consumers that only need the aggregates turn this off
    /// so per-flow memory stays constant regardless of flow length.
    bool track_packets = true;
    /// Observability hooks (wm::obs). May be null — the uninstrumented
    /// table pays one branch per event. Bumped on new-flow creation and
    /// on each idle eviction respectively.
    obs::Counter* created_counter = nullptr;
    obs::Counter* evicted_counter = nullptr;
  };

  FlowTable() = default;
  explicit FlowTable(Config config) : config_(config) {}

  /// Add one decoded packet (with its index in the capture order).
  /// Returns the flow key and direction assigned, or nullopt if the
  /// packet has no TCP/UDP transport.
  struct Assignment {
    FlowKey key;
    FlowDirection direction;
  };
  std::optional<Assignment> add(const DecodedPacket& packet, std::size_t packet_index);

  /// Drop every flow whose last activity is more than the configured
  /// idle timeout before `now`, returning the evicted keys so owners of
  /// parallel per-flow state (reassemblers, TLS parsers) can drop it
  /// too. No-op (returns empty) when the timeout is zero.
  std::vector<FlowKey> evict_idle(util::SimTime now);

  /// Drop one flow immediately (e.g. its connection was RST-torn and
  /// the owner already snapshotted the per-flow state). Returns true
  /// when the key was present. Not counted as an idle eviction.
  bool remove(const FlowKey& key);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t flows_evicted() const { return evicted_; }

  [[nodiscard]] const std::map<FlowKey, FlowRecord>& flows() const { return flows_; }
  [[nodiscard]] std::size_t size() const { return flows_.size(); }
  [[nodiscard]] const FlowRecord* find(const FlowKey& key) const;

  /// Flows sorted by total payload volume, descending. Useful for
  /// picking out the dominant (video) flow.
  [[nodiscard]] std::vector<const FlowRecord*> by_volume() const;

 private:
  Config config_;
  std::map<FlowKey, FlowRecord> flows_;
  std::uint64_t evicted_ = 0;
};

/// Direction-symmetric 64-bit hash of a raw frame's 5-tuple, parsed
/// straight from the wire bytes (Ethernet → IPv4/IPv6 → TCP/UDP)
/// without building a DecodedPacket. Both directions of a flow hash
/// identically, so packets partitioned by it keep every flow whole
/// (viewer_shard_hash falls back to it). Returns nullopt for frames
/// with no TCP/UDP transport.
std::optional<std::uint64_t> flow_shard_hash(const Packet& packet);

/// Direction-symmetric 64-bit hash of an endpoint pair — the same
/// value `flow_shard_hash` computes from the raw frame, but starting
/// from already-extracted endpoints. Hot-path flow indexes key on this
/// so a lookup costs one hash + probe instead of an ordered-key
/// comparison chain; both orientations of a flow hash identically.
std::uint64_t endpoint_pair_hash(const Endpoint& a, const Endpoint& b,
                                 IpProtocol protocol);

/// 64-bit hash of the *viewer* (client) address parsed from the raw
/// frame, for partitioning packets across ContinuousMonitor shards so
/// every flow belonging to one subscriber lands on the same shard. The
/// server side is identified by the same heuristic FlowTable uses for
/// SYN-less flows: a well-known port (< 1024) on exactly one endpoint.
/// When the orientation is undecidable (both or neither endpoint on a
/// well-known port) this degrades to flow_shard_hash — flows stay
/// whole, but one viewer's flows may then land on different shards.
/// Returns nullopt for frames with no TCP/UDP transport.
std::optional<std::uint64_t> viewer_shard_hash(const Packet& packet);

}  // namespace wm::net
