// pcapng (pcap Next Generation) capture-file support, implemented from
// the IETF draft format description: Section Header Block, Interface
// Description Block (with if_tsresol), Enhanced Packet Block. Unknown
// block types are skipped, both byte orders are read, and writing
// produces nanosecond-resolution single-interface files that Wireshark
// accepts. Complements the classic-pcap module so the attack pipeline
// ingests either capture format.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/util/mmap_file.hpp"

namespace wm::net {

/// pcapng block type codes used by this implementation.
enum class PcapngBlockType : std::uint32_t {
  kSectionHeader = 0x0a0d0d0a,
  kInterfaceDescription = 0x00000001,
  kEnhancedPacket = 0x00000006,
  kSimplePacket = 0x00000003,
};

/// Streaming pcapng writer (single Ethernet interface, ns resolution).
class PcapngWriter {
 public:
  explicit PcapngWriter(const std::filesystem::path& path,
                        std::string application = "whitemirror");
  explicit PcapngWriter(std::ostream& out, std::string application = "whitemirror");
  ~PcapngWriter();

  PcapngWriter(const PcapngWriter&) = delete;
  PcapngWriter& operator=(const PcapngWriter&) = delete;

  void write(const Packet& packet);
  [[nodiscard]] std::size_t packets_written() const { return packets_written_; }
  void flush();

 private:
  void write_preamble(const std::string& application);

  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  std::size_t packets_written_ = 0;
};

/// Streaming pcapng reader. Handles multiple sections and interfaces;
/// packets from non-Ethernet interfaces are skipped. Opening by path
/// memory-maps the file and parses blocks in place (zero-copy); the
/// istream constructor streams block-by-block through one recycled
/// staging buffer. Both paths yield byte-identical packet sequences.
class PcapngReader {
 public:
  explicit PcapngReader(const std::filesystem::path& path);
  /// Parse an already-mapped file in place (open_capture() maps once
  /// and sniffs the format from the mapping).
  explicit PcapngReader(util::MappedFile file);
  explicit PcapngReader(std::istream& in);
  ~PcapngReader();

  PcapngReader(const PcapngReader&) = delete;
  PcapngReader& operator=(const PcapngReader&) = delete;

  /// True when blocks are parsed from a memory-mapped file.
  [[nodiscard]] bool memory_mapped() const noexcept { return map_.valid(); }

  /// Next packet, or nullopt at end of file. Throws on corrupt blocks.
  std::optional<Packet> next();

  /// Zero-copy read: the view borrows from the mapping (valid for the
  /// reader's lifetime) or, when streaming, from the staging buffer
  /// (valid until the next call). Same end/throw behaviour as next().
  std::optional<PacketView> next_view();

  [[nodiscard]] std::vector<Packet> read_all();

  [[nodiscard]] std::size_t blocks_skipped() const { return blocks_skipped_; }

 private:
  struct Interface {
    std::uint16_t link_type = 1;
    /// Ticks per second (from if_tsresol; default 1e6 per the spec).
    std::uint64_t ticks_per_second = 1'000'000;
  };

  /// Streaming path: pull the next block's body into the staging
  /// buffer. False at clean EOF.
  [[nodiscard]] bool read_block_streamed(std::uint32_t& type, util::BytesView& body);
  /// Mapped path: parse the next block header in place. False at EOF.
  [[nodiscard]] bool read_block_mapped(std::uint32_t& type, util::BytesView& body);
  void start_section(util::BytesView body);
  void add_interface(util::BytesView body);
  std::optional<PacketView> parse_enhanced(util::BytesView body);

  util::MappedFile map_;
  std::size_t map_pos_ = 0;
  std::unique_ptr<std::istream> owned_;
  std::istream* in_ = nullptr;
  util::Bytes body_scratch_;  // streaming staging, recycled per block
  bool byte_swapped_ = false;
  std::vector<Interface> interfaces_;
  std::size_t blocks_skipped_ = 0;
};

/// Convenience helpers.
void write_pcapng(const std::filesystem::path& path,
                  const std::vector<Packet>& packets);
[[nodiscard]] std::vector<Packet> read_pcapng(const std::filesystem::path& path);

/// Sniff a capture file's format from its first bytes and read it with
/// the right reader ("pcap" magic vs pcapng SHB).
[[nodiscard]] std::vector<Packet> read_any_capture(const std::filesystem::path& path);

}  // namespace wm::net
