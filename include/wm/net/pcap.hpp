// Classic libpcap capture-file reading and writing, implemented from
// the file format specification (no libpcap dependency).
//
// Supported: both byte orders, microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) magic, arbitrary snaplen, LINKTYPE_ETHERNET. This is the
// on-disk interchange format between the simulator (which writes
// captures) and the attack pipeline (which reads them), exactly as
// Wireshark/tcpdump would sit between a real capture and analysis.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/util/mmap_file.hpp"

namespace wm::net {

/// LINKTYPE_* values from the tcpdump registry (only Ethernet is used
/// by this project, but the field round-trips).
enum class LinkType : std::uint32_t {
  kEthernet = 1,
  kRawIp = 101,
};

struct PcapFileHeader {
  static constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
  static constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;
  static constexpr std::size_t kSize = 24;

  bool nanosecond_resolution = true;
  bool byte_swapped = false;  // file written on an opposite-endian host
  std::uint16_t version_major = 2;
  std::uint16_t version_minor = 4;
  std::uint32_t snaplen = 262144;
  LinkType link_type = LinkType::kEthernet;
};

/// Streaming pcap writer.
class PcapWriter {
 public:
  /// Create/truncate `path` and write the file header. Throws
  /// std::runtime_error on I/O failure.
  PcapWriter(const std::filesystem::path& path, bool nanosecond_resolution = true,
             std::uint32_t snaplen = 262144);
  /// Write to an arbitrary stream (used by tests to write in memory).
  PcapWriter(std::ostream& out, bool nanosecond_resolution = true,
             std::uint32_t snaplen = 262144);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Append one packet record. Frames longer than snaplen are truncated
  /// with the original length preserved in the record header.
  void write(const Packet& packet);

  [[nodiscard]] std::size_t packets_written() const { return packets_written_; }

  /// Flush underlying stream.
  void flush();

 private:
  void write_file_header(std::uint32_t snaplen);

  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  bool nanos_;
  std::uint32_t snaplen_;
  std::size_t packets_written_ = 0;
};

/// Streaming pcap reader with a zero-copy fast path: opening by path
/// memory-maps the file and parses records straight out of the
/// mapping; opening from an istream (or when mmap is unavailable)
/// falls back to buffered streaming. Both paths yield byte-identical
/// packet sequences.
///
/// The in-place path serves every read from a bounded record index
/// built by eight interleaved cursors, so the walk's header misses
/// overlap instead of forming one dependent chain per packet
/// (DESIGN.md §3.3).
class PcapReader {
 public:
  /// Open `path` (mmap fast path when possible) and parse the file
  /// header. Throws std::runtime_error on malformed files.
  explicit PcapReader(const std::filesystem::path& path);
  /// Parse an already-mapped file in place (open_capture() maps once
  /// and sniffs the format from the mapping). `file` must be valid.
  explicit PcapReader(util::MappedFile file);
  /// Parse caller-owned bytes in place, exactly as a mapped file is
  /// parsed. `bytes` must outlive the reader and stay unchanged.
  explicit PcapReader(util::BytesView bytes);
  /// Read from an arbitrary stream (always the streaming path).
  explicit PcapReader(std::istream& in);
  ~PcapReader();

  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  [[nodiscard]] const PcapFileHeader& header() const { return header_; }

  /// True when records are parsed in place from a memory-mapped file
  /// (or caller-owned bytes), so views stay valid for the reader's
  /// lifetime.
  [[nodiscard]] bool memory_mapped() const noexcept { return in_ == nullptr; }

  /// Read the next packet; nullopt at clean end-of-file. Throws on a
  /// truncated or corrupt record.
  std::optional<Packet> next();

  /// Zero-copy read: the view borrows from the mapping (valid for the
  /// reader's lifetime) or, on the streaming path, from an internal
  /// staging buffer (valid until the next call). Same end/throw
  /// behaviour as next().
  std::optional<PacketView> next_view();

  /// Batched zero-copy read into `out[0, max)`; returns the count, 0 at
  /// clean end-of-file. The in-place path fills runs of views valid for
  /// the reader's lifetime; the streaming path returns at most one
  /// view, valid until the next call. The packets, the end and the
  /// exception (thrown by the first call that has no good record left
  /// to return, so after the same packet count) equal a next_view()
  /// loop's, and the calls interleave freely with next()/next_view().
  std::size_t next_views(PacketView* out, std::size_t max);

  /// Drain the remainder of the file.
  [[nodiscard]] std::vector<Packet> read_all();

 private:
  struct RecordHeader {
    util::SimTime timestamp;
    std::uint32_t captured = 0;
    std::uint32_t original = 0;
  };
  struct RecordIndex;

  void open_in_place();
  void parse_file_header(const std::uint8_t* bytes);
  void read_file_header();
  RecordHeader parse_record_header(const std::uint8_t* bytes) const;
  /// Streaming path: one buffered 16-byte read. False at clean EOF.
  [[nodiscard]] bool read_record_header(RecordHeader& out);
  std::uint32_t convert(std::uint32_t value) const;
  [[nodiscard]] bool plausible_captured(std::uint32_t captured) const;
  /// In-place acceptance rule: the length of the record at `pos`
  /// (header included), or 0 when the walk rejects it there.
  [[nodiscard]] std::size_t record_span(std::size_t pos) const;
  /// Throws the error a zero record_span(pos) stands for.
  [[noreturn]] void throw_rejected(std::size_t pos) const;
  /// Cursor-start heuristic: four chained records that the walk
  /// accepts and whose captured length is at most the original.
  [[nodiscard]] bool plausible_chain(std::size_t pos) const;
  /// Index the next window from pos_; false when the record at pos_ is
  /// one the walk rejects (or pos_ is at end of file).
  bool build_index();

  util::MappedFile map_;
  // wm-lint: allow(borrow): the in-place bytes are map_ itself or the
  // caller's buffer, which the BytesView constructor requires to
  // outlive the reader.
  util::BytesView file_;
  std::size_t pos_ = 0;   // verified offset of the next in-place record
  std::unique_ptr<RecordIndex> index_;  // in-place path; freed at EOF
  std::unique_ptr<std::istream> owned_;
  std::istream* in_ = nullptr;
  util::Bytes scratch_;  // streaming next_view() staging
  PcapFileHeader header_;
};

/// Convenience helpers.
void write_pcap(const std::filesystem::path& path, const std::vector<Packet>& packets);
[[nodiscard]] std::vector<Packet> read_pcap(const std::filesystem::path& path);

}  // namespace wm::net
