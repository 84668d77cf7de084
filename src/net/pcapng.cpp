#include "wm/net/pcapng.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "wm/net/pcap.hpp"
#include "wm/util/bytes.hpp"

namespace wm::net {

namespace {

constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;

void put_u16(util::Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(util::Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Append an option (code, value) with pcapng 4-byte padding.
void put_option(util::Bytes& out, std::uint16_t code, util::BytesView value) {
  put_u16(out, code);
  put_u16(out, static_cast<std::uint16_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
  while (out.size() % 4 != 0) out.push_back(0);
}

void put_end_of_options(util::Bytes& out) {
  put_u16(out, 0);  // opt_endofopt
  put_u16(out, 0);
}

/// Wrap a block body in the type/length framing and write it.
void write_block(std::ostream& out, std::uint32_t type, const util::Bytes& body) {
  const std::uint32_t total =
      static_cast<std::uint32_t>(12 + (body.size() + 3) / 4 * 4);
  util::Bytes frame;
  frame.reserve(total);
  put_u32(frame, type);
  put_u32(frame, total);
  frame.insert(frame.end(), body.begin(), body.end());
  while ((frame.size() + 4) % 4 != 0) frame.push_back(0);
  put_u32(frame, total);
  util::write_all(out, frame);
  if (!out) throw std::runtime_error("pcapng: write failed");
}

std::uint32_t byteswap32(std::uint32_t v) {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t byteswap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

}  // namespace

PcapngWriter::PcapngWriter(const std::filesystem::path& path, std::string application)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::binary)),
      out_(owned_.get()) {
  if (!*out_) {
    throw std::runtime_error("PcapngWriter: cannot open " + path.string());
  }
  write_preamble(application);
}

PcapngWriter::PcapngWriter(std::ostream& out, std::string application) : out_(&out) {
  write_preamble(application);
}

PcapngWriter::~PcapngWriter() {
  if (out_) out_->flush();
}

void PcapngWriter::write_preamble(const std::string& application) {
  // Section Header Block.
  util::Bytes shb;
  put_u32(shb, kByteOrderMagic);
  put_u16(shb, 1);  // major
  put_u16(shb, 0);  // minor
  put_u64(shb, 0xffffffffffffffffull);  // section length unknown
  put_option(shb, 4 /*shb_userappl*/, util::as_bytes(application));
  put_end_of_options(shb);
  write_block(*out_, static_cast<std::uint32_t>(PcapngBlockType::kSectionHeader), shb);

  // Interface Description Block: Ethernet, nanosecond timestamps.
  util::Bytes idb;
  put_u16(idb, 1);  // LINKTYPE_ETHERNET
  put_u16(idb, 0);  // reserved
  put_u32(idb, 0);  // snaplen unlimited
  const std::uint8_t tsresol = 9;  // 10^-9
  put_option(idb, 9 /*if_tsresol*/, util::BytesView(&tsresol, 1));
  put_end_of_options(idb);
  write_block(*out_,
              static_cast<std::uint32_t>(PcapngBlockType::kInterfaceDescription),
              idb);
}

void PcapngWriter::write(const Packet& packet) {
  if (packet.timestamp.nanos() < 0) {
    throw std::invalid_argument("PcapngWriter: negative timestamp");
  }
  const auto ticks = static_cast<std::uint64_t>(packet.timestamp.nanos());

  util::Bytes epb;
  put_u32(epb, 0);  // interface id
  put_u32(epb, static_cast<std::uint32_t>(ticks >> 32));
  put_u32(epb, static_cast<std::uint32_t>(ticks & 0xffffffffu));
  put_u32(epb, static_cast<std::uint32_t>(packet.data.size()));
  put_u32(epb, static_cast<std::uint32_t>(
                   std::max(packet.original_length, packet.data.size())));
  epb.insert(epb.end(), packet.data.begin(), packet.data.end());
  while (epb.size() % 4 != 0) epb.push_back(0);
  write_block(*out_, static_cast<std::uint32_t>(PcapngBlockType::kEnhancedPacket),
              epb);
  ++packets_written_;
}

void PcapngWriter::flush() { out_->flush(); }

PcapngReader::PcapngReader(const std::filesystem::path& path)
    : map_(util::MappedFile::open(path)) {
  if (map_.valid()) return;  // fast path: blocks parsed in place
  owned_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  in_ = owned_.get();
  if (!*in_) {
    throw std::runtime_error("PcapngReader: cannot open " + path.string());
  }
}

PcapngReader::PcapngReader(util::MappedFile file) : map_(std::move(file)) {}

PcapngReader::PcapngReader(std::istream& in) : in_(&in) {}

PcapngReader::~PcapngReader() = default;

bool PcapngReader::read_block_mapped(std::uint32_t& type, util::BytesView& body) {
  const util::BytesView file = map_.view();
  if (map_pos_ == file.size()) return false;  // clean EOF
  if (file.size() - map_pos_ < 12) {
    throw std::runtime_error("pcapng: truncated block header");
  }
  const std::uint8_t* base = file.data() + map_pos_;
  std::uint32_t length = 0;
  std::memcpy(&type, base, 4);
  std::memcpy(&length, base + 4, 4);
  // The SHB announces byte order; other blocks use the section's order.
  if (type == static_cast<std::uint32_t>(PcapngBlockType::kSectionHeader)) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, base + 8, 4);
    byte_swapped_ = magic != kByteOrderMagic;
    if (byte_swapped_ && byteswap32(magic) != kByteOrderMagic) {
      throw std::runtime_error("pcapng: bad byte-order magic");
    }
  }
  if (byte_swapped_) length = byteswap32(length);
  if (length < 12 || length % 4 != 0) {
    throw std::runtime_error("pcapng: implausible block length");
  }
  if (file.size() - map_pos_ < length) {
    throw std::runtime_error("pcapng: truncated block body");
  }
  std::uint32_t trailing = 0;
  std::memcpy(&trailing, base + length - 4, 4);
  if ((byte_swapped_ ? byteswap32(trailing) : trailing) != length) {
    throw std::runtime_error("pcapng: trailer length mismatch");
  }
  body = file.subspan(map_pos_ + 8, length - 12);
  map_pos_ += length;
  // Overlap the next block header's cache miss with the caller's work
  // on this block (the block stride defeats the hardware prefetcher).
  if (map_pos_ < file.size()) __builtin_prefetch(file.data() + map_pos_);
  return true;
}

bool PcapngReader::read_block_streamed(std::uint32_t& type, util::BytesView& body) {
  std::uint8_t header[8];
  const std::size_t header_read = util::read_exact(*in_, header, 8);
  if (header_read == 0) return false;  // clean EOF
  if (header_read != 8) throw std::runtime_error("pcapng: truncated block header");
  std::uint32_t length = 0;
  std::memcpy(&type, header, 4);
  std::memcpy(&length, header + 4, 4);
  // The SHB announces byte order; other blocks use the section's order.
  // Its byte-order magic (first body word) must be consumed before the
  // length can be interpreted, so stage it ahead of the bulk body read.
  std::size_t prefix = 0;
  std::uint8_t magic_bytes[4];
  if (type == static_cast<std::uint32_t>(PcapngBlockType::kSectionHeader)) {
    if (util::read_exact(*in_, magic_bytes, 4) != 4) {
      throw std::runtime_error("pcapng: truncated SHB");
    }
    std::uint32_t magic = 0;
    std::memcpy(&magic, magic_bytes, 4);
    byte_swapped_ = magic != kByteOrderMagic;
    if (byte_swapped_ && byteswap32(magic) != kByteOrderMagic) {
      throw std::runtime_error("pcapng: bad byte-order magic");
    }
    prefix = 4;
  }
  if (byte_swapped_) length = byteswap32(length);
  if (length < 12 || length % 4 != 0 || length - 12 < prefix) {
    throw std::runtime_error("pcapng: implausible block length");
  }
  const std::size_t body_size = length - 12;
  // Body and trailer land in the recycled staging buffer with one bulk
  // read; steady state re-uses the buffer's capacity (no per-block
  // allocation).
  body_scratch_.resize(body_size + 4);
  std::memcpy(body_scratch_.data(), magic_bytes, prefix);
  const std::size_t want = body_size + 4 - prefix;
  if (util::read_exact(*in_, body_scratch_.data() + prefix, want) != want) {
    throw std::runtime_error("pcapng: truncated block body");
  }
  std::uint32_t trailing = 0;
  std::memcpy(&trailing, body_scratch_.data() + body_size, 4);
  if ((byte_swapped_ ? byteswap32(trailing) : trailing) != length) {
    throw std::runtime_error("pcapng: trailer length mismatch");
  }
  body = util::BytesView(body_scratch_.data(), body_size);
  return true;
}

void PcapngReader::start_section(util::BytesView body) {
  interfaces_.clear();
  if (body.size() < 4) throw std::runtime_error("pcapng: SHB too short");
  // Byte order was already established from the magic while framing the
  // block; nothing else needed here.
}

void PcapngReader::add_interface(util::BytesView body) {
  if (body.size() < 8) throw std::runtime_error("pcapng: IDB too short");
  Interface iface;
  std::uint16_t link = 0;
  std::memcpy(&link, body.data(), 2);
  iface.link_type = byte_swapped_ ? byteswap16(link) : link;

  // Walk options for if_tsresol (code 9).
  std::size_t pos = 8;
  while (pos + 4 <= body.size()) {
    std::uint16_t code = 0;
    std::uint16_t len = 0;
    std::memcpy(&code, body.data() + pos, 2);
    std::memcpy(&len, body.data() + pos + 2, 2);
    if (byte_swapped_) {
      code = byteswap16(code);
      len = byteswap16(len);
    }
    pos += 4;
    if (code == 0) break;  // end of options
    if (code == 9 && len >= 1 && pos < body.size()) {
      const std::uint8_t tsresol = body[pos];
      const std::uint8_t exponent = tsresol & 0x7f;
      // A resolution finer than 2^63 (or 10^19) ticks/second cannot be
      // represented in the 64-bit tick counter — the file is lying.
      // (Found by fuzzing: 1ull << 89 is undefined behaviour.)
      if ((tsresol & 0x80) ? exponent > 63 : exponent > 19) {
        throw std::runtime_error("pcapng: unrepresentable if_tsresol");
      }
      if (tsresol & 0x80) {
        iface.ticks_per_second = 1ull << exponent;
      } else {
        iface.ticks_per_second = 1;
        for (int i = 0; i < exponent; ++i) iface.ticks_per_second *= 10;
      }
    }
    pos += (len + 3u) / 4u * 4u;
  }
  interfaces_.push_back(iface);
}

std::optional<PacketView> PcapngReader::parse_enhanced(util::BytesView body) {
  if (body.size() < 20) throw std::runtime_error("pcapng: EPB too short");
  auto read_u32_at = [&](std::size_t offset) {
    std::uint32_t v = 0;
    std::memcpy(&v, body.data() + offset, 4);
    return byte_swapped_ ? byteswap32(v) : v;
  };
  const std::uint32_t interface_id = read_u32_at(0);
  const std::uint64_t ticks =
      (static_cast<std::uint64_t>(read_u32_at(4)) << 32) | read_u32_at(8);
  const std::uint32_t captured = read_u32_at(12);
  const std::uint32_t original = read_u32_at(16);
  if (20 + captured > body.size()) {
    throw std::runtime_error("pcapng: EPB captured length exceeds block");
  }
  if (interface_id >= interfaces_.size()) {
    throw std::runtime_error("pcapng: EPB references unknown interface");
  }
  const Interface& iface = interfaces_[interface_id];
  if (iface.link_type != 1) return std::nullopt;  // non-Ethernet: skip

  PacketView view;
  const double seconds =
      static_cast<double>(ticks) / static_cast<double>(iface.ticks_per_second);
  // Exact when ticks_per_second divides 1e9 (the common cases).
  if (1'000'000'000ull % iface.ticks_per_second == 0) {
    const std::uint64_t scale = 1'000'000'000ull / iface.ticks_per_second;
    view.timestamp =
        util::SimTime::from_nanos(static_cast<std::int64_t>(ticks * scale));
  } else {
    view.timestamp = util::SimTime::from_seconds(seconds);
  }
  view.data = body.subspan(20, captured);
  view.original_length = original;
  return view;
}

std::optional<PacketView> PcapngReader::next_view() {
  for (;;) {
    std::uint32_t type = 0;
    util::BytesView body;
    const bool have_block = map_.valid() ? read_block_mapped(type, body)
                                         : read_block_streamed(type, body);
    if (!have_block) return std::nullopt;

    switch (static_cast<PcapngBlockType>(type)) {
      case PcapngBlockType::kSectionHeader:
        start_section(body);
        break;
      case PcapngBlockType::kInterfaceDescription:
        add_interface(body);
        break;
      case PcapngBlockType::kEnhancedPacket: {
        auto view = parse_enhanced(body);
        if (view) return view;
        break;
      }
      default:
        ++blocks_skipped_;
        break;
    }
  }
}

std::optional<Packet> PcapngReader::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return view->to_packet();
}

std::vector<Packet> PcapngReader::read_all() {
  std::vector<Packet> out;
  while (auto packet = next()) out.push_back(std::move(*packet));
  return out;
}

void write_pcapng(const std::filesystem::path& path,
                  const std::vector<Packet>& packets) {
  PcapngWriter writer(path);
  for (const Packet& packet : packets) writer.write(packet);
}

std::vector<Packet> read_pcapng(const std::filesystem::path& path) {
  PcapngReader reader(path);
  return reader.read_all();
}

std::vector<Packet> read_any_capture(const std::filesystem::path& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    throw std::runtime_error("read_any_capture: cannot open " + path.string());
  }
  std::uint32_t magic = 0;
  std::uint8_t magic_bytes[4] = {};
  if (util::read_exact(probe, magic_bytes, 4) == 4) {
    std::memcpy(&magic, magic_bytes, 4);
  }
  probe.close();
  if (magic == static_cast<std::uint32_t>(PcapngBlockType::kSectionHeader)) {
    return read_pcapng(path);
  }
  return read_pcap(path);
}

}  // namespace wm::net
