#include "wm/net/pcap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "wm/util/bytes.hpp"

namespace wm::net {

namespace {

void write_u16(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void write_u32(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes, 4);
}

std::uint32_t load_u32_le(const std::uint8_t* bytes) {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

std::uint32_t byteswap32(std::uint32_t v) {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

[[noreturn]] void throw_unexpected_eof() {
  throw std::runtime_error("pcap: unexpected end of file");
}

[[noreturn]] void throw_implausible_length() {
  throw std::runtime_error("PcapReader: implausible captured length (corrupt file?)");
}

[[noreturn]] void throw_truncated_record() {
  throw std::runtime_error("PcapReader: truncated packet record");
}

}  // namespace

PcapWriter::PcapWriter(const std::filesystem::path& path, bool nanosecond_resolution,
                       std::uint32_t snaplen)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::binary)),
      out_(owned_.get()),
      nanos_(nanosecond_resolution),
      snaplen_(snaplen) {
  if (!*out_) {
    throw std::runtime_error("PcapWriter: cannot open " + path.string());
  }
  write_file_header(snaplen);
}

PcapWriter::PcapWriter(std::ostream& out, bool nanosecond_resolution,
                       std::uint32_t snaplen)
    : out_(&out), nanos_(nanosecond_resolution), snaplen_(snaplen) {
  write_file_header(snaplen);
}

PcapWriter::~PcapWriter() {
  if (out_) out_->flush();
}

void PcapWriter::write_file_header(std::uint32_t snaplen) {
  write_u32(*out_, nanos_ ? PcapFileHeader::kMagicNanos : PcapFileHeader::kMagicMicros);
  write_u16(*out_, 2);  // version major
  write_u16(*out_, 4);  // version minor
  write_u32(*out_, 0);  // thiszone
  write_u32(*out_, 0);  // sigfigs
  write_u32(*out_, snaplen);
  write_u32(*out_, static_cast<std::uint32_t>(LinkType::kEthernet));
}

void PcapWriter::write(const Packet& packet) {
  const std::int64_t total_ns = packet.timestamp.nanos();
  if (total_ns < 0) {
    throw std::invalid_argument("PcapWriter: negative timestamp");
  }
  const auto seconds = static_cast<std::uint32_t>(total_ns / 1'000'000'000);
  const auto subsec = static_cast<std::uint32_t>(total_ns % 1'000'000'000);
  const std::uint32_t fraction = nanos_ ? subsec : subsec / 1'000;

  const std::size_t captured = std::min<std::size_t>(packet.data.size(), snaplen_);
  const std::size_t original = std::max(packet.original_length, packet.data.size());

  write_u32(*out_, seconds);
  write_u32(*out_, fraction);
  write_u32(*out_, static_cast<std::uint32_t>(captured));
  write_u32(*out_, static_cast<std::uint32_t>(original));
  util::write_all(*out_, util::BytesView(packet.data).first(captured));
  if (!*out_) throw std::runtime_error("PcapWriter: write failed");
  ++packets_written_;
}

void PcapWriter::flush() { out_->flush(); }

// --- Record index ----------------------------------------------------
//
// A record's offset is known only once the previous header has been
// read, so a serial walk over a cold capture is one dependent cache miss
// per packet. The in-place path instead indexes a window of the file
// with kCursors cursors that step round-robin, one record per turn, so
// their header misses overlap. Cursor 0 starts at the verified position;
// cursor k at the first plausible record chain past k/kCursors of the
// window, looked for within a few observed record lengths. A cursor's
// records are kept only when the walk before it lands exactly on its
// start, which makes the kept prefix the very records a serial walk
// would read; where it does not, the window ends early and the next one
// starts there. A window whose scan finds no start, or whose cursor 1
// is overshot, lets the next kSoloWindows windows skip the scan: on a
// capture where starts never verify, cursor 0 walks alone and the scan
// is paid once per kSoloWindows + 1 windows.

namespace {

constexpr std::size_t kCursors = 8;
constexpr std::size_t kIndexCapacity = 8192;  // u32 offsets: 32 KiB
constexpr std::size_t kPerCursor = kIndexCapacity / kCursors;
// Segments are sized for this many records, leaving slack for bursts
// of small records before a cursor's share of the index is full.
constexpr std::size_t kTargetPerCursor = kPerCursor * 3 / 4;
constexpr std::size_t kFirstWindow = 256 * 1024;
constexpr std::size_t kMinWindow = 4 * 1024;
constexpr std::size_t kMaxWindow = 8 * 1024 * 1024;
// A cursor-start scan covers this many observed record lengths (at
// least a full-size Ethernet record), so a capture on which no cursor
// ever verifies costs a few bytes of scan per record served.
constexpr std::size_t kScanRecords = 4;
constexpr std::size_t kMinScan = 2048;
constexpr std::size_t kSoloWindows = 16;
constexpr std::size_t kChainProbe = 4;
constexpr std::size_t kPrefetchAhead = 12;
constexpr std::size_t kRecordHeaderSize = 16;

}  // namespace

struct PcapReader::RecordIndex {
  std::array<std::uint32_t, kIndexCapacity> offsets;  // relative to base
  std::size_t base = 0;
  std::size_t size = 0;  // records indexed
  std::size_t next = 0;  // first record not yet served; at pos_
  std::size_t window = kFirstWindow;
  std::size_t scan = kFirstWindow / kCursors;  // cursor-start scan length
  std::size_t solo = 0;  // windows left that cursor 0 walks alone
};

PcapReader::PcapReader(const std::filesystem::path& path)
    : map_(util::MappedFile::open(path)) {
  if (map_.valid()) {
    // Fast path: the whole capture is addressable; records are parsed
    // in place and next_view() borrows straight from the mapping.
    file_ = map_.view();
    open_in_place();
    return;
  }
  owned_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  in_ = owned_.get();
  if (!*in_) {
    throw std::runtime_error("PcapReader: cannot open " + path.string());
  }
  read_file_header();
}

PcapReader::PcapReader(util::MappedFile file)
    : map_(std::move(file)), file_(map_.view()) {
  open_in_place();
}

PcapReader::PcapReader(util::BytesView bytes) : file_(bytes) { open_in_place(); }

PcapReader::PcapReader(std::istream& in) : in_(&in) { read_file_header(); }

PcapReader::~PcapReader() = default;

void PcapReader::open_in_place() {
  if (file_.size() < PcapFileHeader::kSize) throw_unexpected_eof();
  parse_file_header(file_.data());
  pos_ = PcapFileHeader::kSize;
}

std::uint32_t PcapReader::convert(std::uint32_t value) const {
  return header_.byte_swapped ? byteswap32(value) : value;
}

void PcapReader::parse_file_header(const std::uint8_t* bytes) {
  std::uint32_t magic = load_u32_le(bytes);
  if (magic == byteswap32(PcapFileHeader::kMagicMicros) ||
      magic == byteswap32(PcapFileHeader::kMagicNanos)) {
    header_.byte_swapped = true;
    magic = byteswap32(magic);
  }
  if (magic == PcapFileHeader::kMagicMicros) {
    header_.nanosecond_resolution = false;
  } else if (magic == PcapFileHeader::kMagicNanos) {
    header_.nanosecond_resolution = true;
  } else {
    throw std::runtime_error("PcapReader: bad magic number");
  }

  const std::uint32_t versions = convert(load_u32_le(bytes + 4));
  header_.version_major = static_cast<std::uint16_t>(versions & 0xffff);
  header_.version_minor = static_cast<std::uint16_t>(versions >> 16);
  if (header_.byte_swapped) {
    // convert() flipped all four bytes; the two u16s are themselves
    // stored in the file's native order, so swap halves back.
    header_.version_major = static_cast<std::uint16_t>(versions >> 16);
    header_.version_minor = static_cast<std::uint16_t>(versions & 0xffff);
  }
  // bytes + 8: thiszone, bytes + 12: sigfigs — both ignored.
  header_.snaplen = convert(load_u32_le(bytes + 16));
  header_.link_type = static_cast<LinkType>(convert(load_u32_le(bytes + 20)));
  if (header_.link_type != LinkType::kEthernet) {
    throw std::runtime_error("PcapReader: unsupported link type");
  }
}

void PcapReader::read_file_header() {
  std::uint8_t bytes[PcapFileHeader::kSize];
  if (util::read_exact(*in_, bytes, PcapFileHeader::kSize) !=
      PcapFileHeader::kSize) {
    throw_unexpected_eof();
  }
  parse_file_header(bytes);
}

PcapReader::RecordHeader PcapReader::parse_record_header(
    const std::uint8_t* bytes) const {
  const std::uint32_t seconds = convert(load_u32_le(bytes));
  const std::uint32_t fraction = convert(load_u32_le(bytes + 4));
  RecordHeader record;
  record.captured = convert(load_u32_le(bytes + 8));
  record.original = convert(load_u32_le(bytes + 12));
  const std::uint64_t nanos =
      static_cast<std::uint64_t>(seconds) * 1'000'000'000ull +
      (header_.nanosecond_resolution
           ? fraction
           : static_cast<std::uint64_t>(fraction) * 1'000ull);
  record.timestamp = util::SimTime::from_nanos(static_cast<std::int64_t>(nanos));
  return record;
}

bool PcapReader::read_record_header(RecordHeader& out) {
  // Probe for EOF before committing to a record, then take the whole
  // 16-byte header in one buffered read instead of four field reads.
  if (in_->peek() == std::char_traits<char>::eof()) return false;
  std::uint8_t bytes[kRecordHeaderSize];
  if (util::read_exact(*in_, bytes, kRecordHeaderSize) != kRecordHeaderSize) {
    throw_unexpected_eof();
  }
  out = parse_record_header(bytes);
  if (!plausible_captured(out.captured)) throw_implausible_length();
  return true;
}

bool PcapReader::plausible_captured(std::uint32_t captured) const {
  return captured <= header_.snaplen + 65536;
}

std::size_t PcapReader::record_span(std::size_t pos) const {
  const std::size_t left = file_.size() - pos;
  if (left < kRecordHeaderSize) return 0;
  const std::uint32_t captured = convert(load_u32_le(file_.data() + pos + 8));
  if (!plausible_captured(captured)) return 0;
  if (left - kRecordHeaderSize < captured) return 0;
  return kRecordHeaderSize + captured;
}

void PcapReader::throw_rejected(std::size_t pos) const {
  if (file_.size() - pos < kRecordHeaderSize) throw_unexpected_eof();
  if (!plausible_captured(convert(load_u32_le(file_.data() + pos + 8)))) {
    throw_implausible_length();
  }
  throw_truncated_record();
}

bool PcapReader::plausible_chain(std::size_t pos) const {
  for (std::size_t i = 0; i < kChainProbe; ++i) {
    const std::size_t span = record_span(pos);
    if (span == 0) return false;
    const std::uint8_t* header = file_.data() + pos;
    if (convert(load_u32_le(header + 8)) > convert(load_u32_le(header + 12))) {
      return false;
    }
    pos += span;
  }
  return true;
}

bool PcapReader::build_index() {
  RecordIndex& index = *index_;
  const std::size_t base = pos_;
  index.base = base;
  index.size = 0;
  index.next = 0;
  if (record_span(base) == 0) return false;  // EOF or a rejected record

  const std::size_t window = std::min(index.window, file_.size() - base);
  const std::size_t end = base + window;
  struct Cursor {
    std::size_t start;
    std::size_t pos;
    std::size_t stop;  // the next cursor's start, or the window end
    std::size_t count;
  };
  std::array<Cursor, kCursors> cursors{};
  std::size_t used = 1;
  cursors[0].start = base;
  const bool scanned = index.solo == 0;
  if (!scanned) --index.solo;
  for (std::size_t k = 1; scanned && k < kCursors; ++k) {
    const std::size_t scan_from =
        std::max(base + k * window / kCursors, cursors[used - 1].start + 1);
    const std::size_t scan_end =
        std::min(base + (k + 1) * window / kCursors, scan_from + index.scan);
    for (std::size_t pos = scan_from; pos < scan_end; ++pos) {
      if (plausible_chain(pos)) {
        cursors[used++].start = pos;
        break;
      }
    }
  }
  for (std::size_t c = 0; c < used; ++c) {
    cursors[c].pos = cursors[c].start;
    cursors[c].stop = c + 1 < used ? cursors[c + 1].start : end;
  }

  // Round-robin walk: one record per live cursor per turn. A cursor
  // retires on reaching its stop, filling its share of the index, or
  // meeting a record the walk rejects.
  std::array<std::size_t, kCursors> live{};
  for (std::size_t c = 0; c < used; ++c) live[c] = c;
  std::size_t live_count = used;
  while (live_count > 0) {
    for (std::size_t i = 0; i < live_count;) {
      Cursor& cursor = cursors[live[i]];
      const std::size_t span = cursor.pos < cursor.stop && cursor.count < kPerCursor
                                   ? record_span(cursor.pos)
                                   : 0;
      if (span == 0) {
        live[i] = live[--live_count];
        continue;
      }
      index.offsets[live[i] * kPerCursor + cursor.count++] =
          static_cast<std::uint32_t>(cursor.pos - base);
      cursor.pos += span;
      ++i;
    }
  }

  // Keep cursor c only when cursor c-1, itself kept, landed exactly on
  // its start; compact the kept segments into one run.
  index.size = cursors[0].count;
  std::size_t verified_end = cursors[0].pos;
  for (std::size_t c = 1; c < used && cursors[c - 1].pos == cursors[c].start; ++c) {
    std::memmove(index.offsets.data() + index.size,
                 index.offsets.data() + c * kPerCursor,
                 cursors[c].count * sizeof(std::uint32_t));
    index.size += cursors[c].count;
    verified_end = cursors[c].pos;
  }
  if (scanned && (used == 1 || cursors[0].pos > cursors[1].start)) {
    index.solo = kSoloWindows;
  }

  // Size the next window for kTargetPerCursor records per cursor, and
  // its cursor-start scans, at the record size just observed.
  const std::size_t per_record = (verified_end - base) / index.size;
  index.window =
      std::clamp(kCursors * kTargetPerCursor * per_record, kMinWindow, kMaxWindow);
  index.scan = std::max(kScanRecords * per_record, kMinScan);
  return true;
}

std::size_t PcapReader::next_views(PacketView* out, std::size_t max) {
  if (max == 0) return 0;
  if (in_ != nullptr) {
    // Streaming: one view, staged until the next call.
    const auto view = next_view();
    if (!view) return 0;
    out[0] = *view;
    return 1;
  }
  std::size_t served = 0;
  while (served < max) {
    if (!index_ || index_->next == index_->size) {
      if (pos_ == file_.size()) {
        index_.reset();
        break;
      }
      if (!index_) index_ = std::make_unique<RecordIndex>();
      if (!build_index()) {
        // The record at pos_ is one the walk rejects: this call returns
        // what it holds, and the first call with nothing to return
        // reports the record.
        if (served == 0) throw_rejected(pos_);
        break;
      }
    }
    RecordIndex& index = *index_;
    const std::uint8_t* base = file_.data() + index.base;
    const std::size_t stop = std::min(index.size, index.next + (max - served));
    const std::uint8_t* record = nullptr;
    RecordHeader header;
    for (std::size_t i = index.next; i < stop; ++i) {
      if (i + kPrefetchAhead < index.size) {
        // The pcap header line and the L2-L4 header line of a record
        // a dozen ahead; both are the consumer's next misses.
        const std::uint8_t* ahead = base + index.offsets[i + kPrefetchAhead];
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + 64);
      }
      record = base + index.offsets[i];
      header = parse_record_header(record);
      out[served++] = PacketView(header.timestamp,
                                 util::BytesView(record + kRecordHeaderSize,
                                                 header.captured),
                                 header.original);
    }
    index.next = stop;
    pos_ = static_cast<std::size_t>(record - file_.data()) + kRecordHeaderSize +
           header.captured;
  }
  return served;
}

std::optional<PacketView> PcapReader::next_view() {
  if (in_ == nullptr) {
    PacketView view;
    if (next_views(&view, 1) == 0) return std::nullopt;
    return view;
  }

  RecordHeader record;
  if (!read_record_header(record)) return std::nullopt;
  scratch_.resize(record.captured);
  if (util::read_exact(*in_, scratch_.data(), record.captured) !=
      record.captured) {
    throw_truncated_record();
  }
  return PacketView(record.timestamp, scratch_, record.original);
}

std::optional<Packet> PcapReader::next() {
  if (in_ == nullptr) {
    const auto view = next_view();
    if (!view) return std::nullopt;
    return view->to_packet();
  }
  // Streaming path reads straight into the packet's buffer — one copy,
  // no staging detour.
  RecordHeader record;
  if (!read_record_header(record)) return std::nullopt;
  Packet packet;
  packet.timestamp = record.timestamp;
  packet.data.resize(record.captured);
  if (util::read_exact(*in_, packet.data.data(), record.captured) !=
      record.captured) {
    throw_truncated_record();
  }
  packet.original_length = record.original;
  return packet;
}

std::vector<Packet> PcapReader::read_all() {
  std::vector<Packet> out;
  while (auto packet = next()) {
    out.push_back(std::move(*packet));
  }
  return out;
}

void write_pcap(const std::filesystem::path& path, const std::vector<Packet>& packets) {
  PcapWriter writer(path);
  for (const Packet& packet : packets) writer.write(packet);
}

std::vector<Packet> read_pcap(const std::filesystem::path& path) {
  PcapReader reader(path);
  return reader.read_all();
}

}  // namespace wm::net
