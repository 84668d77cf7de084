#include "drivers.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/tls/record.hpp"
#include "wm/util/json.hpp"
#include "wm/util/time.hpp"

namespace wm::fuzz {

namespace {

/// In-memory stream over the fuzzer's bytes: the streaming-parser path.
/// The in-place (mmap) path is driven over the same bytes through the
/// readers' borrowed-buffer constructors; fuzzing never touches the
/// filesystem.
std::istringstream byte_stream(util::BytesView data) {
  return std::istringstream(std::string(util::as_chars(data)));
}

/// The documented failure surface of the capture/JSON parsers:
/// std::runtime_error (malformed input) and ByteReader's bounds error.
/// Anything else — bad variant access, logic errors, raw UB — escapes
/// to the harness and counts as a finding.
template <typename Fn>
Outcome expect_rejection(Fn&& parse) {
  try {
    return parse();
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (const util::OutOfBoundsError&) {
    return Outcome::kRejected;
  }
}

/// Every record one pcap reading path yields, then the error that
/// ended it (nullopt after a clean end).
struct PcapWalk {
  std::vector<net::Packet> packets;
  std::optional<std::string> error;

  bool operator==(const PcapWalk& other) const {
    if (error != other.error || packets.size() != other.packets.size()) return false;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const net::Packet& a = packets[i];
      const net::Packet& b = other.packets[i];
      if (a.timestamp != b.timestamp || a.data != b.data ||
          a.original_length != b.original_length) {
        return false;
      }
    }
    return true;
  }
};

template <typename Read>
PcapWalk walk_pcap(Read&& read) {
  PcapWalk walk;
  try {
    read(walk.packets);
  } catch (const std::runtime_error& error) {
    walk.error = error.what();
  }
  return walk;
}

}  // namespace

std::string to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDesync: return "desync";
  }
  return "?";
}

Outcome drive_pcap(util::BytesView data) {
  // Reference: the streaming reader, record by record.
  const PcapWalk streamed = walk_pcap([data](std::vector<net::Packet>& out) {
    auto in = byte_stream(data);
    net::PcapReader reader(in);
    while (auto packet = reader.next()) out.push_back(std::move(*packet));
  });
  // Every other path over the same bytes must yield the same packets
  // and stop with the same error: the streaming zero-copy API, and the
  // in-place record index read one view at a time and in next_views()
  // runs of 7 with a single next_view() after every third run.
  const PcapWalk streamed_views = walk_pcap([data](std::vector<net::Packet>& out) {
    auto in = byte_stream(data);
    net::PcapReader reader(in);
    while (const auto view = reader.next_view()) out.push_back(view->to_packet());
  });
  const PcapWalk in_place = walk_pcap([data](std::vector<net::Packet>& out) {
    net::PcapReader reader(data);
    while (const auto view = reader.next_view()) out.push_back(view->to_packet());
  });
  const PcapWalk indexed = walk_pcap([data](std::vector<net::Packet>& out) {
    net::PcapReader reader(data);
    std::array<net::PacketView, 7> run;
    for (std::size_t call = 1;; ++call) {
      if (call % 4 == 0) {
        const auto view = reader.next_view();
        if (!view) break;
        out.push_back(view->to_packet());
        continue;
      }
      const std::size_t got = reader.next_views(run.data(), run.size());
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) out.push_back(run[i].to_packet());
    }
  });
  if (!(streamed_views == streamed) || !(in_place == streamed) ||
      !(indexed == streamed)) {
    throw std::logic_error("pcap reading paths disagree");  // escapes: a bug
  }
  return streamed.error ? Outcome::kRejected : Outcome::kOk;
}

Outcome drive_pcapng(util::BytesView data) {
  return expect_rejection([data] {
    auto in = byte_stream(data);
    net::PcapngReader reader(in);
    while (reader.next().has_value()) {
    }
    return Outcome::kOk;
  });
}

Outcome drive_tls(util::BytesView data) {
  if (data.empty()) return Outcome::kOk;
  // Byte 0 selects the chunking so corpus entries pin specific split
  // positions (mid-header, mid-record) rather than always feeding one
  // contiguous buffer.
  const std::size_t chunk = 1 + data[0] % 97;
  data = data.subspan(1);
  // A twin parser is trimmed after every feed: freeing a drained
  // buffer must not change a single record, payload byte or counter.
  tls::TlsRecordParser parser;
  tls::TlsRecordParser trimmed;
  std::vector<tls::TlsRecordParser::ParsedRecord> records;
  std::vector<tls::TlsRecordParser::ParsedRecord> twin;
  const auto compare = [&] {
    bool same = records.size() == twin.size() &&
                parser.bytes_consumed() == trimmed.bytes_consumed() &&
                parser.bytes_skipped() == trimmed.bytes_skipped() &&
                parser.buffered_bytes() == trimmed.buffered_bytes();
    for (std::size_t i = 0; same && i < records.size(); ++i) {
      const auto& a = records[i];
      const auto& b = twin[i];
      same = a.timestamp == b.timestamp && a.stream_offset == b.stream_offset &&
             a.content_type == b.content_type && a.length == b.length &&
             a.after_gap == b.after_gap &&
             std::equal(a.payload.begin(), a.payload.end(), b.payload.begin(),
                        b.payload.end());
    }
    if (!same) throw std::logic_error("tls trim changed the parse");  // escapes: a bug
    records.clear();
    twin.clear();
  };
  std::int64_t tick = 0;
  while (!data.empty()) {
    const std::size_t take = data.size() < chunk ? data.size() : chunk;
    const util::SimTime now = util::SimTime::from_nanos(tick++);
    parser.feed(now, data.first(take), records);
    trimmed.feed(now, data.first(take), twin);
    compare();
    trimmed.trim();
    data = data.subspan(take);
  }
  const bool desync = parser.desynchronized();
  parser.flush(util::SimTime::from_nanos(tick), records);
  trimmed.flush(util::SimTime::from_nanos(tick), twin);
  compare();
  return desync ? Outcome::kDesync : Outcome::kOk;
}

Outcome drive_json(util::BytesView data) {
  return expect_rejection([data] {
    const util::JsonValue value =
        util::JsonValue::parse(util::as_chars(data));
    // Round-trip: whatever parsed must serialize and re-parse to the
    // same document (canonical form is part of the side-channel model).
    const std::string dumped = value.dump();
    if (util::JsonValue::parse(dumped) != value) {
      throw std::logic_error("json round-trip mismatch");  // escapes: a bug
    }
    return Outcome::kOk;
  });
}

}  // namespace wm::fuzz
