#include "drivers.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record.hpp"
#include "wm/tls/record_stream.hpp"
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

/// What one RecordStreamExtractor made of a capture: every event,
/// flush included, its counters and its stable metrics. How holds were
/// stored (holds_lent/holds_copied) is left out: that is what the ways
/// of feeding differ in.
struct Extraction {
  std::vector<tls::StreamEvent> events;
  std::vector<std::uint64_t> counters;
  std::string metrics;

  bool operator==(const Extraction& other) const {
    const auto same = [](const tls::StreamEvent& a, const tls::StreamEvent& b) {
      if (!(a.flow == b.flow) || a.kind != b.kind) return false;
      if (a.kind == tls::StreamEvent::Kind::kGap) {
        return a.gap.timestamp == b.gap.timestamp &&
               a.gap.direction == b.gap.direction &&
               a.gap.stream_offset == b.gap.stream_offset &&
               a.gap.length == b.gap.length;
      }
      return a.event.timestamp == b.event.timestamp &&
             a.event.direction == b.event.direction &&
             a.event.content_type == b.event.content_type &&
             a.event.record_length == b.event.record_length &&
             a.event.stream_offset == b.event.stream_offset &&
             a.event.after_gap == b.event.after_gap;
    };
    return counters == other.counters && metrics == other.metrics &&
           std::equal(events.begin(), events.end(), other.events.begin(),
                      other.events.end(), same);
  }
};

/// Runs `feed(extractor, events)` on an extractor with small reorder
/// windows, a small buffer budget and a short idle timeout, so even a
/// small capture reaches window edges, budget drops and eviction.
template <typename Feed>
Extraction extract(Feed&& feed) {
  obs::Registry registry;
  tls::RecordStreamExtractor::Config config;
  config.idle_timeout = util::Duration::seconds(1);
  config.registry = &registry;
  config.reassembly.reorder_window_segments = 4;
  config.reassembly.reorder_window_bytes = 4096;
  config.reassembly.max_buffered_bytes = 6144;
  tls::RecordStreamExtractor extractor(config);
  Extraction result;
  feed(extractor, result.events);
  const std::vector<tls::StreamEvent> flushed = extractor.flush();
  result.events.insert(result.events.end(), flushed.begin(), flushed.end());
  result.counters = {extractor.packets_seen(),    extractor.packets_undecodable(),
                     extractor.flows_opened(),    extractor.flows_evicted(),
                     extractor.flows_completed(), extractor.flows_closed(),
                     extractor.gaps(),            extractor.gap_bytes(),
                     extractor.tls_bytes_skipped(), extractor.tls_resyncs(),
                     extractor.peak_active_flows()};
  result.metrics = registry.snapshot().stable_json();
  return result;
}

/// Feeds the packets a capture yielded to the record-stream extractor
/// every way it is fed: slab batches over stable views (holds borrow),
/// over owned packets (holds copy), one packet at a time through the
/// scalar decoder (holds copy), and frames lent one at a time from a
/// reused buffer (holds take the frame). All must agree.
void check_extraction(const std::vector<net::Packet>& packets) {
  const Extraction viewed = extract([&](tls::RecordStreamExtractor& extractor,
                                        std::vector<tls::StreamEvent>& out) {
    std::vector<net::PacketView> views(packets.begin(), packets.end());
    extractor.feed_batch(views.data(), views.size(), out, /*stable_payload=*/true);
  });
  const Extraction owned = extract([&](tls::RecordStreamExtractor& extractor,
                                       std::vector<tls::StreamEvent>& out) {
    extractor.feed_batch(packets.data(), packets.size(), out);
  });
  const Extraction single = extract([&](tls::RecordStreamExtractor& extractor,
                                        std::vector<tls::StreamEvent>& out) {
    for (const net::Packet& packet : packets) {
      const std::vector<tls::StreamEvent> events = extractor.feed(packet);
      out.insert(out.end(), events.begin(), events.end());
    }
  });
  const Extraction lent = extract([&](tls::RecordStreamExtractor& extractor,
                                      std::vector<tls::StreamEvent>& out) {
    net::Packet slot;
    net::PacketLens lens;
    for (const net::Packet& packet : packets) {
      net::PacketView(packet).assign_to(slot);
      net::decode_lens(slot, lens);
      extractor.feed_lens_lend(slot.timestamp, slot.data, lens, out);
    }
  });
  if (!(owned == viewed) || !(single == viewed) || !(lent == viewed)) {
    throw std::logic_error("record extraction paths disagree");  // escapes: a bug
  }
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
  // Whatever the capture yielded before any error is traffic.
  check_extraction(streamed.packets);
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
