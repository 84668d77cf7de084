// Seed-corpus generator: writes the committed fuzz/corpus/ tree.
//
//   gen_corpus <corpus-dir>
//
// Every seed is produced deterministically from the project's own
// writers (then surgically corrupted), so regenerating after a
// deliberate format change is one command. Each file name carries the
// Outcome the driver produced at generation time —
// `<name>.<outcome>` — and tests/test_fuzz_corpus.cpp asserts replays
// still produce that outcome: the taxonomy is pinned by the tree
// itself, with no side-channel expectations file.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "wm/net/packet_builder.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/tls/record.hpp"
#include "wm/util/bytes.hpp"
#include "wm/util/rng.hpp"
#include "wm/util/time.hpp"

namespace fs = std::filesystem;
using wm::fuzz::Outcome;
using wm::util::Bytes;
using wm::util::BytesView;

namespace {

using Driver = Outcome (*)(BytesView);

void emit(const fs::path& dir, const std::string& name, Driver driver,
          BytesView bytes) {
  const Outcome outcome = driver(bytes);
  fs::create_directories(dir);
  const fs::path path = dir / (name + "." + wm::fuzz::to_string(outcome));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  wm::util::write_all(out, bytes);
  if (!out) {
    std::cerr << "write failed: " << path << "\n";
    std::exit(2);
  }
  std::cout << path.string() << " (" << bytes.size() << " bytes)\n";
}

/// A tiny two-packet capture serialized by the project's own writer.
template <typename Writer>
Bytes capture_bytes() {
  std::ostringstream out;
  {
    Writer writer(out);
    Bytes frame;
    for (int i = 0; i < 64; ++i) frame.push_back(static_cast<std::uint8_t>(i));
    writer.write(wm::net::Packet(wm::util::SimTime::from_nanos(1'000), frame));
    frame.push_back(0xff);
    writer.write(wm::net::Packet(wm::util::SimTime::from_nanos(2'000), frame));
  }
  const std::string text = out.str();
  return Bytes(text.begin(), text.end());
}

Bytes truncated(BytesView bytes, std::size_t keep) {
  return Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(keep, bytes.size())));
}

/// One TLS record header of `type` and a `length`-byte body.
Bytes tls_record(std::uint8_t type, std::size_t length) {
  Bytes record{type, 0x03, 0x03, static_cast<std::uint8_t>(length >> 8),
               static_cast<std::uint8_t>(length & 0xff)};
  record.resize(5 + length, static_cast<std::uint8_t>(length));
  return record;
}

/// TLS traffic as the simulator jitters it: two connections whose
/// records are cut at small MSSes, with segments swapped with their
/// neighbours or held back several places, a retransmit, a lost
/// segment and a frame cut short by the snaplen. drive_pcap replays it
/// through the record-stream extractor in every hold mode, so it seeds
/// the reassembler's shortcut and its general path alike.
Bytes reordered_tls_capture() {
  using wm::net::FlowDirection;
  using wm::util::Duration;
  using wm::util::SimTime;
  std::vector<wm::net::Packet> packets;
  for (std::uint8_t c = 0; c < 2; ++c) {
    wm::net::TcpEndpointConfig client;
    client.mac = *wm::net::MacAddress::parse("02:00:00:00:00:01");
    client.ip = wm::net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(1 + c));
    client.port = static_cast<std::uint16_t>(50000 + c);
    client.initial_sequence = 0xffffff00u;  // wraps mid-stream
    client.mss = 200;
    wm::net::TcpEndpointConfig server;
    server.mac = *wm::net::MacAddress::parse("02:00:00:00:00:02");
    server.ip = wm::net::Ipv4Address(10, 0, 1, 1);
    server.port = 443;
    server.mss = 300;
    wm::net::TcpConnectionBuilder conn(client, server);
    SimTime at = SimTime::from_seconds(c);
    conn.handshake(at, Duration::millis(20));
    for (std::size_t i = 0; i < 8; ++i) {
      at = at + Duration::millis(30);
      conn.send(FlowDirection::kClientToServer, at,
                tls_record(i == 0 ? 0x16 : 0x17, 100 + 60 * i), Duration::millis(1));
      conn.send(FlowDirection::kServerToClient, at + Duration::millis(10),
                tls_record(0x17, 400 + 40 * i), Duration::millis(1));
    }
    conn.retransmit(conn.packets().size() - 3, at + Duration::millis(15));
    if (c == 0) conn.close(at + Duration::millis(40), Duration::millis(20));
    for (wm::net::Packet& packet : conn.take_packets()) {
      packets.push_back(std::move(packet));
    }
  }
  wm::util::Rng rng(27);
  for (std::size_t i = 4; i + 8 < packets.size(); ++i) {
    if (rng.bernoulli(0.3)) std::swap(packets[i], packets[i + 1]);
    if (rng.bernoulli(0.05)) {
      const auto at = packets.begin() + static_cast<std::ptrdiff_t>(i);
      std::rotate(at, at + 1, at + 7);
    }
  }
  packets.erase(packets.begin() + 20);  // lost
  for (std::size_t i = 40; i < packets.size(); ++i) {
    if (packets[i].data.size() < 120) continue;
    packets[i].data.resize(packets[i].data.size() - 30);  // snaplen
    break;
  }
  std::ostringstream out;
  {
    wm::net::PcapWriter writer(out);
    for (const wm::net::Packet& packet : packets) writer.write(packet);
  }
  const std::string text = out.str();
  return Bytes(text.begin(), text.end());
}

void make_pcap(const fs::path& dir) {
  const Bytes good = capture_bytes<wm::net::PcapWriter>();
  emit(dir, "two-packets", wm::fuzz::drive_pcap, good);
  emit(dir, "empty", wm::fuzz::drive_pcap, Bytes{});
  emit(dir, "header-only", wm::fuzz::drive_pcap, truncated(good, 24));
  emit(dir, "truncated-file-header", wm::fuzz::drive_pcap,
       truncated(good, 17));
  emit(dir, "truncated-record-header", wm::fuzz::drive_pcap,
       truncated(good, 24 + 9));
  emit(dir, "truncated-record-body", wm::fuzz::drive_pcap,
       truncated(good, 24 + 16 + 30));
  Bytes bad_magic = good;
  bad_magic[0] ^= 0x5a;
  emit(dir, "bad-magic", wm::fuzz::drive_pcap, bad_magic);
  Bytes huge_record = good;
  // captured-length field of record 1 inflated past the buffer.
  huge_record[24 + 8] = 0xff;
  huge_record[24 + 9] = 0xff;
  emit(dir, "captured-length-lies", wm::fuzz::drive_pcap, huge_record);

  // Record-index seeds. A small capture is one index window, cut into
  // eight cursor segments at multiples of an eighth of its records.
  // Every frame here is a chain of fake record headers, so cursor
  // starts land on fakes the verified walk must never serve.
  std::ostringstream fakes;
  {
    wm::net::PcapWriter writer(fakes);
    for (std::uint32_t i = 0; i < 16; ++i) {
      Bytes frame(96 + 8 * i, static_cast<std::uint8_t>(0x41 + i));
      for (std::size_t pos = 0; pos + 16 + 8 <= frame.size(); pos += 16 + 8) {
        // Captured and original length 8, little-endian.
        std::fill(frame.begin() + static_cast<std::ptrdiff_t>(pos + 8),
                  frame.begin() + static_cast<std::ptrdiff_t>(pos + 16), 0);
        frame[pos + 8] = 8;
        frame[pos + 12] = 8;
      }
      writer.write(wm::net::Packet(wm::util::SimTime::from_nanos(1'000 * (i + 1)), frame));
    }
  }
  const std::string fake_text = fakes.str();
  emit(dir, "fake-chain-in-payload", wm::fuzz::drive_pcap,
       Bytes(fake_text.begin(), fake_text.end()));
  // Sixteen 80-byte records: cursor 1's segment starts at record 2.
  // Record 1's captured length grows by one record, so the walk skips
  // record 2 (a real, plausible start) and must drop cursor 1.
  std::ostringstream even;
  {
    wm::net::PcapWriter writer(even);
    Bytes frame(64);
    for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<std::uint8_t>(i + 1);
    for (int i = 0; i < 16; ++i) {
      writer.write(wm::net::Packet(wm::util::SimTime::from_nanos(1'000 * (i + 1)), frame));
    }
  }
  const std::string even_text = even.str();
  Bytes lie(even_text.begin(), even_text.end());
  lie[24 + 80 + 8] = 64 + 80;
  emit(dir, "caplen-lie-at-cursor-boundary", wm::fuzz::drive_pcap, lie);

  const Bytes tls = reordered_tls_capture();
  emit(dir, "reordered-tls-flows", wm::fuzz::drive_pcap, tls);
  emit(dir, "reordered-tls-flows-cut", wm::fuzz::drive_pcap,
       truncated(tls, tls.size() * 2 / 3));
}

void make_pcapng(const fs::path& dir) {
  const Bytes good = capture_bytes<wm::net::PcapngWriter>();
  emit(dir, "two-packets", wm::fuzz::drive_pcapng, good);
  emit(dir, "empty", wm::fuzz::drive_pcapng, Bytes{});
  // ISSUE case: a block whose declared total length runs past EOF.
  emit(dir, "truncated-shb", wm::fuzz::drive_pcapng, truncated(good, 11));
  emit(dir, "truncated-mid-block", wm::fuzz::drive_pcapng,
       truncated(good, good.size() - 13));
  Bytes bad_bom = good;
  bad_bom[8] ^= 0xff;  // byte-order magic inside the SHB body
  emit(dir, "bad-byte-order-magic", wm::fuzz::drive_pcapng, bad_bom);
  Bytes tiny_len = good;
  tiny_len[4] = 8;  // SHB total length below the 12-byte minimum
  tiny_len[5] = 0;
  tiny_len[6] = 0;
  tiny_len[7] = 0;
  emit(dir, "block-length-below-minimum", wm::fuzz::drive_pcapng, tiny_len);
  Bytes odd_len = good;
  odd_len[4] = static_cast<std::uint8_t>(odd_len[4] + 2);  // break 4-align
  emit(dir, "block-length-unaligned", wm::fuzz::drive_pcapng, odd_len);
}

/// Prepend the chunk-size selector byte the TLS driver consumes.
Bytes with_chunking(std::uint8_t selector, BytesView stream) {
  Bytes out;
  out.push_back(selector);
  out.insert(out.end(), stream.begin(), stream.end());
  return out;
}

void make_tls(const fs::path& dir) {
  std::vector<wm::tls::TlsRecord> records(2);
  records[0].payload.assign(200, 0xaa);
  records[1].payload.assign(1400, 0xbb);
  const Bytes stream = wm::tls::serialize_records(records);

  // selector 0 -> 1-byte chunks: every split position, including all
  // four mid-header cuts and every mid-record cut (the ISSUE's
  // "mid-record split" case in its most hostile form).
  emit(dir, "two-records-one-byte-chunks", wm::fuzz::drive_tls,
       with_chunking(0, stream));
  // 96 -> 97-byte chunks: splits that land mid-record at varying phase.
  emit(dir, "two-records-97-byte-chunks", wm::fuzz::drive_tls,
       with_chunking(96, stream));
  emit(dir, "truncated-final-record", wm::fuzz::drive_tls,
       with_chunking(12, BytesView(stream).first(stream.size() - 37)));
  emit(dir, "empty", wm::fuzz::drive_tls, Bytes{});

  Bytes garbage(64, 0x00);
  emit(dir, "desync-zero-type", wm::fuzz::drive_tls,
       with_chunking(7, garbage));
  Bytes oversize = stream;
  oversize[3 + 1] = 0x50;  // record length field above kMaxCiphertextLength
  emit(dir, "desync-implausible-length", wm::fuzz::drive_tls,
       with_chunking(30, oversize));

  // --- Resync-scanner seeds: excised spans and garbage runs that force
  // the parser out of lock, pinning whether the chain validator re-locks
  // (enough trailing records) or keeps scanning (chain cut short).
  std::vector<wm::tls::TlsRecord> eight(8);
  for (wm::tls::TlsRecord& record : eight) record.payload.assign(300, 0xaa);
  const Bytes long_stream = wm::tls::serialize_records(eight);
  // A lost-segment cut: bytes [400, 700) vanish, splicing record 1's
  // payload onto record 2's tail. The parser silently swallows spliced
  // bytes as payload, lands misaligned in ciphertext, scans, and must
  // chain the surviving tail records to re-lock.
  Bytes excised(long_stream.begin(), long_stream.begin() + 400);
  excised.insert(excised.end(), long_stream.begin() + 700, long_stream.end());
  emit(dir, "resync-after-excised-span", wm::fuzz::drive_tls,
       with_chunking(19, excised));
  // Garbage then only two records: a consistent-but-inconclusive chain
  // at end of input (the driver never flushes), so the scanner must
  // hold out rather than re-lock on thin evidence.
  Bytes short_chain(32, 0x00);
  short_chain.insert(short_chain.end(), stream.begin(), stream.end());
  emit(dir, "desync-resync-chain-cut-short", wm::fuzz::drive_tls,
       with_chunking(4, short_chain));
  // Locked -> scanning transition with nothing to re-lock on: good
  // records followed by a candidate-free garbage tail.
  Bytes garbage_tail = stream;
  garbage_tail.insert(garbage_tail.end(), 64, 0x41);
  emit(dir, "desync-garbage-tail", wm::fuzz::drive_tls,
       with_chunking(13, garbage_tail));
  // A plausible-looking header inside garbage whose length field points
  // back into garbage: the chain validator must reject it and re-lock
  // on the real records that follow.
  Bytes false_candidate(20, 0x00);
  const std::uint8_t decoy[] = {0x17, 0x03, 0x03, 0x00, 0x10};
  false_candidate.insert(false_candidate.end(), std::begin(decoy),
                         std::end(decoy));
  false_candidate.insert(false_candidate.end(), 16, 0x00);
  false_candidate.insert(false_candidate.end(), long_stream.begin(),
                         long_stream.begin() + 4 * 305);
  emit(dir, "resync-skips-false-candidate", wm::fuzz::drive_tls,
       with_chunking(44, false_candidate));
}

void make_json(const fs::path& dir) {
  const auto text_bytes = [](std::string_view text) {
    const BytesView view = wm::util::as_bytes(text);
    return Bytes(view.begin(), view.end());
  };
  emit(dir, "state-shape", wm::fuzz::drive_json,
       text_bytes(R"({"choices":[{"id":"a1","weight":1.5},null,true],)"
                  R"("token":"é\n","segments":[[0,1],[2,3]]})"));
  emit(dir, "empty", wm::fuzz::drive_json, Bytes{});
  emit(dir, "trailing-garbage", wm::fuzz::drive_json, text_bytes("{} x"));
  emit(dir, "bad-escape", wm::fuzz::drive_json, text_bytes(R"("\q")"));
  emit(dir, "unterminated-string", wm::fuzz::drive_json,
       text_bytes("\"never closed"));
  emit(dir, "number-overflow", wm::fuzz::drive_json,
       text_bytes("999999999999999999999999999"));
  // ISSUE case: nesting far past the parser's 192-level cap — must be
  // a clean rejection, never a stack overflow.
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "[{\"k\":";
  emit(dir, "nested-past-depth-cap", wm::fuzz::drive_json,
       text_bytes(deep));
  std::string near_cap;
  for (int i = 0; i < 95; ++i) near_cap += "[";
  near_cap += "0";
  for (int i = 0; i < 95; ++i) near_cap += "]";
  emit(dir, "nested-near-depth-cap", wm::fuzz::drive_json,
       text_bytes(near_cap));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <corpus-dir>\n";
    return 2;
  }
  const fs::path root = argv[1];
  make_pcap(root / "pcap");
  make_pcapng(root / "pcapng");
  make_tls(root / "tls");
  make_json(root / "json");
  return 0;
}
