// TLS record framing, handshake messages, cipher length model.
#include <gtest/gtest.h>

#include <algorithm>

#include "wm/tls/cipher.hpp"
#include "wm/tls/handshake.hpp"
#include "wm/tls/record.hpp"

namespace wm::tls {
namespace {

using util::Bytes;
using util::SimTime;

TlsRecord make_record(ContentType type, std::size_t size) {
  TlsRecord record;
  record.content_type = type;
  record.payload = Bytes(size, 0x5a);
  return record;
}

TEST(TlsRecord, SerializeHeaderLayout) {
  const TlsRecord record = make_record(ContentType::kApplicationData, 3);
  util::ByteWriter out;
  serialize_record(record, out);
  EXPECT_EQ(util::to_hex(out.view()), "17030300035a5a5a");
  EXPECT_EQ(record.wire_size(), 8u);
  EXPECT_EQ(record.length(), 3u);
}

TEST(TlsRecordParser, SingleRecord) {
  const Bytes wire = serialize_records({make_record(ContentType::kHandshake, 10)});
  TlsRecordParser parser;
  const auto records = parser.feed(SimTime::from_seconds(1), wire);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].content_type, ContentType::kHandshake);
  EXPECT_EQ(records[0].length, 10u);
  EXPECT_EQ(records[0].stream_offset, 0u);
  EXPECT_EQ(records[0].timestamp, SimTime::from_seconds(1));
  EXPECT_FALSE(parser.desynchronized());
}

TEST(TlsRecordParser, MultipleRecordsOneChunk) {
  const Bytes wire = serialize_records({
      make_record(ContentType::kHandshake, 100),
      make_record(ContentType::kChangeCipherSpec, 1),
      make_record(ContentType::kApplicationData, 2212),
  });
  TlsRecordParser parser;
  const auto records = parser.feed(SimTime::from_seconds(0), wire);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].length, 2212u);
  EXPECT_EQ(records[2].stream_offset, 105u + 6u);
  EXPECT_EQ(parser.records_parsed(), 3u);
}

TEST(TlsRecordParser, RecordSplitAcrossChunks) {
  const Bytes wire = serialize_records({make_record(ContentType::kApplicationData, 1000)});
  TlsRecordParser parser;
  // Feed in 3 pieces, cutting inside the header and inside the body.
  auto first = parser.feed(SimTime::from_seconds(1),
                           util::BytesView(wire).subspan(0, 3));
  EXPECT_TRUE(first.empty());
  auto second = parser.feed(SimTime::from_seconds(2),
                            util::BytesView(wire).subspan(3, 500));
  EXPECT_TRUE(second.empty());
  auto third = parser.feed(SimTime::from_seconds(3),
                           util::BytesView(wire).subspan(503));
  ASSERT_EQ(third.size(), 1u);
  // The record is stamped with the time of the completing chunk.
  EXPECT_EQ(third[0].timestamp, SimTime::from_seconds(3));
  EXPECT_EQ(third[0].length, 1000u);
}

TEST(TlsRecordParser, ScansOnGarbageAndResynchronizesOnChainedRecords) {
  // Garbage puts the parser into the scanning state — but unlike the
  // historical one-way desync latch, a chain of kResyncChain plausible
  // headers re-locks it and the session keeps producing records.
  TlsRecordParser parser;
  const Bytes garbage = {0x99, 0x99, 0x99, 0x99, 0x99, 0x99};
  const auto none = parser.feed(SimTime::from_seconds(0), garbage);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(parser.desynchronized());

  // One valid record is not enough evidence to re-lock mid-stream...
  const Bytes one = serialize_records({make_record(ContentType::kAlert, 2)});
  EXPECT_TRUE(parser.feed(SimTime::from_seconds(1), one).empty());
  EXPECT_TRUE(parser.desynchronized());

  // ...but once kResyncChain headers chain, every held record pops out.
  const Bytes more = serialize_records({
      make_record(ContentType::kApplicationData, 700),
      make_record(ContentType::kApplicationData, 160),
  });
  const auto records = parser.feed(SimTime::from_seconds(2), more);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(parser.desynchronized());
  EXPECT_EQ(parser.resyncs(), 1u);
  EXPECT_EQ(parser.bytes_skipped(), garbage.size());
  // The first record after the re-lock carries the taint; later ones
  // are clean.
  EXPECT_TRUE(records[0].after_gap);
  EXPECT_EQ(records[0].content_type, ContentType::kAlert);
  EXPECT_FALSE(records[1].after_gap);
  EXPECT_FALSE(records[2].after_gap);
  // Offsets resume on the re-locked boundary, past the skipped bytes.
  EXPECT_EQ(records[0].stream_offset, garbage.size());
}

TEST(TlsRecordParser, RejectsOversizedLength) {
  // length field 0x4801 = 18433 > max ciphertext 18432 (16384+2048).
  Bytes wire = {0x17, 0x03, 0x03, 0x48, 0x01};
  TlsRecordParser parser;
  (void)parser.feed(SimTime::from_seconds(0), wire);
  EXPECT_TRUE(parser.desynchronized());
}

TEST(TlsRecordParser, OnGapDropsPartialRecordAndRelocksAtNextHeader) {
  const Bytes first = serialize_records({make_record(ContentType::kApplicationData, 900)});
  TlsRecordParser parser;
  // Half the record arrives, then the reassembler reports the rest of
  // it (and a bit more) as lost.
  (void)parser.feed(SimTime::from_seconds(0), util::BytesView(first).subspan(0, 400));
  const std::uint64_t lost = (first.size() - 400) + 123;
  parser.on_gap(SimTime::from_seconds(1), lost);
  EXPECT_TRUE(parser.desynchronized());
  EXPECT_EQ(parser.buffered_bytes(), 0u);  // stale partial cleared
  EXPECT_EQ(parser.bytes_skipped(), 400u);

  // The stream resumes with chained records after the hole.
  const Bytes resumed = serialize_records({
      make_record(ContentType::kApplicationData, 333),
      make_record(ContentType::kApplicationData, 444),
      make_record(ContentType::kApplicationData, 555),
  });
  const auto records = parser.feed(SimTime::from_seconds(2), resumed);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(parser.desynchronized());
  EXPECT_EQ(parser.resyncs(), 1u);
  EXPECT_TRUE(records[0].after_gap);
  EXPECT_FALSE(records[1].after_gap);
  // Stream offsets stay aligned with the reassembled stream: the gap
  // bytes still occupy their span.
  EXPECT_EQ(records[0].stream_offset, 400u + lost);
  EXPECT_EQ(records[0].length, 333u);
}

TEST(TlsRecordParser, FlushRelocksWithRelaxedChain) {
  // After a gap, fewer than kResyncChain records arrive before the
  // stream ends: feed() holds them, flush() re-locks with the relaxed
  // end-of-stream rule and releases them.
  TlsRecordParser parser;
  parser.on_gap(SimTime::from_seconds(0), 1000);
  const Bytes tail = serialize_records({
      make_record(ContentType::kApplicationData, 210),
      make_record(ContentType::kApplicationData, 320),
  });
  EXPECT_TRUE(parser.feed(SimTime::from_seconds(1), tail).empty());
  EXPECT_TRUE(parser.desynchronized());
  const auto records = parser.flush(SimTime::from_seconds(2));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(parser.desynchronized());
  EXPECT_TRUE(records[0].after_gap);
  EXPECT_EQ(records[0].length, 210u);
  EXPECT_EQ(records[1].length, 320u);
}

TEST(TlsRecordParser, GarbageStreamBufferStaysBounded) {
  // Regression: the old parser kept accumulating consumed_ while
  // desynchronized but left stale bytes in buffer_ forever. The
  // scanning parser must keep its footprint bounded on an endless
  // garbage stream while the consumed/skipped accounting stays exact.
  TlsRecordParser parser;
  Bytes chunk(4096);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    // Pseudo-random bytes with plenty of false content-type candidates.
    chunk[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  std::uint64_t fed = 0;
  for (int i = 0; i < 256; ++i) {
    (void)parser.feed(SimTime::from_nanos(i), chunk);
    fed += chunk.size();
    // A candidate header can legitimately hold back up to a partial
    // resync chain; anything beyond that bound is a leak.
    constexpr std::size_t kBound =
        TlsRecordParser::kResyncChain * (kMaxCiphertextLength + kRecordHeaderSize);
    ASSERT_LE(parser.buffered_bytes(), kBound);
  }
  EXPECT_TRUE(parser.desynchronized());
  EXPECT_EQ(parser.records_parsed(), 0u);
  EXPECT_EQ(parser.bytes_consumed(), fed);
  // Every consumed byte is either skipped or still buffered — nothing
  // unaccounted.
  EXPECT_EQ(parser.bytes_skipped() + parser.buffered_bytes(), fed);
}

TEST(TlsRecordParser, EmptyRecordAllowed) {
  const Bytes wire = serialize_records({make_record(ContentType::kApplicationData, 0)});
  TlsRecordParser parser;
  const auto records = parser.feed(SimTime::from_seconds(0), wire);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].length, 0u);
}

TEST(TlsRecordParser, DrainedBufferIsFreed) {
  // A server's handshake flight is one record spanning several TCP
  // segments, so the parser buffers it and the buffer grows well past
  // kKeptCapacity. Once the record is out and its payload read, trim()
  // frees that buffer; reset() leaves nothing at all.
  TlsRecord flight = make_record(ContentType::kHandshake, 4400);
  for (std::size_t i = 0; i < flight.payload.size(); ++i) {
    flight.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Bytes wire = serialize_records({flight});
  const util::BytesView view(wire);
  constexpr std::size_t kSegment = 1448;
  TlsRecordParser parser;
  std::vector<TlsRecordParser::ParsedRecord> records;
  for (std::size_t at = 0; at < 3 * kSegment; at += kSegment) {
    parser.feed(SimTime::from_seconds(1), view.subspan(at, kSegment), records);
  }
  EXPECT_TRUE(records.empty());
  parser.feed(SimTime::from_seconds(2), view.subspan(3 * kSegment), records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, SimTime::from_seconds(2));
  EXPECT_EQ(records[0].length, 4400u);
  // The payload borrows the buffer until the next parser call.
  EXPECT_TRUE(std::equal(records[0].payload.begin(), records[0].payload.end(),
                         flight.payload.begin(), flight.payload.end()));
  EXPECT_GT(parser.memory_bytes(), TlsRecordParser::kKeptCapacity);

  parser.trim();
  EXPECT_LE(parser.memory_bytes(), TlsRecordParser::kKeptCapacity);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  // Offsets run on across the freed buffer.
  const Bytes next =
      serialize_records({make_record(ContentType::kApplicationData, 300)});
  const auto after = parser.feed(SimTime::from_seconds(3), next);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].stream_offset, wire.size());
  EXPECT_EQ(after[0].length, 300u);

  // A half-buffered record: trim() keeps it, a gap drops and frees it.
  parser.feed(SimTime::from_seconds(4), view.subspan(0, 2 * kSegment), records);
  parser.trim();
  EXPECT_EQ(parser.buffered_bytes(), 2 * kSegment);
  EXPECT_GT(parser.memory_bytes(), TlsRecordParser::kKeptCapacity);
  parser.on_gap(SimTime::from_seconds(5), 100);
  EXPECT_LE(parser.memory_bytes(), TlsRecordParser::kKeptCapacity);
  // reset() leaves nothing at all.
  parser.feed(SimTime::from_seconds(6), view.subspan(0, 2 * kSegment), records);
  EXPECT_GT(parser.memory_bytes(), TlsRecordParser::kKeptCapacity);
  parser.reset();
  EXPECT_EQ(parser.memory_bytes(), 0u);
  EXPECT_EQ(parser.bytes_consumed(), 0u);
}

TEST(ContentTypeHelpers, Names) {
  EXPECT_EQ(to_string(ContentType::kApplicationData), "application_data");
  EXPECT_TRUE(is_known_content_type(23));
  EXPECT_FALSE(is_known_content_type(25));
  EXPECT_FALSE(is_known_content_type(19));
}

// --- handshake --------------------------------------------------------

TEST(ClientHello, RoundTripWithSniAndAlpn) {
  ClientHello hello;
  hello.cipher_suites = {0x1301, 0xc02f};
  hello.session_id = Bytes(32, 0x11);
  hello.set_sni("occ-0-2433-2430.1.nflxvideo.net");
  hello.set_alpn({"h2", "http/1.1"});

  const Bytes wire = hello.serialize();
  const auto parsed = ClientHello::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cipher_suites, hello.cipher_suites);
  EXPECT_EQ(parsed->session_id, hello.session_id);
  ASSERT_TRUE(parsed->sni().has_value());
  EXPECT_EQ(*parsed->sni(), "occ-0-2433-2430.1.nflxvideo.net");
}

TEST(ClientHello, SetSniReplacesExisting) {
  ClientHello hello;
  hello.cipher_suites = {0x1301};
  hello.set_sni("first.example");
  hello.set_sni("second.example");
  const auto parsed = ClientHello::parse(hello.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed->sni(), "second.example");
  // Only one server_name extension.
  int count = 0;
  for (const auto& ext : parsed->extensions) {
    if (ext.type == 0) ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST(ClientHello, NoSniReturnsNullopt) {
  ClientHello hello;
  hello.cipher_suites = {0x1301};
  const auto parsed = ClientHello::parse(hello.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->sni().has_value());
}

TEST(ClientHello, ParseRejectsTruncated) {
  ClientHello hello;
  hello.cipher_suites = {0x1301};
  Bytes wire = hello.serialize();
  wire.resize(wire.size() - 3);
  // The 24-bit length no longer matches.
  EXPECT_FALSE(ClientHello::parse(wire).has_value());
}

TEST(ClientHello, ParseRejectsWrongType) {
  ServerHello server;
  EXPECT_FALSE(ClientHello::parse(server.serialize()).has_value());
}

TEST(ServerHello, RoundTrip) {
  ServerHello hello;
  hello.cipher_suite = 0xc030;
  hello.session_id = Bytes(16, 0xab);
  const auto parsed = ServerHello::parse(hello.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cipher_suite, 0xc030);
  EXPECT_EQ(parsed->session_id.size(), 16u);
}

TEST(OpaqueHandshake, ExactTotalSize) {
  const Bytes msg = opaque_handshake_message(HandshakeType::kCertificate, 4096);
  EXPECT_EQ(msg.size(), 4096u);
  EXPECT_EQ(msg[0], static_cast<std::uint8_t>(HandshakeType::kCertificate));
  EXPECT_THROW(opaque_handshake_message(HandshakeType::kCertificate, 3),
               std::invalid_argument);
}

TEST(ExtractSni, FindsHelloAmongMessages) {
  ClientHello hello;
  hello.cipher_suites = {0x1301};
  hello.set_sni("www.netflix.com");
  // Prepend an unrelated handshake message.
  Bytes payload = opaque_handshake_message(HandshakeType::kHelloRequest, 4);
  const Bytes hello_bytes = hello.serialize();
  payload.insert(payload.end(), hello_bytes.begin(), hello_bytes.end());
  const auto sni = extract_sni(payload);
  ASSERT_TRUE(sni.has_value());
  EXPECT_EQ(*sni, "www.netflix.com");
}

TEST(ExtractSni, NoHelloReturnsNullopt) {
  const Bytes payload = opaque_handshake_message(HandshakeType::kFinished, 20);
  EXPECT_FALSE(extract_sni(payload).has_value());
  EXPECT_FALSE(extract_sni({}).has_value());
}

// --- cipher model ------------------------------------------------------

TEST(CipherModel, Tls12GcmLengths) {
  const CipherModel model(CipherSuite::kTlsEcdheRsaAes256GcmSha384);
  EXPECT_EQ(model.seal_size(0), 24u);
  EXPECT_EQ(model.seal_size(2188), 2212u);  // the paper's type-1 band
  EXPECT_EQ(model.open_size(2212), 2188u);
  EXPECT_EQ(model.overhead(), 24u);
}

TEST(CipherModel, Tls13Lengths) {
  const CipherModel model(CipherSuite::kTlsAes128GcmSha256);
  EXPECT_EQ(model.seal_size(100), 117u);  // +1 type byte +16 tag
  EXPECT_EQ(model.open_size(117), 100u);
}

TEST(CipherModel, Tls13PaddingQuantizes) {
  const CipherModel model(CipherSuite::kTlsAes128GcmSha256, 256);
  EXPECT_EQ(model.seal_size(1), 256u + 16u);
  EXPECT_EQ(model.seal_size(255), 256u + 16u);
  EXPECT_EQ(model.seal_size(256), 512u + 16u);
}

TEST(CipherModel, Chacha20Lengths) {
  const CipherModel model(CipherSuite::kTlsEcdheRsaChacha20Poly1305);
  EXPECT_EQ(model.seal_size(100), 116u);
  EXPECT_EQ(model.open_size(116), 100u);
}

TEST(CipherModel, CbcPadsToBlock) {
  const CipherModel model(CipherSuite::kTlsRsaAes128CbcSha);
  // 0 bytes: IV(16) + pad(0 + 20 mac) -> 32 padded -> 16+32 = 48.
  EXPECT_EQ(model.seal_size(0), 48u);
  // Full block boundary still adds a full pad block.
  const std::size_t at_boundary = model.seal_size(12);  // 12+20=32 -> pad to 48
  EXPECT_EQ(at_boundary, 16u + 48u);
  EXPECT_GE(model.open_size(64), 12u);
}

TEST(CipherModel, SealOpenMonotonic) {
  for (CipherSuite suite :
       {CipherSuite::kTlsEcdheRsaAes256GcmSha384, CipherSuite::kTlsAes128GcmSha256,
        CipherSuite::kTlsEcdheRsaChacha20Poly1305}) {
    const CipherModel model(suite);
    std::size_t prev = 0;
    for (std::size_t size : {1u, 10u, 100u, 1000u, 16384u}) {
      const std::size_t sealed = model.seal_size(size);
      EXPECT_GT(sealed, prev);
      EXPECT_EQ(model.open_size(sealed), size);
      prev = sealed;
    }
  }
}

TEST(CipherSuiteHelpers, Tls13Detection) {
  EXPECT_TRUE(is_tls13_suite(CipherSuite::kTlsAes128GcmSha256));
  EXPECT_FALSE(is_tls13_suite(CipherSuite::kTlsEcdheRsaAes256GcmSha384));
  EXPECT_NE(to_string(CipherSuite::kTlsAes128GcmSha256).find("AES_128"),
            std::string::npos);
}

}  // namespace
}  // namespace wm::tls
