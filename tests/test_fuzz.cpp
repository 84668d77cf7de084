// Adversarial-input robustness: every parser that consumes untrusted
// bytes (an eavesdropper parses traffic it does not control) must
// reject garbage gracefully — error return or typed exception, never a
// crash, hang or over-read.
#include <gtest/gtest.h>

#include <sstream>

#include "reassembly_helpers.hpp"
#include "wm/net/pcap.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/tls/handshake.hpp"
#include "wm/tls/record.hpp"
#include "wm/util/json.hpp"
#include "wm/util/rng.hpp"

namespace wm {
namespace {

util::Bytes random_bytes(util::Rng& rng, std::size_t max_size) {
  util::Bytes out(static_cast<std::size_t>(rng.next_below(max_size + 1)));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Fuzz, TlsRecordParserNeverCrashes) {
  util::Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    tls::TlsRecordParser parser;
    // Feed in several random chunks.
    const int chunks = 1 + static_cast<int>(rng.next_below(4));
    for (int c = 0; c < chunks; ++c) {
      const auto data = random_bytes(rng, 512);
      (void)parser.feed(util::SimTime::from_seconds(c), data);
    }
  }
}

TEST(Fuzz, TlsRecordParserSeededHeaders) {
  // Valid-looking headers with adversarial lengths.
  util::Rng rng(102);
  for (int trial = 0; trial < 2000; ++trial) {
    util::ByteWriter wire;
    wire.write_u8(static_cast<std::uint8_t>(20 + rng.next_below(5)));
    wire.write_u16_be(0x0303);
    wire.write_u16_be(static_cast<std::uint16_t>(rng.next_u64()));
    wire.write_bytes(random_bytes(rng, 64));
    tls::TlsRecordParser parser;
    (void)parser.feed(util::SimTime::from_seconds(0), wire.view());
  }
}

TEST(Fuzz, ClientHelloParseNeverCrashes) {
  util::Rng rng(103);
  for (int trial = 0; trial < 3000; ++trial) {
    auto data = random_bytes(rng, 256);
    // Half the time, make it start like a ClientHello.
    if (!data.empty() && rng.bernoulli(0.5)) data[0] = 1;
    (void)tls::ClientHello::parse(data);
    (void)tls::ServerHello::parse(data);
    (void)tls::extract_sni(data);
  }
}

TEST(Fuzz, ClientHelloMutatedRoundTrip) {
  // Mutate single bytes of a VALID hello; parse must never crash and
  // the unmutated form must keep round-tripping.
  tls::ClientHello hello;
  hello.cipher_suites = {0x1301, 0xc02f};
  hello.set_sni("fuzz.example.net");
  hello.set_alpn({"h2"});
  const util::Bytes wire = hello.serialize();

  util::Rng rng(104);
  for (int trial = 0; trial < 2000; ++trial) {
    util::Bytes mutated = wire;
    const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] = static_cast<std::uint8_t>(rng.next_u64());
    const auto parsed = tls::ClientHello::parse(mutated);
    if (parsed) {
      (void)parsed->sni();  // accessors on accepted input must be safe too
    }
  }
  ASSERT_TRUE(tls::ClientHello::parse(wire).has_value());
}

TEST(Fuzz, JsonParserNeverCrashes) {
  util::Rng rng(105);
  const std::string alphabet = "{}[]\",:0123456789.eE+-truefalsnl \t\n\\u";
  for (int trial = 0; trial < 5000; ++trial) {
    std::string text;
    const std::size_t size = static_cast<std::size_t>(rng.next_below(64));
    for (std::size_t i = 0; i < size; ++i) {
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    try {
      const auto value = util::JsonValue::parse(text);
      // Anything accepted must re-serialize and re-parse to itself.
      EXPECT_EQ(util::JsonValue::parse(value.dump()), value);
    } catch (const std::runtime_error&) {
      // rejection is fine
    }
  }
}

TEST(Fuzz, PcapReaderRejectsGarbageGracefully) {
  util::Rng rng(106);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto data = random_bytes(rng, 256);
    std::string text(util::as_chars(data));
    std::stringstream stream(text);
    try {
      net::PcapReader reader(stream);
      while (reader.next()) {
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, PcapReaderMutatedValidFile) {
  std::stringstream base;
  {
    net::PcapWriter writer(base);
    for (int i = 0; i < 5; ++i) {
      writer.write(net::Packet(util::SimTime::from_seconds(i),
                               util::Bytes(60 + static_cast<std::size_t>(i), 0x5a)));
    }
  }
  const std::string valid = base.str();

  util::Rng rng(107);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = valid;
    const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] = static_cast<char>(rng.next_u64());
    std::stringstream stream(mutated);
    try {
      net::PcapReader reader(stream);
      while (reader.next()) {
      }
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Fuzz, PcapngReaderMutatedValidFile) {
  std::stringstream base;
  {
    net::PcapngWriter writer(base);
    for (int i = 0; i < 5; ++i) {
      writer.write(net::Packet(util::SimTime::from_seconds(i),
                               util::Bytes(80, static_cast<std::uint8_t>(i))));
    }
  }
  const std::string valid = base.str();

  util::Rng rng(108);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = valid;
    const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] = static_cast<char>(rng.next_u64());
    std::stringstream stream(mutated);
    try {
      net::PcapngReader reader(stream);
      while (reader.next()) {
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, ReassemblerRandomSegments) {
  // Random sequence numbers, flags and payloads: the reassembler must
  // stay consistent (delivered bytes monotonically increase, no crash).
  util::Rng rng(109);
  for (int trial = 0; trial < 200; ++trial) {
    net::TcpStreamReassembler::Config config;
    config.max_buffered_bytes = 4096;
    net::TcpStreamReassembler reassembler(config);
    std::uint64_t delivered = 0;
    for (int seg = 0; seg < 50; ++seg) {
      const auto payload = random_bytes(rng, 128);
      (void)net::test::on_segment(
          reassembler, util::SimTime::from_seconds(seg),
          static_cast<std::uint32_t>(rng.next_u64()), rng.bernoulli(0.05),
          rng.bernoulli(0.05), payload);
      EXPECT_GE(reassembler.delivered_bytes(), delivered);
      delivered = reassembler.delivered_bytes();
    }
  }
}

}  // namespace
}  // namespace wm
