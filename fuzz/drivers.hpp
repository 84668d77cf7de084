// Fuzz entry points for the four hostile-input parsers.
//
// Each driver feeds raw bytes to one parser exactly the way the attack
// pipeline does, translates the parser's *expected* failure modes into
// an Outcome, and lets anything unexpected (segfault, sanitizer abort,
// uncaught foreign exception) escape — that escape is what the fuzzer
// and the corpus-replay test are hunting for.
//
// The same four functions back three harness shapes:
//   * libFuzzer binaries (fuzz_pcap etc.) under -DWM_FUZZ=ON with Clang,
//   * standalone file-replay binaries with any other compiler, and
//   * tests/test_fuzz_corpus.cpp, which replays the committed corpus in
//     every plain build and asserts the error taxonomy stays stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "wm/util/bytes.hpp"

namespace wm::fuzz {

/// How a parser disposed of one input. The taxonomy is deliberately
/// coarse — replay tests assert it is *stable*, i.e. a given corpus
/// file keeps producing the same Outcome until the parser's contract
/// deliberately changes.
enum class Outcome {
  kOk = 0,     // parsed to completion
  kRejected,   // parser threw one of its documented error types
  kDesync,     // TLS parser entered its terminal desynchronized state
};

[[nodiscard]] std::string to_string(Outcome outcome);

/// Classic pcap: parse every record through the streaming reader and
/// through the in-place record-indexed walk over the same bytes. The
/// paths must agree packet for packet and on the error that ends them.
/// The packets read are then fed to the TLS record-stream extractor in
/// each of its hold modes (borrowed, copied, lent), which must agree on
/// every event and counter. A disagreement escapes as a finding.
[[nodiscard]] Outcome drive_pcap(util::BytesView data);

/// pcapng: stream-parse every block, including unknown-type skipping.
[[nodiscard]] Outcome drive_pcapng(util::BytesView data);

/// TLS record layer: the first input byte picks a chunk size so one
/// corpus tree exercises many mid-record split positions; the rest is
/// the stream.
[[nodiscard]] Outcome drive_tls(util::BytesView data);

/// JSON document model: parse, and round-trip dump on success.
[[nodiscard]] Outcome drive_json(util::BytesView data);

}  // namespace wm::fuzz
