// TLS record layer: framing, parsing and emission.
//
// The paper's side-channel is the *length field of TLS (SSL) records*,
// which stays in cleartext even when everything else is encrypted. This
// module implements the record framing both ways:
//  * the simulator uses TlsRecordEmitter to wrap application payloads
//    into records exactly as a TLS stack would (16 KiB fragmentation,
//    AEAD expansion, optional padding), and
//  * the attacker uses TlsRecordParser to pull the record sequence —
//    content type, version, length, direction, time — back out of a
//    reassembled TCP stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wm/util/bytes.hpp"
#include "wm/util/time.hpp"

namespace wm::tls {

/// TLS record content types (RFC 5246 / 8446).
enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
  kHeartbeat = 24,
};

std::string to_string(ContentType type);
bool is_known_content_type(std::uint8_t value);

/// Legacy protocol version carried in the record header.
enum class ProtocolVersion : std::uint16_t {
  kSsl30 = 0x0300,
  kTls10 = 0x0301,
  kTls11 = 0x0302,
  kTls12 = 0x0303,
  // TLS 1.3 records carry 0x0303 on the wire; the enum value below is
  // used only for cipher-model selection, never serialized.
  kTls13 = 0x0304,
};

std::string to_string(ProtocolVersion version);

/// Maximum plaintext fragment length (RFC: 2^14).
inline constexpr std::size_t kMaxFragmentLength = 1 << 14;
/// Maximum ciphertext length permitted in a record (2^14 + 2048).
inline constexpr std::size_t kMaxCiphertextLength = (1 << 14) + 2048;
/// Record header size: type (1) + version (2) + length (2).
inline constexpr std::size_t kRecordHeaderSize = 5;

/// One TLS record as seen on the wire.
struct TlsRecord {
  ContentType content_type = ContentType::kApplicationData;
  std::uint16_t version_raw = 0x0303;
  util::Bytes payload;  // ciphertext (or plaintext for handshake records)

  /// Total bytes on the wire including the 5-byte header.
  [[nodiscard]] std::size_t wire_size() const {
    return kRecordHeaderSize + payload.size();
  }
  /// The length field value — the paper's "SSL record length".
  [[nodiscard]] std::uint16_t length() const {
    return static_cast<std::uint16_t>(payload.size());
  }
};

/// Serialize a record (header + payload).
void serialize_record(const TlsRecord& record, util::ByteWriter& out);
util::Bytes serialize_records(const std::vector<TlsRecord>& records);

/// Incremental parser over a (reassembled) TLS byte stream. Feed bytes
/// as they are delivered; complete records pop out with the timestamp
/// of the chunk that completed them.
///
/// Loss tolerance: an implausible header or an explicit gap
/// notification (on_gap) puts the parser into a scanning state instead
/// of a permanent desync. The scanner looks for the next plausible
/// 5-byte record header and validates it by chaining consecutive
/// length fields (`kResyncChain` plausible headers in a row) before
/// re-locking; skipped bytes are counted and the first record after a
/// re-lock carries `after_gap = true` so downstream consumers can
/// down-weight it.
class TlsRecordParser {
 public:
  /// Headers that must chain (each one's length field landing exactly
  /// on the next plausible header) before the scanner re-locks. Three
  /// chained headers make an accidental match in ciphertext
  /// vanishingly unlikely (~2^-40 per candidate offset).
  static constexpr std::size_t kResyncChain = 3;
  /// Buffer capacity a drained parser keeps for its next partial
  /// record. Records that span segments are buffered, so a server's
  /// multi-segment handshake flight grows the buffer to several KB; a
  /// live flow would otherwise hold that for its whole life.
  static constexpr std::size_t kKeptCapacity = 2048;

  /// One parsed record header plus a *view* of its payload. The parser
  /// never copies payload bytes: `payload` borrows either from the
  /// caller's chunk (fast path) or from the parser's internal buffer,
  /// and stays valid only until the next call into the parser (feed /
  /// on_gap / flush / reset). The length side-channel itself — the
  /// paper's feature — is the `length` field; most consumers never
  /// touch the payload at all. Application-data records whose body
  /// spanned more than one feed are delivered with an *empty* payload
  /// (the body-skip fast path below): their ciphertext is opaque and
  /// was streamed past without ever being buffered.
  struct ParsedRecord {
    util::SimTime timestamp;
    std::uint64_t stream_offset = 0;  // offset of the record header
    ContentType content_type = ContentType::kApplicationData;
    std::uint16_t version_raw = 0x0303;
    /// The record header's length field — the paper's "SSL record
    /// length". Always equals payload.size().
    std::uint16_t length = 0;
    // wm-lint: allow(borrow): valid until the next parser call; see
    // the struct comment.
    util::BytesView payload;
    /// True for the first record parsed after a gap or a resync scan:
    /// bytes were lost immediately before it, so length-based features
    /// derived from it deserve less trust.
    bool after_gap = false;
  };

  /// Feed the next contiguous chunk of stream bytes, appending complete
  /// records to `out`. Any previously returned ParsedRecord views are
  /// invalidated by this call.
  void feed(util::SimTime timestamp, util::BytesView data,
            std::vector<ParsedRecord>& out);
  std::vector<ParsedRecord> feed(util::SimTime timestamp, util::BytesView data);

  /// Return the parser to its freshly-constructed state and free its
  /// buffers. Used when per-flow state is recycled through a pool;
  /// callers tracking counter deltas must re-baseline.
  void reset();

  /// Free the buffer once every buffered byte has been consumed, if its
  /// capacity exceeds kKeptCapacity. Like any parser call it ends the
  /// ParsedRecord views of the previous call, so callers run it after
  /// they are done with them. Records, offsets and timestamps are
  /// unaffected.
  void trim() {
    if (buffer_pos_ != 0) compact();
  }

  /// Notify the parser that `length` stream bytes were lost at the
  /// current stream position (a reassembly StreamGap). Any partial
  /// record in the buffer can never complete: its bytes are skipped and
  /// the parser scans for the next plausible record header.
  void on_gap(util::SimTime timestamp, std::uint64_t length);

  /// End-of-stream: re-lock with a relaxed chain requirement (all
  /// plausible headers up to the end of buffered data, even if fewer
  /// than kResyncChain) and return any records that frees up. An
  /// incomplete trailing record stays unparsed.
  void flush(util::SimTime timestamp, std::vector<ParsedRecord>& out);
  std::vector<ParsedRecord> flush(util::SimTime timestamp);

  /// True while the parser is hunting for a plausible record boundary
  /// (after a gap or an implausible header) and not currently
  /// producing records.
  [[nodiscard]] bool desynchronized() const { return scanning_; }
  /// Bytes consumed from the stream so far (including partial record).
  [[nodiscard]] std::uint64_t bytes_consumed() const { return consumed_; }
  /// Number of complete records produced.
  [[nodiscard]] std::size_t records_parsed() const { return records_parsed_; }
  /// Bytes discarded while scanning (garbage between gap and re-lock).
  [[nodiscard]] std::uint64_t bytes_skipped() const { return skipped_; }
  /// Number of successful re-locks after a gap/desync.
  [[nodiscard]] std::size_t resyncs() const { return resyncs_; }
  /// Current buffered-byte footprint (bounded even on garbage input).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - buffer_pos_;
  }
  /// Heap bytes the parser holds: buffer and chunk-mark capacity.
  [[nodiscard]] std::size_t memory_bytes() const {
    return buffer_.capacity() + marks_.capacity() * sizeof(ChunkMark);
  }

 private:
  /// (absolute stream offset one past a chunk's last byte, its capture
  /// time): lets records whose bytes arrived across several feeds be
  /// stamped with the chunk that actually completed them.
  struct ChunkMark {
    std::uint64_t end = 0;
    util::SimTime time;
  };

  void parse(util::SimTime timestamp, bool relaxed,
             std::vector<ParsedRecord>& out);
  /// Hot-path variant of feed for the common case (empty buffer, not
  /// scanning): parses complete records straight out of the caller's
  /// chunk view and copies only the partial tail into the buffer,
  /// instead of appending the whole chunk first. Behaviour is
  /// byte-identical to the buffered path.
  void feed_contiguous(util::SimTime timestamp, util::BytesView data,
                       std::vector<ParsedRecord>& out);
  /// Deferred compaction: parse() leaves consumed bytes in place (so
  /// payload views into buffer_ survive until the next call) and only
  /// records the consumed prefix in buffer_pos_; the next feed (or
  /// trim()) erases it here.
  void compact();
  /// Free the buffer if it is empty and larger than kKeptCapacity.
  /// Runs wherever the buffer empties (compact, on_gap), so an empty
  /// buffer past that size only ever waits on a pending compaction.
  void release_if_drained();
  /// Scan [pos, buffer_.end()) for a validated record header. Advances
  /// `pos` over skipped bytes. Returns true when re-locked at `pos`.
  [[nodiscard]] bool try_resync(std::size_t& pos, bool relaxed);
  [[nodiscard]] bool plausible_header(std::size_t pos) const;
  [[nodiscard]] util::SimTime time_for(std::uint64_t end_offset,
                                       util::SimTime fallback) const;

  util::Bytes buffer_;
  /// Consumed prefix of buffer_ awaiting compaction; buffer_[buffer_pos_]
  /// is the first live byte.
  std::size_t buffer_pos_ = 0;
  /// Body-skip fast path: a locked-on application-data record whose
  /// body extends past the bytes seen so far is *streamed past*, not
  /// buffered — its ciphertext is never inspected, only its length
  /// matters. While skip_remaining_ > 0 the buffer is empty and
  /// skip_record_ holds the header fields; the record is emitted (with
  /// an empty payload) by the feed that delivers its last byte.
  std::size_t skip_remaining_ = 0;
  /// Bytes of the in-flight skipped record already consumed (header +
  /// partial body) — what on_gap() must count as skipped if the body is
  /// torn by a hole.
  std::size_t skip_consumed_ = 0;
  ParsedRecord skip_record_;
  std::vector<ChunkMark> marks_;
  std::uint64_t consumed_ = 0;
  std::uint64_t buffer_start_ = 0;  // stream offset of buffer_[0]
  std::uint64_t skipped_ = 0;
  std::size_t records_parsed_ = 0;
  std::size_t resyncs_ = 0;
  bool scanning_ = false;
  bool pending_after_gap_ = false;
};

}  // namespace wm::tls
