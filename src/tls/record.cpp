#include "wm/tls/record.hpp"

#include <cstring>

namespace wm::tls {

std::string to_string(ContentType type) {
  switch (type) {
    case ContentType::kChangeCipherSpec: return "change_cipher_spec";
    case ContentType::kAlert: return "alert";
    case ContentType::kHandshake: return "handshake";
    case ContentType::kApplicationData: return "application_data";
    case ContentType::kHeartbeat: return "heartbeat";
  }
  return "content_type(" + std::to_string(static_cast<int>(type)) + ")";
}

bool is_known_content_type(std::uint8_t value) {
  return value >= 20 && value <= 24;
}

std::string to_string(ProtocolVersion version) {
  switch (version) {
    case ProtocolVersion::kSsl30: return "SSLv3.0";
    case ProtocolVersion::kTls10: return "TLSv1.0";
    case ProtocolVersion::kTls11: return "TLSv1.1";
    case ProtocolVersion::kTls12: return "TLSv1.2";
    case ProtocolVersion::kTls13: return "TLSv1.3";
  }
  return "version(0x" + std::to_string(static_cast<int>(version)) + ")";
}

void serialize_record(const TlsRecord& record, util::ByteWriter& out) {
  out.write_u8(static_cast<std::uint8_t>(record.content_type));
  out.write_u16_be(record.version_raw);
  out.write_u16_be(record.length());
  out.write_bytes(record.payload);
}

util::Bytes serialize_records(const std::vector<TlsRecord>& records) {
  std::size_t total = 0;
  for (const TlsRecord& record : records) total += record.wire_size();
  util::ByteWriter out(total);
  for (const TlsRecord& record : records) serialize_record(record, out);
  return out.take();
}

bool TlsRecordParser::plausible_header(std::size_t pos) const {
  if (buffer_.size() - pos < kRecordHeaderSize) return false;
  const std::uint8_t type = buffer_[pos];
  const std::uint16_t version =
      static_cast<std::uint16_t>((buffer_[pos + 1] << 8) | buffer_[pos + 2]);
  const std::uint16_t length =
      static_cast<std::uint16_t>((buffer_[pos + 3] << 8) | buffer_[pos + 4]);
  const bool plausible_version = (version >= 0x0300 && version <= 0x0304);
  return is_known_content_type(type) && plausible_version &&
         length <= kMaxCiphertextLength;
}

util::SimTime TlsRecordParser::time_for(std::uint64_t end_offset,
                                        util::SimTime fallback) const {
  // The record is completed by the first chunk whose end reaches the
  // record's last byte; marks are in ascending end order.
  for (const ChunkMark& mark : marks_) {
    if (mark.end >= end_offset) return mark.time;
  }
  return fallback;
}

namespace {

/// Word-at-a-time candidate skip for the resync scanner: returns the
/// lowest index >= pos of a byte in [20, 24] (a known TLS content
/// type), or size if none. Eight bytes are tested per iteration with
/// the classic SWAR zero-byte trick (haszero(x) = (x - 0x01…01) & ~x &
/// 0x80…80), one XOR-broadcast per candidate type; the trick has no
/// false negatives, so a nonzero mask just narrows to a byte scan of
/// that word. Ciphertext is mostly non-candidate bytes, so the scanner
/// spends its time in the 8-byte stride, not the per-byte loop.
std::size_t next_candidate(const std::uint8_t* data, std::size_t pos,
                           std::size_t size) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighs = 0x8080808080808080ull;
  while (pos + 8 <= size) {
    std::uint64_t word;
    std::memcpy(&word, data + pos, 8);
    std::uint64_t mask = 0;
    for (std::uint8_t type = 20; type <= 24; ++type) {
      const std::uint64_t x = word ^ (kOnes * type);
      mask |= (x - kOnes) & ~x & kHighs;
    }
    if (mask != 0) {
      for (std::size_t i = 0; i < 8; ++i) {
        if (is_known_content_type(data[pos + i])) return pos + i;
      }
    }
    pos += 8;
  }
  while (pos < size && !is_known_content_type(data[pos])) ++pos;
  return pos;
}

}  // namespace

bool TlsRecordParser::try_resync(std::size_t& pos, bool relaxed) {
  std::size_t c = pos;
  while (c < buffer_.size()) {
    // Candidate headers start with a known content type byte — skip to
    // the next one.
    c = next_candidate(buffer_.data(), c, buffer_.size());
    if (c >= buffer_.size()) break;
    if (buffer_.size() - c < kRecordHeaderSize) {
      // A header may be straddling the buffer end: keep the tail and
      // wait for more bytes.
      skipped_ += c - pos;
      pos = c;
      return false;
    }
    if (!plausible_header(c)) {
      ++c;
      continue;
    }
    // Chain-validate: each header's length field must land exactly on
    // the next plausible header. Ciphertext almost never passes this
    // kResyncChain times in a row.
    std::size_t k = c;
    std::size_t chained = 0;
    bool failed = false;
    bool incomplete = false;
    while (chained < kResyncChain) {
      if (buffer_.size() - k < kRecordHeaderSize) {
        // Ran past the buffered data (a chained record ending exactly
        // at the buffer end counts too): the evidence is consistent but
        // not yet conclusive.
        incomplete = true;
        break;
      }
      if (!plausible_header(k)) {
        failed = true;
        break;
      }
      const std::size_t length =
          static_cast<std::size_t>((buffer_[k + 3] << 8) | buffer_[k + 4]);
      ++chained;
      k += kRecordHeaderSize + length;
      if (k > buffer_.size()) {
        incomplete = true;
        break;
      }
    }
    if (failed) {
      ++c;
      continue;
    }
    if (incomplete && chained < kResyncChain && !relaxed) {
      // Not enough evidence yet: discard up to the candidate and wait.
      skipped_ += c - pos;
      pos = c;
      return false;
    }
    // Re-locked (full chain, or relaxed end-of-stream validation).
    skipped_ += c - pos;
    pos = c;
    scanning_ = false;
    ++resyncs_;
    pending_after_gap_ = true;
    return true;
  }
  // No candidate byte anywhere: everything in the window is garbage.
  skipped_ += c - pos;
  pos = c;
  return false;
}

void TlsRecordParser::compact() {
  if (buffer_pos_ == 0) return;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_pos_));
  buffer_start_ += buffer_pos_;
  buffer_pos_ = 0;
  while (!marks_.empty() && marks_.front().end <= buffer_start_) {
    marks_.erase(marks_.begin());
  }
  release_if_drained();
}

void TlsRecordParser::release_if_drained() {
  if (buffer_.empty() && buffer_.capacity() > kKeptCapacity) {
    util::Bytes().swap(buffer_);
  }
}

void TlsRecordParser::parse(util::SimTime timestamp, bool relaxed,
                            std::vector<ParsedRecord>& out) {
  std::size_t pos = buffer_pos_;
  for (;;) {
    if (scanning_) {
      if (!try_resync(pos, relaxed)) break;
    }
    if (buffer_.size() - pos < kRecordHeaderSize) break;
    if (!plausible_header(pos)) {
      // Implausible header mid-stream: ciphertext or a silent gap.
      // Enter the scanning state instead of wedging permanently.
      scanning_ = true;
      pending_after_gap_ = true;
      continue;
    }
    const std::uint8_t type = buffer_[pos];
    const std::uint16_t version =
        static_cast<std::uint16_t>((buffer_[pos + 1] << 8) | buffer_[pos + 2]);
    const std::uint16_t length =
        static_cast<std::uint16_t>((buffer_[pos + 3] << 8) | buffer_[pos + 4]);

    if (buffer_.size() - pos - kRecordHeaderSize <
        static_cast<std::size_t>(length)) {
      break;  // incomplete record; wait for more bytes
    }

    ParsedRecord parsed;
    const std::uint64_t record_end =
        buffer_start_ + pos + kRecordHeaderSize + length;
    parsed.timestamp = time_for(record_end, timestamp);
    parsed.stream_offset = buffer_start_ + pos;
    parsed.content_type = static_cast<ContentType>(type);
    parsed.version_raw = version;
    parsed.length = length;
    parsed.payload =
        util::BytesView(buffer_).subspan(pos + kRecordHeaderSize, length);
    parsed.after_gap = pending_after_gap_;
    pending_after_gap_ = false;
    out.push_back(parsed);
    ++records_parsed_;
    pos += kRecordHeaderSize + length;
  }

  // Deferred compaction: consumed bytes stay in place so the payload
  // views just handed out survive until the next parser call.
  buffer_pos_ = pos;
  while (!marks_.empty() && marks_.front().end <= buffer_start_ + buffer_pos_) {
    marks_.erase(marks_.begin());
  }
}

void TlsRecordParser::feed(util::SimTime timestamp, util::BytesView data,
                           std::vector<ParsedRecord>& out) {
  compact();
  if (skip_remaining_ > 0 && !data.empty()) {
    // Mid-body of a skipped application-data record: stream past the
    // ciphertext without touching the buffer.
    const std::size_t take =
        std::min<std::size_t>(data.size(), skip_remaining_);
    consumed_ += take;
    skip_consumed_ += take;
    skip_remaining_ -= take;
    buffer_start_ += take;
    data = data.subspan(take);
    if (skip_remaining_ > 0) return;
    // Body complete: stamped with the chunk that delivered its last
    // byte — exactly what time_for() returns on the buffered path.
    skip_record_.timestamp = timestamp;
    out.push_back(skip_record_);
    ++records_parsed_;
    skip_consumed_ = 0;
    if (data.empty()) return;
  }
  if (!data.empty() && buffer_.empty() && !scanning_) {
    // Common case: the previous feed consumed everything it buffered
    // (buffer empty implies no marks either) and the stream is in
    // lock. Parse straight from the chunk.
    feed_contiguous(timestamp, data, out);
    return;
  }
  if (!data.empty()) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    consumed_ += data.size();
    marks_.push_back(ChunkMark{buffer_start_ + buffer_.size(), timestamp});
  }
  parse(timestamp, /*relaxed=*/false, out);
}

std::vector<TlsRecordParser::ParsedRecord> TlsRecordParser::feed(
    util::SimTime timestamp, util::BytesView data) {
  std::vector<ParsedRecord> out;
  feed(timestamp, data, out);
  return out;
}

void TlsRecordParser::feed_contiguous(util::SimTime timestamp,
                                      util::BytesView data,
                                      std::vector<ParsedRecord>& out) {
  consumed_ += data.size();
  std::size_t pos = 0;
  const std::size_t size = data.size();
  while (size - pos >= kRecordHeaderSize) {
    if (!is_known_content_type(data[pos])) {
      scanning_ = true;  // same transition parse() makes mid-buffer
      pending_after_gap_ = true;
      break;
    }
    const std::uint16_t version =
        static_cast<std::uint16_t>((data[pos + 1] << 8) | data[pos + 2]);
    const std::uint16_t length =
        static_cast<std::uint16_t>((data[pos + 3] << 8) | data[pos + 4]);
    if (version < 0x0300 || version > 0x0304 || length > kMaxCiphertextLength) {
      scanning_ = true;
      pending_after_gap_ = true;
      break;
    }
    if (size - pos - kRecordHeaderSize < static_cast<std::size_t>(length)) {
      if (static_cast<ContentType>(data[pos]) == ContentType::kApplicationData) {
        // Body-skip fast path: the header is plausible and locked-on,
        // and an application-data body is opaque ciphertext nobody
        // downstream reads — so stream past it instead of buffering.
        // The hot workload (TLS records larger than a TCP segment) hits
        // this on nearly every record, which is what keeps the parser
        // copy-free end to end.
        skip_record_ = ParsedRecord{};
        skip_record_.stream_offset = buffer_start_ + pos;
        skip_record_.content_type = ContentType::kApplicationData;
        skip_record_.version_raw = version;
        skip_record_.length = length;
        skip_record_.after_gap = pending_after_gap_;
        pending_after_gap_ = false;
        const std::size_t body_available = size - pos - kRecordHeaderSize;
        skip_remaining_ = length - body_available;
        skip_consumed_ = kRecordHeaderSize + body_available;
        pos = size;  // the whole remainder of this chunk is the body
      }
      break;  // incomplete record; the tail is buffered below
    }
    ParsedRecord parsed;
    // Every record completed by this chunk is stamped with the chunk's
    // own time — exactly what time_for() returns on the buffered path.
    parsed.timestamp = timestamp;
    parsed.stream_offset = buffer_start_ + pos;
    parsed.content_type = static_cast<ContentType>(data[pos]);
    parsed.version_raw = version;
    parsed.length = length;
    // Borrows the caller's chunk — valid until the next parser call,
    // like every ParsedRecord payload.
    parsed.payload = data.subspan(pos + kRecordHeaderSize, length);
    parsed.after_gap = pending_after_gap_;
    pending_after_gap_ = false;
    out.push_back(parsed);
    ++records_parsed_;
    pos += kRecordHeaderSize + length;
  }

  buffer_start_ += pos;
  if (pos < size) {
    // Partial record (or bytes the resync scanner needs): only this
    // tail is copied into the buffer.
    buffer_.assign(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end());
    marks_.push_back(ChunkMark{buffer_start_ + buffer_.size(), timestamp});
    if (scanning_) {
      parse(timestamp, /*relaxed=*/false, out);
    }
  }
}

void TlsRecordParser::reset() { *this = TlsRecordParser(); }

void TlsRecordParser::on_gap(util::SimTime, std::uint64_t length) {
  // A partial record — buffered or mid-skip — can never complete
  // across the hole: its bytes are lost to the parse. Advance the
  // stream cursor past both the stale buffer and the gap so offsets
  // stay aligned with the reassembled stream, and hunt for the next
  // record boundary. (A skipped body's consumed bytes already advanced
  // buffer_start_, so they only need the skipped_ accounting.)
  skipped_ += buffer_.size() - buffer_pos_ + skip_consumed_;
  skip_remaining_ = 0;
  skip_consumed_ = 0;
  buffer_start_ += buffer_.size() + length;
  buffer_.clear();
  release_if_drained();
  buffer_pos_ = 0;
  marks_.clear();
  scanning_ = true;
  pending_after_gap_ = true;
}

void TlsRecordParser::flush(util::SimTime timestamp,
                            std::vector<ParsedRecord>& out) {
  parse(timestamp, /*relaxed=*/true, out);
}

std::vector<TlsRecordParser::ParsedRecord> TlsRecordParser::flush(
    util::SimTime timestamp) {
  std::vector<ParsedRecord> out;
  flush(timestamp, out);
  return out;
}

}  // namespace wm::tls
