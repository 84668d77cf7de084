// TCP stream reassembly.
//
// Reconstructs the ordered byte stream of each direction of a TCP
// connection from possibly out-of-order, duplicated or overlapping
// segments. The TLS layer parses records out of these streams, so
// correctness here determines whether record lengths (the paper's
// side-channel) survive network impairments — the paper's robustness
// claim across "traffic conditions" depends on exactly this step.
//
// Loss tolerance: a hole at the head of the stream (a segment that was
// captured-dropped or never retransmitted) does not wedge delivery
// forever. Once the out-of-order buffer ahead of the hole exceeds a
// configurable reorder window (bytes or segment count), the hole is
// declared dead: `expected_` skips past it and an explicit StreamGap is
// emitted in sequence with the surrounding StreamChunks. Buffer-budget
// drops and snaplen-truncated payloads take the same path — a recorded
// dead range that surfaces as a StreamGap when delivery reaches it —
// instead of silently vanishing into a drop counter.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "wm/net/flow.hpp"
#include "wm/net/packet.hpp"
#include "wm/util/bytes.hpp"
#include "wm/util/time.hpp"

namespace wm::net {

/// A contiguous run of reassembled bytes. `timestamp` is the capture
/// time of the segment that first carried these bytes — buffering
/// behind a reordered segment does not shift it.
///
/// `view` spans the chunk's bytes; bytes() returns it. Where they live
/// has two modes. Owned mode (`owner` non-empty): `owner` is the buffer
/// the bytes sit in, either a copy of the piece or the whole frame a
/// caller lent (see HoldBuffers), so `view` may span only part of it.
/// Borrowed mode (`owner` empty) is produced only when the caller
/// promised stable input spans (see on_segment's PayloadHold): the
/// bytes live in the producer's backing store (an mmap'd capture) and
/// the chunk is valid only as long as that store. Moving a chunk keeps
/// `view` valid (a vector's heap buffer does not relocate on move); a
/// copy rebases it into the copied owner.
struct StreamChunk {
  util::SimTime timestamp;
  std::uint64_t stream_offset = 0;  // bytes since ISN+1
  util::Bytes owner;
  // wm-lint: allow(borrow): points into `owner`, or under the
  // stable-payload contract into the producer's backing store, which
  // outlives every chunk it yields.
  util::BytesView view;

  StreamChunk() = default;
  StreamChunk(const StreamChunk& other);
  StreamChunk& operator=(const StreamChunk& other);
  StreamChunk(StreamChunk&&) noexcept = default;
  StreamChunk& operator=(StreamChunk&&) noexcept = default;

  /// The chunk's payload, in either mode. Never empty.
  [[nodiscard]] util::BytesView bytes() const { return view; }
};

/// Buffers for owned holds: the pieces on_segment must keep past the
/// call when the payload is not stable. A caller keeps one across
/// segments and gives delivered chunks' owners back through recycle(),
/// so once warm a hold allocates nothing. A hold's buffer is either
///   * lent: the frame the payload arrived in, taken whole when the
///     caller offers it (PayloadHold::frame) and a spare at least the
///     frame's size is there to leave in its place — so a caller that
///     recycles its frame buffers never has to grow one; or
///   * copied: a spare the piece is copied into, sized for the largest
///     frame offered so far, so it can stand in for a frame later.
/// At most `cap` spares are kept; recycle() frees the rest.
class HoldBuffers {
 public:
  explicit HoldBuffers(std::size_t cap) : cap_(cap) {}

  /// Hold `piece` in `chunk` (its owner and view). `frame`, when not
  /// null, is the caller's buffer around `piece` and may be lent; it is
  /// set to null once lent, so a segment lends at most once.
  void hold(util::BytesView piece, util::Bytes*& frame, StreamChunk& chunk);
  /// Keep a delivered chunk's owner as a spare (emptied, capacity kept),
  /// or free it when `cap` spares are already kept.
  void recycle(util::Bytes buffer);

  /// Holds that took a lent frame / copied their piece into a spare.
  [[nodiscard]] std::uint64_t lent() const { return lent_; }
  [[nodiscard]] std::uint64_t copied() const { return copied_; }
  /// Heap bytes of the kept spares and their list.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<util::Bytes> spares_;
  std::size_t cap_;
  std::size_t frame_bytes_ = 0;  // largest frame offered for lending
  std::uint64_t lent_ = 0;
  std::uint64_t copied_ = 0;
};

/// What on_segment may do with a payload it has to hold past the call.
struct PayloadHold {
  /// The zero-copy contract: the caller promises the payload stays
  /// valid and unchanged for the reassembler's whole lifetime (mmap'd
  /// captures, in-memory traces), so held pieces borrow it instead of
  /// owning a buffer, and so do the chunks they become.
  bool stable = false;
  /// Where owned holds get their buffers. Null: each copies into a
  /// fresh allocation.
  HoldBuffers* buffers = nullptr;
  /// The caller's frame buffer the payload lies in, offered for lending
  /// (see HoldBuffers). After the call its contents are unspecified.
  util::Bytes* frame = nullptr;
};

/// A run of stream bytes that will never be delivered. Emitted in
/// sequence with StreamChunks so downstream parsers know exactly where
/// the byte stream is interrupted and can resynchronize.
struct StreamGap {
  /// Why the bytes are unrecoverable.
  enum class Cause : std::uint8_t {
    kReorderWindow,  // hole aged out of the reorder window (segment loss)
    kBufferCap,      // out-of-order buffer budget exceeded
    kTruncated,      // snaplen-truncated capture: tail bytes never seen
  };
  util::SimTime timestamp;          // when the gap was declared dead
  std::uint64_t stream_offset = 0;  // first missing byte, relative to base
  std::uint64_t length = 0;         // number of missing bytes
  Cause cause = Cause::kReorderWindow;
};

/// One element of the delivered stream: either bytes or a gap, in
/// stream-offset order.
struct StreamItem {
  enum class Kind : std::uint8_t { kChunk, kGap };
  Kind kind = Kind::kChunk;
  StreamChunk chunk;  // valid when kind == kChunk
  StreamGap gap;      // valid when kind == kGap

  static StreamItem make_chunk(StreamChunk c) {
    StreamItem item;
    item.kind = Kind::kChunk;
    item.chunk = std::move(c);
    return item;
  }
  static StreamItem make_gap(StreamGap g) {
    StreamItem item;
    item.kind = Kind::kGap;
    item.gap = g;
    return item;
  }
};

/// Reassembles one direction of one TCP connection.
///
/// Handles: out-of-order arrival, duplicated segments (retransmits),
/// overlapping segments (first-arrival wins, matching common OS
/// behaviour), SYN/FIN sequence-space consumption, 32-bit sequence
/// wraparound, and permanent loss (explicit StreamGap events once a
/// hole outlives the reorder window).
class TcpStreamReassembler {
 public:
  struct Config {
    /// Maximum bytes buffered ahead of the next expected sequence
    /// number before the oldest hole is declared dead.
    std::size_t max_buffered_bytes = 8 * 1024 * 1024;
    /// Reorder window in bytes: once more than this many contiguous-
    /// ready bytes wait behind a hole, the hole is condemned. Sized
    /// well above any plausible in-flight reordering (a few bandwidth-
    /// delay products) so retransmitted segments still fill holes.
    std::size_t reorder_window_bytes = 1 * 1024 * 1024;
    /// Reorder window in segments: same condemnation trigger, counted
    /// in buffered out-of-order segments.
    std::size_t reorder_window_segments = 128;
  };

  TcpStreamReassembler() = default;
  explicit TcpStreamReassembler(Config config) : config_(config) {}

  /// Offer one segment of this direction. `sequence` is the raw TCP
  /// sequence number; `syn` marks the segment carrying the initial
  /// sequence number. `truncated_bytes` is how many payload bytes the
  /// segment carried on the wire beyond what the capture retained
  /// (snaplen truncation) — they become a dead range immediately.
  /// Chunks and gaps that became deliverable are appended to `out` in
  /// stream order.
  ///
  /// Out-of-order pieces are held until the hole before them fills.
  /// `hold` says how: borrowed views under the stable contract, else
  /// owned buffers, lent or copied (see PayloadHold, HoldBuffers). The
  /// delivered byte sequence, offsets, timestamps and gap events are
  /// identical every way — only payload storage differs.
  void on_segment(util::SimTime timestamp, std::uint32_t sequence, bool syn,
                  bool fin, util::BytesView payload, std::size_t truncated_bytes,
                  PayloadHold hold, std::vector<StreamItem>& out);

  /// The shortcut beside on_segment, for the segments jittered traffic
  /// is made of. The caller must have ruled out SYN/FIN/RST and
  /// truncation. A plain data segment (or pure ACK) is taken when it
  ///   * starts at the next expected byte and ends at or before the
  ///     first held piece: it is delivered, then every held piece it
  ///     makes contiguous; or
  ///   * starts past a hole, at or after the end of the held run: it is
  ///     held as on_segment holds it (`hold`, see PayloadHold), unless
  ///     the hold would trip the reorder window (more than
  ///     reorder_window_segments pieces or reorder_window_bytes bytes)
  ///     or the buffer budget (max_buffered_bytes).
  /// `deliver(StreamChunk&)` is called once per delivered chunk in
  /// stream order: the segment first (borrowing `payload`, stamped
  /// `timestamp`), then each held piece with its first-arrival stamp;
  /// the callee may take a chunk's owner. Returns false, having changed
  /// nothing on_segment would not, when the segment needs on_segment:
  /// a retransmit, an overlap, a hole in the middle of the held run, a
  /// dead range, a FIN seen, a hole to condemn or bytes to drop. Taken
  /// or not, the stream's state, chunks and counters are exactly
  /// on_segment's; only the hold tallies differ, as a delivered segment
  /// is never held. On the jittered seed-1 dataset 66,389 of 774,775
  /// packets still reach on_segment (500,159 when only in-order
  /// segments were taken).
  template <typename Deliver>
  bool shortcut(util::SimTime timestamp, std::uint32_t sequence,
                util::BytesView payload, PayloadHold hold, Deliver&& deliver);

  /// Declare every outstanding hole dead and deliver all buffered data
  /// (end of capture, idle eviction, or RST). Leaves the stream
  /// finished. Appends to `out`.
  void flush(util::SimTime timestamp, std::vector<StreamItem>& out);
  std::vector<StreamItem> flush(util::SimTime timestamp);

  /// Total contiguous bytes delivered so far.
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_; }
  /// True once a SYN (or first segment) established the base sequence.
  [[nodiscard]] bool synchronized() const { return synchronized_; }
  /// Count of bytes discarded due to buffer-budget overflow.
  [[nodiscard]] std::uint64_t dropped_bytes() const { return dropped_; }
  /// Number of StreamGap events emitted so far.
  [[nodiscard]] std::uint64_t gaps_emitted() const { return gaps_emitted_; }
  /// Total bytes covered by emitted StreamGap events.
  [[nodiscard]] std::uint64_t gap_bytes() const { return gap_bytes_; }
  /// Bytes currently held in the out-of-order buffer. Together with
  /// pending_segments() this is the reassembler's live memory footprint,
  /// which streaming consumers watch to keep per-flow state bounded.
  [[nodiscard]] std::size_t buffered_bytes() const { return buffered_bytes_; }
  /// Number of out-of-order segments currently held.
  [[nodiscard]] std::size_t pending_segments() const { return pending_.size(); }
  /// Heap bytes the reassembler holds: out-of-order hold capacity, the
  /// buffers its holds own (a lent frame counts whole) and dead-range
  /// nodes.
  [[nodiscard]] std::size_t memory_bytes() const;
  /// True if a FIN has been delivered in-order, or the stream was
  /// flushed/reset.
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  /// One buffered out-of-order piece: the chunk it will be delivered
  /// as (owner, view, first-arrival time; the stream offset is set on
  /// delivery), keyed by the absolute sequence of its first byte.
  struct Pending {
    std::uint64_t start = 0;
    StreamChunk chunk;

    [[nodiscard]] std::uint64_t end() const { return start + chunk.view.size(); }
  };
  /// A half-open byte range [begin at map key, `end`) known to be
  /// unrecoverable. Surfaces as a StreamGap when delivery reaches it;
  /// late-arriving data overlapping the range resurrects those bytes.
  struct DeadRange {
    std::uint64_t end = 0;
    StreamGap::Cause cause = StreamGap::Cause::kBufferCap;
  };

  /// What shortcut()'s state step did with a segment.
  enum class Admitted : std::uint8_t {
    kDeclined,   // untouched: the caller goes to on_segment
    kDone,       // held, or a pure ACK: nothing to deliver
    kDelivered,  // expected_ advanced past the segment's payload
  };
  /// The state step of shortcut(): everything but the delivery.
  Admitted admit(util::SimTime timestamp, std::uint32_t sequence,
                 util::BytesView payload, PayloadHold hold);

  /// Unwraps a 32-bit sequence number into 64-bit stream space near the
  /// current expected position.
  std::uint64_t unwrap(std::uint32_t sequence) const;
  void drain(util::SimTime timestamp, bool condemn_all,
             std::vector<StreamItem>& out);
  /// First pending piece whose end lies past `cursor` (the flat-vector
  /// analogue of the old map upper_bound/prev probe), or pending_.end().
  [[nodiscard]] std::vector<Pending>::iterator pending_covering(
      std::uint64_t cursor);
  /// First pending piece starting at or after `cursor`.
  [[nodiscard]] std::vector<Pending>::iterator pending_at_or_after(
      std::uint64_t cursor);
  /// Record [start, end) as unrecoverable, skipping sub-spans already
  /// buffered or delivered.
  void add_dead_range(std::uint64_t start, std::uint64_t end,
                      StreamGap::Cause cause);
  /// Remove [start, end) from the dead set: real bytes arrived.
  void resurrect(std::uint64_t start, std::uint64_t end);
  /// True when buffered data pressure (`segments` still held) says the
  /// head hole will not fill.
  [[nodiscard]] bool over_reorder_window(std::size_t segments) const;

  Config config_;
  bool synchronized_ = false;
  bool finished_ = false;
  std::uint64_t base_ = 0;       // absolute sequence of first payload byte
  std::uint64_t expected_ = 0;   // next in-order absolute sequence
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t gaps_emitted_ = 0;
  std::uint64_t gap_bytes_ = 0;
  std::uint64_t fin_at_ = 0;
  bool fin_seen_ = false;
  std::size_t buffered_bytes_ = 0;
  // Out-of-order hold, sorted by absolute start sequence. A flat
  // vector, not a map: the buffer is small (bounded by the reorder
  // window) and insertion-shift beats one node allocation per
  // out-of-order segment on the hot path.
  std::vector<Pending> pending_;
  // Unrecoverable ranges: absolute start -> {end, cause}. Stays a map —
  // dead ranges are rare (impaired captures only), never hot.
  std::map<std::uint64_t, DeadRange> dead_;
};

template <typename Deliver>
bool TcpStreamReassembler::shortcut(util::SimTime timestamp,
                                    std::uint32_t sequence,
                                    util::BytesView payload, PayloadHold hold,
                                    Deliver&& deliver) {
  const Admitted admitted = admit(timestamp, sequence, payload, hold);
  if (admitted != Admitted::kDelivered) return admitted == Admitted::kDone;
  StreamChunk segment;
  segment.timestamp = timestamp;
  segment.stream_offset = expected_ - payload.size() - base_;
  segment.view = payload;
  deliver(segment);
  // Held pieces never overlap and the segment ended at or before the
  // first, so each one the stream now reaches starts exactly there.
  std::size_t taken = 0;
  while (taken < pending_.size() && pending_[taken].start == expected_) {
    StreamChunk& chunk = pending_[taken++].chunk;
    chunk.stream_offset = expected_ - base_;
    expected_ += chunk.view.size();
    delivered_ += chunk.view.size();
    buffered_bytes_ -= chunk.view.size();
    deliver(chunk);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
  return true;
}

/// Both directions of a TCP connection, reassembled together.
class TcpConnectionReassembler {
 public:
  TcpConnectionReassembler() = default;
  explicit TcpConnectionReassembler(TcpStreamReassembler::Config config)
      : client_(config), server_(config) {}

  struct DirectedItem {
    FlowDirection direction;
    StreamItem item;
  };

  /// Feed one TCP segment of `direction`, appending what became
  /// deliverable, labelled with its direction, to `out`. An RST ends
  /// both directions: buffered data is flushed (holes become gaps) and
  /// both streams report finished(). `hold` goes to the stream
  /// reassembler (see TcpStreamReassembler::on_segment).
  void on_segment(FlowDirection direction, util::SimTime timestamp,
                  std::uint32_t sequence, bool syn, bool fin, bool rst,
                  util::BytesView payload, std::size_t truncated_bytes,
                  std::vector<DirectedItem>& out, PayloadHold hold = {});

  /// Mutable access to one direction's stream, for its shortcut
  /// (TcpStreamReassembler::shortcut). After an RST both streams are
  /// finished, so the shortcut declines and on_segment drops the rest.
  [[nodiscard]] TcpStreamReassembler& stream(FlowDirection direction) {
    return direction == FlowDirection::kClientToServer ? client_ : server_;
  }

  /// Flush both directions (end of capture or eviction).
  std::vector<DirectedItem> flush(util::SimTime timestamp);

  [[nodiscard]] const TcpStreamReassembler& client_stream() const { return client_; }
  [[nodiscard]] const TcpStreamReassembler& server_stream() const { return server_; }
  /// Combined live out-of-order buffer footprint of both directions.
  [[nodiscard]] std::size_t buffered_bytes() const {
    return client_.buffered_bytes() + server_.buffered_bytes();
  }
  /// Heap bytes held by both directions and the relabelling scratch.
  [[nodiscard]] std::size_t memory_bytes() const {
    return client_.memory_bytes() + server_.memory_bytes() +
           scratch_.capacity() * sizeof(StreamItem);
  }

  /// True once an RST tore the connection down.
  [[nodiscard]] bool reset() const { return reset_; }

 private:
  TcpStreamReassembler client_;
  TcpStreamReassembler server_;
  // Reused per call to relabel StreamItems with their direction without
  // a fresh vector per segment.
  std::vector<StreamItem> scratch_;
  bool reset_ = false;
};

}  // namespace wm::net
