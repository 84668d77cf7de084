#include "wm/net/reassembly.hpp"

#include <algorithm>
#include <limits>

namespace wm::net {

StreamChunk::StreamChunk(const StreamChunk& other)
    : timestamp(other.timestamp),
      stream_offset(other.stream_offset),
      owner(other.owner),
      view(other.view) {
  if (!owner.empty()) {
    view = util::BytesView(owner).subspan(
        static_cast<std::size_t>(other.view.data() - other.owner.data()),
        other.view.size());
  }
}

StreamChunk& StreamChunk::operator=(const StreamChunk& other) {
  if (this != &other) *this = StreamChunk(other);
  return *this;
}

void HoldBuffers::hold(util::BytesView piece, util::Bytes*& frame,
                       StreamChunk& chunk) {
  if (frame != nullptr) frame_bytes_ = std::max(frame_bytes_, frame->size());
  if (frame != nullptr && !spares_.empty() &&
      spares_.back().capacity() >= frame->size()) {
    // Lend: the piece's bytes stay where they are, now owned by the
    // hold, and the frame gets a spare that fits it.
    chunk.owner = std::move(*frame);
    *frame = std::move(spares_.back());
    spares_.pop_back();
    frame = nullptr;
    chunk.view = piece;
    ++lent_;
    return;
  }
  if (!spares_.empty()) {
    chunk.owner = std::move(spares_.back());
    spares_.pop_back();
  }
  // Sized to stand in for any frame seen so far, once it is a spare.
  chunk.owner.reserve(std::max(piece.size(), frame_bytes_));
  chunk.owner.assign(piece.begin(), piece.end());
  chunk.view = chunk.owner;
  ++copied_;
}

void HoldBuffers::recycle(util::Bytes buffer) {
  if (spares_.size() >= cap_) return;  // `buffer` is freed
  buffer.clear();
  spares_.push_back(std::move(buffer));
}

std::size_t HoldBuffers::memory_bytes() const {
  std::size_t total = spares_.capacity() * sizeof(util::Bytes);
  for (const util::Bytes& spare : spares_) total += spare.capacity();
  return total;
}

std::uint64_t TcpStreamReassembler::unwrap(std::uint32_t sequence) const {
  // Choose the 64-bit value congruent to `sequence` (mod 2^32) closest
  // to the current expectation.
  const std::uint64_t modulus = 1ull << 32;
  const std::uint64_t base_epoch = expected_ & ~(modulus - 1);
  std::uint64_t candidate = base_epoch | sequence;
  // Consider the neighbouring epochs and pick the closest to expected_.
  std::uint64_t best = candidate;
  std::uint64_t best_distance = candidate > expected_ ? candidate - expected_
                                                      : expected_ - candidate;
  for (const std::int64_t shift : {-1, +1}) {
    const std::int64_t shifted =
        static_cast<std::int64_t>(candidate) + shift * static_cast<std::int64_t>(modulus);
    if (shifted < 0) continue;
    const auto value = static_cast<std::uint64_t>(shifted);
    const std::uint64_t distance =
        value > expected_ ? value - expected_ : expected_ - value;
    if (distance < best_distance) {
      best = value;
      best_distance = distance;
    }
  }
  return best;
}

bool TcpStreamReassembler::over_reorder_window(std::size_t segments) const {
  return buffered_bytes_ > config_.reorder_window_bytes ||
         segments > config_.reorder_window_segments;
}

std::vector<TcpStreamReassembler::Pending>::iterator
TcpStreamReassembler::pending_at_or_after(std::uint64_t cursor) {
  return std::lower_bound(
      pending_.begin(), pending_.end(), cursor,
      [](const Pending& piece, std::uint64_t c) { return piece.start < c; });
}

std::vector<TcpStreamReassembler::Pending>::iterator
TcpStreamReassembler::pending_covering(std::uint64_t cursor) {
  // Buffered pieces never overlap (insertion only fills uncovered
  // spans), so at most one piece can straddle `cursor`: the last one
  // starting at or before it.
  auto after = std::upper_bound(
      pending_.begin(), pending_.end(), cursor,
      [](std::uint64_t c, const Pending& piece) { return c < piece.start; });
  if (after != pending_.begin()) {
    const auto prev_it = std::prev(after);
    if (prev_it->end() > cursor) return prev_it;
  }
  return pending_.end();
}

void TcpStreamReassembler::add_dead_range(std::uint64_t start, std::uint64_t end,
                                          StreamGap::Cause cause) {
  start = std::max(start, expected_);
  if (end <= start) return;

  // Skip sub-spans already covered by buffered data: those bytes are
  // not lost. The remaining uncovered pieces become dead ranges.
  std::uint64_t cursor = start;
  while (cursor < end) {
    const auto covering = pending_covering(cursor);
    if (covering != pending_.end()) {
      cursor = covering->end();
      continue;
    }
    std::uint64_t span_end = end;
    const auto next_it = pending_at_or_after(cursor);
    if (next_it != pending_.end() && next_it->start < end) {
      span_end = next_it->start;
    }
    if (span_end > cursor) {
      // Insert [cursor, span_end), merging overlapping/adjacent dead
      // ranges. The earliest-recorded cause wins on merge.
      std::uint64_t m_start = cursor;
      std::uint64_t m_end = span_end;
      StreamGap::Cause m_cause = cause;
      const auto up = dead_.upper_bound(m_start);
      if (up != dead_.begin()) {
        const auto prev_dead = std::prev(up);
        if (prev_dead->second.end >= m_start) {
          m_start = prev_dead->first;
          m_end = std::max(m_end, prev_dead->second.end);
          m_cause = prev_dead->second.cause;
          dead_.erase(prev_dead);
        }
      }
      for (auto next_dead = dead_.lower_bound(m_start);
           next_dead != dead_.end() && next_dead->first <= m_end;
           next_dead = dead_.lower_bound(m_start)) {
        m_end = std::max(m_end, next_dead->second.end);
        dead_.erase(next_dead);
      }
      dead_[m_start] = DeadRange{m_end, m_cause};
    }
    cursor = span_end;
  }
}

void TcpStreamReassembler::resurrect(std::uint64_t start, std::uint64_t end) {
  if (end <= start || dead_.empty()) return;
  // A range straddling `start` is split; its tail may also straddle
  // `end` and is re-inserted past it.
  const auto up = dead_.upper_bound(start);
  if (up != dead_.begin()) {
    const auto prev_it = std::prev(up);
    if (prev_it->second.end > start) {
      const std::uint64_t p_start = prev_it->first;
      const DeadRange range = prev_it->second;
      dead_.erase(prev_it);
      if (p_start < start) dead_[p_start] = DeadRange{start, range.cause};
      if (range.end > end) dead_[end] = DeadRange{range.end, range.cause};
    }
  }
  // Ranges starting inside [start, end): drop, keeping any tail.
  for (auto it = dead_.lower_bound(start); it != dead_.end() && it->first < end;) {
    const DeadRange range = it->second;
    it = dead_.erase(it);
    if (range.end > end) {
      dead_[end] = DeadRange{range.end, range.cause};
      break;
    }
  }
}

void TcpStreamReassembler::on_segment(util::SimTime timestamp,
                                      std::uint32_t sequence, bool syn, bool fin,
                                      util::BytesView payload,
                                      std::size_t truncated_bytes,
                                      PayloadHold hold,
                                      std::vector<StreamItem>& out) {
  if (!synchronized_) {
    // Establish the base sequence. A SYN consumes one sequence number;
    // for mid-stream captures we accept the first segment's sequence as
    // the base.
    base_ = sequence;
    if (syn) base_ += 1;
    expected_ = base_;
    synchronized_ = true;
  }

  std::uint64_t seg_start = unwrap(sequence);
  if (syn) seg_start += 1;  // payload begins after the SYN's sequence slot

  if (fin) {
    // The FIN sits after the segment's *wire* payload, including any
    // bytes the capture truncated away.
    const std::uint64_t fin_pos = seg_start + payload.size() + truncated_bytes;
    if (!fin_seen_ || fin_pos < fin_at_) {
      fin_seen_ = true;
      fin_at_ = fin_pos;
    }
  }

  if (!payload.empty()) {
    // Without a caller's spares, owned holds copy into fresh buffers.
    HoldBuffers fresh(0);
    HoldBuffers& buffers = hold.buffers != nullptr ? *hold.buffers : fresh;
    std::uint64_t start = seg_start;
    util::BytesView data = payload;

    // Trim the part we have already delivered (retransmission overlap).
    if (start < expected_) {
      const std::uint64_t overlap = expected_ - start;
      if (overlap >= data.size()) {
        data = {};
      } else {
        data = data.subspan(static_cast<std::size_t>(overlap));
        start = expected_;
      }
    }

    // Insert the pieces of [start, start+size) not already covered by a
    // buffered segment: first-arrival content wins, and data spanning
    // multiple buffered segments keeps all its uncovered pieces.
    std::uint64_t cursor = start;
    util::BytesView rest = data;
    while (!rest.empty()) {
      // Covered by the predecessor segment?
      const auto covering = pending_covering(cursor);
      if (covering != pending_.end()) {
        const std::uint64_t overlap = covering->end() - cursor;
        if (overlap >= rest.size()) {
          rest = {};
          break;
        }
        rest = rest.subspan(static_cast<std::size_t>(overlap));
        cursor += overlap;
        continue;  // re-evaluate neighbours at the new cursor
      }
      // Free run until the next buffered segment (or the piece's end).
      std::size_t take = rest.size();
      const auto next_it = pending_at_or_after(cursor);
      if (next_it != pending_.end() && next_it->start < cursor + rest.size()) {
        take = static_cast<std::size_t>(next_it->start - cursor);
      }
      if (take > 0) {
        const util::BytesView piece = rest.subspan(0, take);
        if (buffered_bytes_ + piece.size() > config_.max_buffered_bytes) {
          // Over budget: the bytes are gone, but not silently — record
          // a dead range so a StreamGap surfaces in the delivered
          // sequence when the stream reaches it.
          dropped_ += piece.size();
          add_dead_range(cursor, cursor + piece.size(),
                         StreamGap::Cause::kBufferCap);
        } else {
          resurrect(cursor, cursor + piece.size());
          Pending pending;
          pending.start = cursor;
          pending.chunk.timestamp = timestamp;
          if (hold.stable) {
            // Zero-copy hold: the caller guaranteed the span outlives
            // this reassembler, so buffering borrows instead of copying.
            pending.chunk.view = piece;
          } else {
            buffers.hold(piece, hold.frame, pending.chunk);
          }
          // next_it is the insertion point computed above; resurrect()
          // only touches dead_, so it is still valid.
          pending_.insert(next_it, std::move(pending));
          buffered_bytes_ += piece.size();
        }
        rest = rest.subspan(take);
        cursor += take;
      }
    }
  }

  if (truncated_bytes > 0) {
    // Snaplen truncation: the segment carried more bytes than the
    // capture retained. They may still arrive via retransmission, but
    // until then they are a known hole, not silence.
    const std::uint64_t tail_start = seg_start + payload.size();
    add_dead_range(tail_start, tail_start + truncated_bytes,
                   StreamGap::Cause::kTruncated);
  }

  drain(timestamp, /*condemn_all=*/false, out);
  if (fin_seen_ && expected_ >= fin_at_) finished_ = true;
}

TcpStreamReassembler::Admitted TcpStreamReassembler::admit(
    util::SimTime timestamp, std::uint32_t sequence, util::BytesView payload,
    PayloadHold hold) {
  // A FIN position to re-check or a dead range to surface or resurrect
  // is on_segment's. Without them, drain() has nothing left to do after
  // any call (a held run never sits over the reorder window), so a pure
  // ACK changes nothing.
  if (finished_ || fin_seen_ || !dead_.empty()) return Admitted::kDeclined;
  if (!synchronized_) {
    // Mid-stream capture: first segment's sequence becomes the base,
    // exactly as on_segment does for a non-SYN first segment.
    base_ = sequence;
    expected_ = base_;
    synchronized_ = true;
  }
  if (payload.empty()) return Admitted::kDone;
  const std::uint64_t start = unwrap(sequence);
  // on_segment buffers every piece before draining it, so it drops
  // bytes over max_buffered_bytes even where they are deliverable.
  const std::size_t buffered = buffered_bytes_ + payload.size();
  if (buffered > config_.max_buffered_bytes) return Admitted::kDeclined;
  if (start == expected_) {
    if (!pending_.empty() && start + payload.size() > pending_.front().start) {
      return Admitted::kDeclined;  // overlaps the held run: trim first
    }
    expected_ += payload.size();
    delivered_ += payload.size();
    return Admitted::kDelivered;
  }
  // Behind the stream (a retransmit) or inside the held run: trimming
  // and first-arrival-wins splitting are on_segment's.
  if (start < expected_ || (!pending_.empty() && start < pending_.back().end())) {
    return Admitted::kDeclined;
  }
  // Past the hole, at the tail of the held run. on_segment would
  // condemn the hole once the run is over the reorder window.
  if (buffered > config_.reorder_window_bytes ||
      pending_.size() + 1 > config_.reorder_window_segments) {
    return Admitted::kDeclined;
  }
  Pending& piece = pending_.emplace_back();
  piece.start = start;
  piece.chunk.timestamp = timestamp;
  if (hold.stable) {
    piece.chunk.view = payload;
  } else if (hold.buffers != nullptr) {
    hold.buffers->hold(payload, hold.frame, piece.chunk);
  } else {
    HoldBuffers(0).hold(payload, hold.frame, piece.chunk);
  }
  buffered_bytes_ = buffered;
  return Admitted::kDone;
}

std::vector<StreamItem> TcpStreamReassembler::flush(util::SimTime timestamp) {
  std::vector<StreamItem> out;
  flush(timestamp, out);
  return out;
}

void TcpStreamReassembler::flush(util::SimTime timestamp,
                                 std::vector<StreamItem>& out) {
  if (synchronized_) {
    drain(timestamp, /*condemn_all=*/true, out);
  }
  finished_ = true;
}

void TcpStreamReassembler::drain(util::SimTime timestamp, bool condemn_all,
                                 std::vector<StreamItem>& out) {
  // Pieces delivered so far; pending_ loses them in one erase at the end.
  std::size_t taken = 0;
  for (;;) {
    const std::size_t held = pending_.size() - taken;
    // Prune dead ranges the stream has already moved past.
    while (!dead_.empty() && dead_.begin()->second.end <= expected_) {
      dead_.erase(dead_.begin());
    }
    // A dead range at the head surfaces as an explicit gap — but only
    // once waiting stops being useful: a retransmit may still resurrect
    // the bytes, so hold the range while nothing is deliverable behind
    // it. Condemn when flushing, when delivery can resume immediately
    // past the range, or when buffer pressure says the bytes are gone.
    if (!dead_.empty() && dead_.begin()->first <= expected_) {
      const std::uint64_t end = dead_.begin()->second.end;
      const bool resumable = held > 0 && pending_[taken].start <= end;
      if (!condemn_all && !resumable && !over_reorder_window(held)) break;
      StreamGap gap;
      gap.timestamp = timestamp;
      gap.stream_offset = expected_ - base_;
      gap.length = end - expected_;
      gap.cause = dead_.begin()->second.cause;
      dead_.erase(dead_.begin());
      expected_ = end;
      ++gaps_emitted_;
      gap_bytes_ += gap.length;
      out.push_back(StreamItem::make_gap(gap));
      continue;
    }

    if (held > 0 && pending_[taken].start <= expected_) {
      Pending& piece = pending_[taken++];
      StreamChunk& chunk = piece.chunk;
      buffered_bytes_ -= chunk.view.size();

      // start <= expected_ is guaranteed; overlap was trimmed on entry,
      // but a defensive re-trim is cheap. The owner is handed over
      // whole either way: the view says which bytes are the chunk's.
      if (piece.start < expected_) {
        const std::uint64_t overlap = expected_ - piece.start;
        if (overlap >= chunk.view.size()) continue;
        chunk.view = chunk.view.subspan(static_cast<std::size_t>(overlap));
      }

      // The stamp stays the first arrival's: buffering behind a
      // reordered segment must not shift the chunk's capture time
      // (timing features depend on when the bytes were seen, not when
      // the hole filled).
      chunk.stream_offset = expected_ - base_;
      expected_ += chunk.view.size();
      delivered_ += chunk.view.size();
      out.push_back(StreamItem::make_chunk(std::move(chunk)));
      continue;
    }

    // Head-of-line hole. Condemn it if the reorder window is exceeded
    // (the hole will not fill: anything this far behind the buffered
    // frontier was lost, not reordered) or if we are flushing.
    if (!condemn_all && !(held > 0 && over_reorder_window(held))) break;

    std::uint64_t hole_end = std::numeric_limits<std::uint64_t>::max();
    if (held > 0) hole_end = pending_[taken].start;
    if (!dead_.empty()) hole_end = std::min(hole_end, dead_.begin()->first);
    if (condemn_all && fin_seen_ && fin_at_ > expected_) {
      hole_end = std::min(hole_end, fin_at_);
    }
    if (hole_end == std::numeric_limits<std::uint64_t>::max() ||
        hole_end <= expected_) {
      break;
    }
    StreamGap gap;
    gap.timestamp = timestamp;
    gap.stream_offset = expected_ - base_;
    gap.length = hole_end - expected_;
    gap.cause = StreamGap::Cause::kReorderWindow;
    expected_ = hole_end;
    ++gaps_emitted_;
    gap_bytes_ += gap.length;
    out.push_back(StreamItem::make_gap(gap));
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
}

std::size_t TcpStreamReassembler::memory_bytes() const {
  // A std::map node is the value plus a red-black header: colour and
  // three links.
  constexpr std::size_t kDeadNode =
      sizeof(std::pair<const std::uint64_t, DeadRange>) + 4 * sizeof(void*);
  std::size_t total =
      pending_.capacity() * sizeof(Pending) + dead_.size() * kDeadNode;
  for (const Pending& piece : pending_) total += piece.chunk.owner.capacity();
  return total;
}

void TcpConnectionReassembler::on_segment(
    FlowDirection direction, util::SimTime timestamp, std::uint32_t sequence,
    bool syn, bool fin, bool rst, util::BytesView payload,
    std::size_t truncated_bytes, std::vector<DirectedItem>& out,
    PayloadHold hold) {
  if (reset_) return;  // no data delivery after reset
  if (rst) {
    reset_ = true;
    // A reset tears the connection down in both directions: deliver
    // what is buffered (holes become gaps) and mark the streams
    // finished so the flow can be retired immediately instead of
    // lingering until idle eviction.
    scratch_.clear();
    client_.flush(timestamp, scratch_);
    for (StreamItem& item : scratch_) {
      out.push_back(DirectedItem{FlowDirection::kClientToServer, std::move(item)});
    }
    scratch_.clear();
    server_.flush(timestamp, scratch_);
    for (StreamItem& item : scratch_) {
      out.push_back(DirectedItem{FlowDirection::kServerToClient, std::move(item)});
    }
    scratch_.clear();
    return;
  }

  TcpStreamReassembler& target =
      direction == FlowDirection::kClientToServer ? client_ : server_;
  scratch_.clear();
  target.on_segment(timestamp, sequence, syn, fin, payload, truncated_bytes,
                    hold, scratch_);
  for (StreamItem& item : scratch_) {
    out.push_back(DirectedItem{direction, std::move(item)});
  }
  scratch_.clear();
}

std::vector<TcpConnectionReassembler::DirectedItem>
TcpConnectionReassembler::flush(util::SimTime timestamp) {
  std::vector<DirectedItem> out;
  for (StreamItem& item : client_.flush(timestamp)) {
    out.push_back(DirectedItem{FlowDirection::kClientToServer, std::move(item)});
  }
  for (StreamItem& item : server_.flush(timestamp)) {
    out.push_back(DirectedItem{FlowDirection::kServerToClient, std::move(item)});
  }
  return out;
}

}  // namespace wm::net
