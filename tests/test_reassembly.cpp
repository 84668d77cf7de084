#include "wm/net/reassembly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "reassembly_helpers.hpp"
#include "wm/util/rng.hpp"

namespace wm::net {
namespace {

using util::Bytes;
using util::SimTime;

Bytes bytes_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string drain_to_string(const std::vector<StreamItem>& items) {
  std::string out;
  for (const StreamItem& item : items) {
    if (item.kind != StreamItem::Kind::kChunk) continue;
    const util::BytesView bytes = item.chunk.bytes();
    out.append(bytes.begin(), bytes.end());
  }
  return out;
}

std::vector<StreamChunk> chunks_of(const std::vector<StreamItem>& items) {
  std::vector<StreamChunk> out;
  for (const StreamItem& item : items) {
    if (item.kind == StreamItem::Kind::kChunk) out.push_back(item.chunk);
  }
  return out;
}

std::vector<StreamGap> gaps_of(const std::vector<StreamItem>& items) {
  std::vector<StreamGap> out;
  for (const StreamItem& item : items) {
    if (item.kind == StreamItem::Kind::kGap) out.push_back(item.gap);
  }
  return out;
}

TEST(Reassembly, InOrderDelivery) {
  TcpStreamReassembler r;
  auto first = test::on_segment(r, SimTime::from_seconds(1), 1000, true, false,
                                bytes_of("hello "));
  auto second = test::on_segment(r, SimTime::from_seconds(2), 1007, false, false,
                                 bytes_of("world"));
  EXPECT_EQ(drain_to_string(first), "hello ");
  EXPECT_EQ(drain_to_string(second), "world");
  EXPECT_EQ(r.delivered_bytes(), 11u);
  EXPECT_TRUE(r.synchronized());
}

TEST(Reassembly, SynConsumesSequenceSlot) {
  TcpStreamReassembler r;
  // Pure SYN (no payload), then data at ISN+1.
  auto none = test::on_segment(r, SimTime::from_seconds(0), 5000, true, false, {});
  EXPECT_TRUE(none.empty());
  auto data =
      test::on_segment(r, SimTime::from_seconds(1), 5001, false, false,
                       bytes_of("abc"));
  EXPECT_EQ(drain_to_string(data), "abc");
}

TEST(Reassembly, OutOfOrderBufferedThenDelivered) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  auto late = test::on_segment(r, SimTime::from_seconds(1), 104, false, false,
                               bytes_of("DEF"));
  EXPECT_TRUE(late.empty());  // gap at 101..103
  auto fill =
      test::on_segment(r, SimTime::from_seconds(2), 101, false, false, bytes_of("ABC"));
  EXPECT_EQ(drain_to_string(fill), "ABCDEF");
  EXPECT_EQ(r.delivered_bytes(), 6u);
}

TEST(Reassembly, RetransmissionIgnored) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 101, false, false,
                         bytes_of("xyz"));
  auto dup =
      test::on_segment(r, SimTime::from_seconds(2), 101, false, false, bytes_of("xyz"));
  EXPECT_TRUE(dup.empty());
  EXPECT_EQ(r.delivered_bytes(), 3u);
}

TEST(Reassembly, PartialOverlapTrimmed) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 101, false, false,
                         bytes_of("abcd"));
  // Retransmit covering old data plus two new bytes.
  auto more =
      test::on_segment(r, SimTime::from_seconds(2), 103, false, false,
                       bytes_of("cdEF"));
  EXPECT_EQ(drain_to_string(more), "EF");
  EXPECT_EQ(r.delivered_bytes(), 6u);
}

TEST(Reassembly, OverlapAmongBufferedSegmentsFirstWins) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  // Buffer 105.."WXYZ" out of order.
  (void)test::on_segment(r, SimTime::from_seconds(1), 105, false, false,
                         bytes_of("WXYZ"));
  // Overlapping later arrival 103.."abWX??" — only 103..104 and beyond-109 are new.
  (void)test::on_segment(r, SimTime::from_seconds(2), 103, false, false,
                         bytes_of("ab????"));
  auto fill =
      test::on_segment(r, SimTime::from_seconds(3), 101, false, false, bytes_of("12"));
  // First-arrival content survives in the overlap region.
  EXPECT_EQ(drain_to_string(fill), "12abWXYZ");
}

TEST(Reassembly, SequenceWraparound) {
  TcpStreamReassembler r;
  const std::uint32_t near_wrap = 0xfffffffc;
  (void)test::on_segment(r, SimTime::from_seconds(0), near_wrap, true, false, {});
  auto first = test::on_segment(r, SimTime::from_seconds(1), near_wrap + 1, false,
                                false, bytes_of("abc"));  // fills fffffffd..ffffffff
  EXPECT_EQ(drain_to_string(first), "abc");
  // Next segment wraps to sequence 0.
  auto wrapped =
      test::on_segment(r, SimTime::from_seconds(2), 0, false, false, bytes_of("def"));
  EXPECT_EQ(drain_to_string(wrapped), "def");
  EXPECT_EQ(r.delivered_bytes(), 6u);
}

TEST(Reassembly, FinMarksFinished) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 10, true, false, {});
  EXPECT_FALSE(r.finished());
  (void)test::on_segment(r, SimTime::from_seconds(1), 11, false, true, bytes_of("end"));
  EXPECT_TRUE(r.finished());
}

TEST(Reassembly, FinOutOfOrderWaitsForData) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 10, true, false, {});
  // FIN arrives with the last bytes, but earlier bytes are missing.
  (void)test::on_segment(r, SimTime::from_seconds(1), 14, false, true, bytes_of("zz"));
  EXPECT_FALSE(r.finished());
  (void)test::on_segment(r, SimTime::from_seconds(2), 11, false, false,
                         bytes_of("aaa"));
  EXPECT_TRUE(r.finished());
  EXPECT_EQ(r.delivered_bytes(), 5u);
}

TEST(Reassembly, BufferBudgetDropsRunawayData) {
  TcpStreamReassembler::Config config;
  config.max_buffered_bytes = 8;
  TcpStreamReassembler r(config);
  (void)test::on_segment(r, SimTime::from_seconds(0), 0, true, false, {});
  // Far-ahead segments exceeding the budget get dropped.
  (void)test::on_segment(r, SimTime::from_seconds(1), 100, false, false,
                         bytes_of("12345678"));
  EXPECT_EQ(r.dropped_bytes(), 0u);
  (void)test::on_segment(r, SimTime::from_seconds(2), 200, false, false,
                         bytes_of("abc"));
  EXPECT_EQ(r.dropped_bytes(), 3u);
}

TEST(Reassembly, StreamOffsetsAreContiguous) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 500, true, false, {});
  auto a = test::on_segment(r, SimTime::from_seconds(1), 501, false, false,
                            bytes_of("aa"));
  auto b = test::on_segment(r, SimTime::from_seconds(2), 503, false, false,
                            bytes_of("bbb"));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].chunk.stream_offset, 0u);
  EXPECT_EQ(b[0].chunk.stream_offset, 2u);
}

TEST(Reassembly, MidStreamCaptureWithoutSyn) {
  TcpStreamReassembler r;
  auto data = test::on_segment(r, SimTime::from_seconds(5), 777777, false, false,
                               bytes_of("midstream"));
  EXPECT_EQ(drain_to_string(data), "midstream");
  EXPECT_TRUE(r.synchronized());
}

TEST(Reassembly, SegmentSpanningMultipleBufferedPiecesKeepsTail) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  // Buffer two islands: 105-106 and 109-110.
  (void)test::on_segment(r, SimTime::from_seconds(1), 105, false, false,
                         bytes_of("CC"));
  (void)test::on_segment(r, SimTime::from_seconds(2), 109, false, false,
                         bytes_of("EE"));
  // One big segment 103..112 spanning both islands; the pieces between
  // and after the islands must survive.
  (void)test::on_segment(r, SimTime::from_seconds(3), 103, false, false,
                         bytes_of("bb**dd**ff"));
  auto fill =
      test::on_segment(r, SimTime::from_seconds(4), 101, false, false, bytes_of("aa"));
  EXPECT_EQ(drain_to_string(fill), "aabbCCddEEff");
}

TEST(Reassembly, ManySegmentsRandomOrder) {
  // Property-style: split a byte string into segments, deliver in a
  // scrambled order, expect exact reconstruction.
  std::string payload;
  for (int i = 0; i < 997; ++i) payload.push_back(static_cast<char>('A' + i % 26));

  struct Seg {
    std::uint32_t seq;
    std::string data;
  };
  std::vector<Seg> segments;
  const std::uint32_t isn = 42;
  for (std::size_t offset = 0; offset < payload.size(); offset += 83) {
    const std::size_t len = std::min<std::size_t>(83, payload.size() - offset);
    segments.push_back(
        Seg{static_cast<std::uint32_t>(isn + 1 + offset), payload.substr(offset, len)});
  }
  // Deterministic scramble.
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::swap(segments[i], segments[(i * 7 + 3) % segments.size()]);
  }

  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), isn, true, false, {});
  std::string reconstructed;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto chunks =
        test::on_segment(r, SimTime::from_seconds(1.0 + 0.001 * static_cast<double>(i)),
                         segments[i].seq, false, false, bytes_of(segments[i].data));
    reconstructed += drain_to_string(chunks);
  }
  EXPECT_EQ(reconstructed, payload);
}

/// One delivered item, flattened for comparison across hold modes.
using Delivered = std::tuple<StreamItem::Kind, std::uint64_t, SimTime,
                             std::string, std::uint64_t, StreamGap::Cause>;

/// Records one delivered chunk and hands an owned buffer back to
/// `buffers`, as the record-stream extractor does once its parser is
/// done with it.
void collect_chunk(StreamChunk& chunk, HoldBuffers* buffers,
                   std::vector<Delivered>& out) {
  const util::BytesView bytes = chunk.bytes();
  out.emplace_back(StreamItem::Kind::kChunk, chunk.stream_offset,
                   chunk.timestamp, std::string(bytes.begin(), bytes.end()), 0,
                   StreamGap::Cause::kReorderWindow);
  if (buffers != nullptr && !chunk.owner.empty()) {
    buffers->recycle(std::move(chunk.owner));
  }
}

/// Records `items`, recycling owned chunk buffers (see collect_chunk).
void collect(std::vector<StreamItem>& items, HoldBuffers* buffers,
             std::vector<Delivered>& out) {
  for (StreamItem& item : items) {
    if (item.kind == StreamItem::Kind::kGap) {
      out.emplace_back(item.kind, item.gap.stream_offset, item.gap.timestamp,
                       std::string(), item.gap.length, item.gap.cause);
      continue;
    }
    collect_chunk(item.chunk, buffers, out);
  }
  items.clear();
}

TEST(Reassembly, BorrowedPooledAndLentHoldsDeliverIdentically) {
  // Random-order segments, each carried inside a frame (header bytes,
  // payload, trailer), with duplicates, overlaps spanning several
  // buffered pieces, and lost segments a small reorder window condemns.
  // Three reassemblers see the same segments: one borrows the frames
  // (kept alive throughout), one copies into pooled spares, one may
  // take each frame whole. The frames the latter two saw are scribbled
  // over after each call, as a pump reusing the buffer would.
  std::uint64_t lends = 0;
  std::size_t split_lends = 0;  // lent segments whose later pieces copied
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const std::size_t stream_size = 4000 + rng.next_below(16000);
    std::string stream(stream_size, '\0');
    for (char& byte : stream) byte = static_cast<char>('a' + rng.next_below(26));

    struct Segment {
      std::size_t offset = 0;
      std::size_t length = 0;
      std::size_t header = 0;
      std::size_t trailer = 0;
    };
    std::vector<Segment> segments;
    const auto add = [&](std::size_t offset, std::size_t length) {
      segments.push_back(
          {offset, length, 14 + rng.next_below(60), rng.next_below(8)});
    };
    for (std::size_t offset = 0; offset < stream_size;) {
      const std::size_t length =
          std::min<std::size_t>(1 + rng.next_below(1460), stream_size - offset);
      if (!rng.bernoulli(0.03)) add(offset, length);  // else lost
      offset += length;
    }
    const std::size_t extra = segments.size() / 3;
    for (std::size_t i = 0; i < extra; ++i) {
      const std::size_t offset = rng.next_below(stream_size);
      add(offset, std::min<std::size_t>(1 + rng.next_below(3000),
                                        stream_size - offset));
    }
    // Local scramble: each segment moves a few places at most.
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      std::swap(segments[i],
                segments[i + rng.next_below(std::min<std::size_t>(
                                 6, segments.size() - i))]);
    }
    const auto frame_of = [&](const Segment& segment, Bytes& frame) {
      frame.assign(segment.header, 0x55);
      const auto first = stream.begin() + static_cast<std::ptrdiff_t>(segment.offset);
      frame.insert(frame.end(), first,
                   first + static_cast<std::ptrdiff_t>(segment.length));
      frame.resize(frame.size() + segment.trailer, 0x66);
      return util::BytesView(frame).subspan(segment.header, segment.length);
    };

    TcpStreamReassembler::Config config;
    config.reorder_window_segments = 8;
    TcpStreamReassembler borrowed(config);
    TcpStreamReassembler pooled(config);
    TcpStreamReassembler lent(config);
    HoldBuffers pool_spares(64);
    HoldBuffers lend_spares(64);
    std::vector<Delivered> borrowed_out;
    std::vector<Delivered> pooled_out;
    std::vector<Delivered> lent_out;
    std::vector<StreamItem> items;
    std::vector<Bytes> stable_frames(segments.size());
    Bytes pooled_frame;
    Bytes lend_frame;
    constexpr std::uint32_t kIsn = 0xfffff000u;  // wraps mid-stream

    for (TcpStreamReassembler* r : {&borrowed, &pooled, &lent}) {
      r->on_segment(SimTime::from_seconds(0), kIsn, true, false, {}, 0,
                    PayloadHold{}, items);
    }
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const std::string context =
          "seed " + std::to_string(seed) + " segment " + std::to_string(i);
      const SimTime at = SimTime::from_seconds(1.0 + 0.001 * static_cast<double>(i));
      const auto sequence = static_cast<std::uint32_t>(kIsn + 1 + segments[i].offset);

      borrowed.on_segment(at, sequence, false, false,
                          frame_of(segments[i], stable_frames[i]), 0,
                          PayloadHold{true, nullptr, nullptr}, items);
      collect(items, nullptr, borrowed_out);

      pooled.on_segment(at, sequence, false, false,
                        frame_of(segments[i], pooled_frame), 0,
                        PayloadHold{false, &pool_spares, nullptr}, items);
      collect(items, &pool_spares, pooled_out);
      std::fill(pooled_frame.begin(), pooled_frame.end(), 0xee);

      const util::BytesView payload = frame_of(segments[i], lend_frame);
      const std::size_t frame_size = lend_frame.size();
      const std::uint64_t lent_before = lend_spares.lent();
      const std::uint64_t copied_before = lend_spares.copied();
      lent.on_segment(at, sequence, false, false, payload, 0,
                      PayloadHold{false, &lend_spares, &lend_frame}, items);
      const std::uint64_t segment_lends = lend_spares.lent() - lent_before;
      ASSERT_LE(segment_lends, 1u) << context;
      if (segment_lends == 1) {
        EXPECT_GE(lend_frame.capacity(), frame_size) << context;
        if (lend_spares.copied() > copied_before) ++split_lends;
      }
      collect(items, &lend_spares, lent_out);
      lend_frame.assign(lend_frame.capacity(), 0xee);  // the pump's next read
    }
    const SimTime end = SimTime::from_seconds(99);
    borrowed.flush(end, items);
    collect(items, nullptr, borrowed_out);
    pooled.flush(end, items);
    collect(items, &pool_spares, pooled_out);
    lent.flush(end, items);
    collect(items, &lend_spares, lent_out);

    const std::string context = "seed " + std::to_string(seed);
    ASSERT_FALSE(borrowed_out.empty()) << context;
    EXPECT_EQ(pooled_out, borrowed_out) << context;
    EXPECT_EQ(lent_out, borrowed_out) << context;
    EXPECT_EQ(pool_spares.lent(), 0u) << context;
    EXPECT_GT(pool_spares.copied(), 0u) << context;
    lends += lend_spares.lent();
  }
  EXPECT_GT(lends, 0u);
  EXPECT_GT(split_lends, 0u);
}

// --- The shortcut beside on_segment ----------------------------------

/// One segment of a schedule: stream bytes [offset, offset + length)
/// past the SYN, of which the capture kept all but the last
/// `truncated`. A SYN carries no payload; length 0 is a pure ACK.
struct Scheduled {
  std::size_t offset = 0;
  std::size_t length = 0;
  bool syn = false;
  bool fin = false;
  std::size_t truncated = 0;
};

struct Schedule {
  std::string name;
  TcpStreamReassembler::Config config;
  std::string stream;
  std::vector<Scheduled> segments;
};

enum class HoldMode { kStable, kLent, kCopied };

/// What one reassembler delivered, and its counters after every
/// segment and after the final flush.
struct ScheduleRun {
  std::vector<Delivered> delivered;
  std::vector<std::vector<std::uint64_t>> counters;
  std::vector<bool> taken;  // per segment: the shortcut took it
  std::size_t fills = 0;    // segments the shortcut delivered
  std::size_t waits = 0;    // segments the shortcut held
  std::uint64_t holds = 0;  // owned holds: lent plus copied
};

/// Feeds `schedule` to one reassembler in `mode`. With `use_shortcut`,
/// plain segments try TcpStreamReassembler::shortcut first and fall
/// back to on_segment when it declines, as the record-stream extractor
/// does; without, every segment goes to on_segment. Frames other than
/// stable ones are scribbled over after each call, as a pump reusing
/// its buffer would.
ScheduleRun run_schedule(const Schedule& schedule, HoldMode mode,
                         bool use_shortcut) {
  constexpr std::uint32_t kIsn = 0xfffff800u;  // wraps mid-stream
  constexpr std::size_t kHeader = 40;
  TcpStreamReassembler r(schedule.config);
  HoldBuffers spares(64);
  HoldBuffers* const recycle = mode == HoldMode::kStable ? nullptr : &spares;
  ScheduleRun run;
  std::vector<StreamItem> items;
  std::vector<Bytes> stable_frames(schedule.segments.size());
  Bytes reused_frame;
  const auto counters = [&] {
    run.counters.push_back({r.delivered_bytes(), r.dropped_bytes(),
                            r.gaps_emitted(), r.gap_bytes(), r.buffered_bytes(),
                            r.pending_segments(), r.finished() ? 1u : 0u});
  };
  for (std::size_t i = 0; i < schedule.segments.size(); ++i) {
    const Scheduled& segment = schedule.segments[i];
    Bytes& frame = mode == HoldMode::kStable ? stable_frames[i] : reused_frame;
    const std::size_t kept = segment.length - segment.truncated;
    frame.assign(kHeader, 0x55);
    const auto first =
        schedule.stream.begin() + static_cast<std::ptrdiff_t>(segment.offset);
    frame.insert(frame.end(), first, first + static_cast<std::ptrdiff_t>(kept));
    frame.resize(frame.size() + 4, 0x66);
    const util::BytesView payload = util::BytesView(frame).subspan(kHeader, kept);
    const PayloadHold hold{mode == HoldMode::kStable, recycle,
                           mode == HoldMode::kLent ? &frame : nullptr};
    const SimTime at = SimTime::from_nanos(1'000 + static_cast<std::int64_t>(i));
    const std::uint32_t sequence =
        segment.syn ? kIsn : static_cast<std::uint32_t>(kIsn + 1 + segment.offset);
    bool taken = false;
    bool delivered = false;
    if (use_shortcut && !segment.syn && !segment.fin && segment.truncated == 0) {
      taken = r.shortcut(at, sequence, payload, hold, [&](StreamChunk& chunk) {
        collect_chunk(chunk, recycle, run.delivered);
        delivered = true;
      });
    }
    if (delivered) ++run.fills;
    if (taken && !delivered && !payload.empty()) ++run.waits;
    if (!taken) {
      r.on_segment(at, sequence, segment.syn, segment.fin, payload,
                   segment.truncated, hold, items);
      collect(items, recycle, run.delivered);
    }
    run.taken.push_back(taken);
    counters();
    if (mode != HoldMode::kStable) frame.assign(frame.capacity(), 0xee);
  }
  r.flush(SimTime::from_seconds(99), items);
  collect(items, recycle, run.delivered);
  counters();
  run.holds = spares.lent() + spares.copied();
  return run;
}

/// A jittered stream: lost segments (holes that outlive the window),
/// retransmits, overlaps, pure ACKs, snaplen truncation, and a FIN on
/// the last segment in most seeds. Windows and the buffer budget are
/// small enough for every seed to condemn holes, and a third of the
/// seeds to drop bytes over the budget.
Schedule random_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  Schedule schedule;
  schedule.name = "seed " + std::to_string(seed);
  schedule.config.reorder_window_segments = 4 + rng.next_below(12);
  schedule.config.reorder_window_bytes = 2000 + rng.next_below(6000);
  if (seed % 3 == 0) schedule.config.max_buffered_bytes = 1500 + rng.next_below(2000);
  const std::size_t size = 3000 + rng.next_below(12000);
  schedule.stream.resize(size);
  for (char& byte : schedule.stream) byte = static_cast<char>('a' + rng.next_below(26));

  std::vector<Scheduled> segments;
  for (std::size_t offset = 0; offset < size;) {
    Scheduled segment;
    segment.offset = offset;
    segment.length = std::min<std::size_t>(1 + rng.next_below(600), size - offset);
    offset += segment.length;
    if (rng.bernoulli(0.03)) continue;  // lost
    if (rng.bernoulli(0.03)) segment.truncated = 1 + rng.next_below(segment.length);
    segment.fin = offset == size && seed % 4 != 0;
    segments.push_back(segment);
    if (rng.bernoulli(0.03)) segments.push_back(Scheduled{offset, 0});  // ACK
  }
  const std::size_t extra = segments.size() / 5;
  for (std::size_t i = 0; i < extra; ++i) {
    if (rng.bernoulli(0.5)) {  // retransmit
      Scheduled copy = segments[rng.next_below(segments.size())];
      copy.fin = false;
      copy.truncated = 0;
      segments.push_back(copy);
    } else {  // overlap at any offset
      const std::size_t offset = rng.next_below(size);
      segments.push_back(Scheduled{
          offset, std::min<std::size_t>(1 + rng.next_below(1500), size - offset)});
    }
  }
  // Local scramble: each segment moves a few places at most, and the
  // extras land near where they were sent from.
  std::stable_sort(segments.begin(), segments.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.offset < b.offset;
                   });
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    std::swap(segments[i], segments[i + rng.next_below(std::min<std::size_t>(
                                            8, segments.size() - i))]);
  }
  schedule.segments.push_back(Scheduled{0, 0, /*syn=*/true});
  schedule.segments.insert(schedule.segments.end(), segments.begin(),
                           segments.end());
  return schedule;
}

/// `count` segments of `length` bytes starting at `offset`.
void add_run(Schedule& schedule, std::size_t offset, std::size_t length,
             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    schedule.segments.push_back(Scheduled{offset + i * length, length});
  }
}

/// Runs `schedule` through the shortcut and through on_segment alone in
/// every hold mode; both must deliver and count alike. The one count
/// that differs is owned holds: on_segment holds every piece it is
/// given, even one it delivers at once, so it makes one more for each
/// segment the shortcut delivered. Returns the shortcut's run in the
/// last mode; which segments it took is the same in every mode.
ScheduleRun expect_shortcut_matches(const Schedule& schedule) {
  std::vector<bool> taken;
  ScheduleRun last;
  for (const HoldMode mode : {HoldMode::kStable, HoldMode::kLent, HoldMode::kCopied}) {
    const std::string context =
        schedule.name + " mode " + std::to_string(static_cast<int>(mode));
    const ScheduleRun shortcut = run_schedule(schedule, mode, true);
    const ScheduleRun general = run_schedule(schedule, mode, false);
    EXPECT_FALSE(general.delivered.empty()) << context;
    EXPECT_EQ(shortcut.delivered, general.delivered) << context;
    for (std::size_t i = 0; i < general.counters.size(); ++i) {
      EXPECT_EQ(shortcut.counters[i], general.counters[i])
          << context << " after segment " << i;
    }
    EXPECT_EQ(shortcut.holds + (mode == HoldMode::kStable ? 0 : shortcut.fills),
              general.holds)
        << context;
    if (taken.empty()) taken = shortcut.taken;
    EXPECT_EQ(shortcut.taken, taken) << context;
    last = shortcut;
  }
  return last;
}

TEST(Reassembly, ShortcutDeliversLikeOnSegment) {
  std::size_t declined = 0;
  std::size_t fills = 0;
  std::size_t waits = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScheduleRun run = expect_shortcut_matches(random_schedule(seed));
    declined += static_cast<std::size_t>(
        std::count(run.taken.begin(), run.taken.end(), false));
    fills += run.fills;
    waits += run.waits;
  }
  // The schedules drive both of the shortcut's cases and the fallback.
  EXPECT_GT(declined, 0u);
  EXPECT_GT(fills, 0u);
  EXPECT_GT(waits, 0u);

  // The segment window: six holds behind a hole reach it exactly and
  // are taken, then the filler delivers all seven. A seventh hold
  // behind the next hole would condemn it, so on_segment gets it (and
  // the late retransmit); in-order traffic resumes past the gap.
  Schedule segment_edge;
  segment_edge.name = "segment window edge";
  segment_edge.config.reorder_window_segments = 6;
  segment_edge.stream.assign(1600, 's');
  segment_edge.segments.push_back(Scheduled{0, 0, /*syn=*/true});
  add_run(segment_edge, 100, 100, 6);
  add_run(segment_edge, 0, 100, 1);
  add_run(segment_edge, 800, 100, 7);
  add_run(segment_edge, 700, 100, 1);
  add_run(segment_edge, 1500, 100, 1);
  EXPECT_EQ(expect_shortcut_matches(segment_edge).taken,
            (std::vector<bool>{false, true, true, true, true, true, true, true,
                               true, true, true, true, true, true, false, false,
                               true}));

  // The byte window: holds one byte under it and then exactly at it
  // are taken; one byte more would condemn the hole.
  Schedule byte_edge;
  byte_edge.name = "byte window edge";
  byte_edge.config.reorder_window_bytes = 1000;
  byte_edge.stream.assign(1100, 'b');
  byte_edge.segments = {Scheduled{0, 0, true}, Scheduled{10, 500},
                        Scheduled{510, 499}, Scheduled{1009, 1},
                        Scheduled{1010, 1}, Scheduled{1011, 89}};
  EXPECT_EQ(expect_shortcut_matches(byte_edge).taken,
            (std::vector<bool>{false, true, true, true, false, true}));

  // The buffer budget: holds up to it are taken; the byte past it is
  // dropped by on_segment, and its dead range keeps the next segments
  // on the general path until delivery passes it.
  Schedule budget_edge;
  budget_edge.name = "buffer budget edge";
  budget_edge.config.max_buffered_bytes = 800;
  budget_edge.stream.assign(1000, 'c');
  budget_edge.segments = {Scheduled{0, 0, true}, Scheduled{100, 400},
                          Scheduled{500, 400}, Scheduled{900, 1},
                          Scheduled{0, 100},     Scheduled{901, 99}};
  EXPECT_EQ(expect_shortcut_matches(budget_edge).taken,
            (std::vector<bool>{false, true, true, false, false, false}));
}

// --- Loss tolerance: gaps, reorder windows, timestamps ---------------

TEST(Reassembly, ReorderedChunkKeepsFirstArrivalTimestamp) {
  // Regression: drain() used to stamp buffered pieces with the time of
  // the segment that *unblocked* them, so reordering shifted
  // StreamChunk::timestamp and every downstream record time.
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 104, false, false,
                         bytes_of("DEF"));
  const auto items =
      test::on_segment(r, SimTime::from_seconds(9), 101, false, false, bytes_of("ABC"));
  const auto chunks = chunks_of(items);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].timestamp, SimTime::from_seconds(9));  // the filler
  EXPECT_EQ(chunks[1].timestamp, SimTime::from_seconds(1));  // first arrival
}

TEST(Reassembly, HoleCondemnedAfterSegmentWindow) {
  TcpStreamReassembler::Config config;
  config.reorder_window_segments = 3;
  TcpStreamReassembler r(config);
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  // Hole at 101..103; buffer segments beyond it until the window trips.
  EXPECT_TRUE(test::on_segment(r, SimTime::from_seconds(1), 104, false, false,
                               bytes_of("aa")).empty());
  EXPECT_TRUE(test::on_segment(r, SimTime::from_seconds(2), 106, false, false,
                               bytes_of("bb")).empty());
  EXPECT_TRUE(test::on_segment(r, SimTime::from_seconds(3), 108, false, false,
                               bytes_of("cc")).empty());
  const auto items = test::on_segment(r, SimTime::from_seconds(4), 110, false, false,
                                      bytes_of("dd"));
  const auto gaps = gaps_of(items);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].stream_offset, 0u);
  EXPECT_EQ(gaps[0].length, 3u);
  EXPECT_EQ(gaps[0].cause, StreamGap::Cause::kReorderWindow);
  EXPECT_EQ(drain_to_string(items), "aabbccdd");
  EXPECT_EQ(r.gaps_emitted(), 1u);
  EXPECT_EQ(r.gap_bytes(), 3u);
}

TEST(Reassembly, HoleCondemnedAfterByteWindow) {
  TcpStreamReassembler::Config config;
  config.reorder_window_bytes = 4;
  config.reorder_window_segments = 1000;
  TcpStreamReassembler r(config);
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  EXPECT_TRUE(test::on_segment(r, SimTime::from_seconds(1), 103, false, false,
                               bytes_of("abc")).empty());
  const auto items = test::on_segment(r, SimTime::from_seconds(2), 106, false, false,
                                      bytes_of("def"));
  const auto gaps = gaps_of(items);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].length, 2u);  // bytes 101..102
  EXPECT_EQ(drain_to_string(items), "abcdef");
}

TEST(Reassembly, LateRetransmitStillFillsHoleInsideWindow) {
  // Defaults: windows far larger than this exchange — the hole must
  // NOT be condemned, and the retransmit completes the stream.
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 104, false, false,
                         bytes_of("DEF"));
  const auto items =
      test::on_segment(r, SimTime::from_seconds(2), 101, false, false, bytes_of("ABC"));
  EXPECT_EQ(drain_to_string(items), "ABCDEF");
  EXPECT_EQ(r.gaps_emitted(), 0u);
}

TEST(Reassembly, FlushCondemnsOutstandingHoles) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 104, false, false,
                         bytes_of("tail"));
  const auto items = r.flush(SimTime::from_seconds(5));
  const auto gaps = gaps_of(items);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].stream_offset, 0u);
  EXPECT_EQ(gaps[0].length, 3u);
  EXPECT_EQ(drain_to_string(items), "tail");
  EXPECT_TRUE(r.finished());
}

TEST(Reassembly, BufferCapDropSurfacesAsGap) {
  TcpStreamReassembler::Config config;
  config.max_buffered_bytes = 8;
  TcpStreamReassembler r(config);
  (void)test::on_segment(r, SimTime::from_seconds(0), 0, true, false, {});
  (void)test::on_segment(r, SimTime::from_seconds(1), 100, false, false,
                         bytes_of("12345678"));
  (void)test::on_segment(r, SimTime::from_seconds(2), 200, false, false,
                         bytes_of("abc"));
  EXPECT_EQ(r.dropped_bytes(), 3u);
  // End of stream: the dropped range must surface as an explicit gap,
  // not silently vanish.
  const auto items = r.flush(SimTime::from_seconds(3));
  bool saw_cap_gap = false;
  for (const StreamGap& gap : gaps_of(items)) {
    if (gap.cause == StreamGap::Cause::kBufferCap) {
      saw_cap_gap = true;
      EXPECT_EQ(gap.length, 3u);
    }
  }
  EXPECT_TRUE(saw_cap_gap);
}

TEST(Reassembly, TruncatedPayloadBecomesGap) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  // Segment captured short: 3 bytes retained, 5 more were on the wire.
  (void)test::on_segment(r, SimTime::from_seconds(1), 101, false, false,
                         bytes_of("abc"), /*truncated_bytes=*/5);
  const auto items =
      test::on_segment(r, SimTime::from_seconds(2), 109, false, false, bytes_of("xyz"));
  const auto gaps = gaps_of(items);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].stream_offset, 3u);
  EXPECT_EQ(gaps[0].length, 5u);
  EXPECT_EQ(gaps[0].cause, StreamGap::Cause::kTruncated);
  EXPECT_EQ(drain_to_string(items), "xyz");
}

TEST(Reassembly, LateDataResurrectsDeadRange) {
  TcpStreamReassembler r;
  (void)test::on_segment(r, SimTime::from_seconds(0), 100, true, false, {});
  // Truncation marks 104..108 dead...
  (void)test::on_segment(r, SimTime::from_seconds(1), 101, false, false,
                         bytes_of("abc"), /*truncated_bytes=*/5);
  // ...but a full retransmit of those bytes arrives before delivery
  // reaches the range: the real bytes win and no gap is emitted.
  const auto items =
      test::on_segment(r, SimTime::from_seconds(2), 104, false, false,
                       bytes_of("DEFGH"));
  EXPECT_EQ(drain_to_string(items), "DEFGH");
  EXPECT_TRUE(gaps_of(items).empty());
  EXPECT_EQ(r.gaps_emitted(), 0u);
}

TEST(Reassembly, RstFlushesBufferedDataAndFinishesStreams) {
  // Regression: RST used to return early, leaving buffered data and
  // finished() == false — the flow never tore down.
  TcpConnectionReassembler conn;

  DecodedPacket syn;
  syn.timestamp = SimTime::from_seconds(0);
  TcpHeader syn_header;
  syn_header.syn = true;
  syn_header.sequence = 100;
  syn.transport = syn_header;
  (void)test::on_packet(conn, syn, FlowDirection::kClientToServer);

  DecodedPacket data;
  data.timestamp = SimTime::from_seconds(1);
  TcpHeader data_header;
  data_header.sequence = 104;  // leaves a hole at 101..103
  data.transport = data_header;
  const Bytes payload = bytes_of("zz");
  data.transport_payload = payload;
  (void)test::on_packet(conn, data, FlowDirection::kClientToServer);

  DecodedPacket rst;
  rst.timestamp = SimTime::from_seconds(2);
  TcpHeader rst_header;
  rst_header.rst = true;
  rst_header.sequence = 200;
  rst.transport = rst_header;
  const auto items = test::on_packet(conn, rst, FlowDirection::kClientToServer);

  std::string delivered;
  std::size_t gaps = 0;
  for (const auto& directed : items) {
    if (directed.item.kind == StreamItem::Kind::kChunk) {
      const util::BytesView bytes = directed.item.chunk.bytes();
      delivered.append(bytes.begin(), bytes.end());
    } else {
      ++gaps;
    }
  }
  EXPECT_EQ(delivered, "zz");
  EXPECT_EQ(gaps, 1u);
  EXPECT_TRUE(conn.reset());
  EXPECT_TRUE(conn.client_stream().finished());
  EXPECT_TRUE(conn.server_stream().finished());

  // Post-RST traffic is ignored.
  EXPECT_TRUE(test::on_packet(conn, data, FlowDirection::kClientToServer).empty());
}

}  // namespace
}  // namespace wm::net
