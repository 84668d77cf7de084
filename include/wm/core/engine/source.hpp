// Packet sources for the streaming engine.
//
// The engine consumes packets through one interface regardless of
// where they come from: a capture file on disk (classic pcap or
// pcapng, streamed record by record — the file is never loaded whole)
// or an in-memory packet vector (simulator output, tests).
//
// The primary pull interface is read_batch(): one virtual call fills a
// reusable PacketBatch, so per-packet virtual dispatch disappears from
// the hot path and sources can hand packets over zero-copy (borrowed
// spans for in-memory vectors, mmap-backed views copied once into
// recycled slots for capture files).
//
// Failure handling: sources do not throw. Open-time failures surface
// as wm::Result from open_capture(); mid-stream corruption ends the
// stream (next()/read_batch() report end-of-stream) and is reported
// through error().
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/obs/registry.hpp"
#include "wm/util/result.hpp"
#include "wm/util/time.hpp"

namespace wm::engine {

/// A reusable batch of packets — the unit the batched source API
/// hands out. Three modes:
///  - owned: packets live in recycled slots. clear() keeps every
///    slot's heap buffer, so a steady-state refill writes into
///    already-sized storage and never mallocs;
///  - borrowed: the batch is a view over a contiguous run of packets
///    owned elsewhere (zero-copy hand-off from in-memory sources).
///    The underlying packets must stay alive and unmodified until the
///    batch is cleared or refilled;
///  - views: the batch carries PacketViews (append_view), each
///    borrowing frame bytes from a producer's backing store. This is
///    the read_views() hand-off; the PacketSource contract there makes
///    the backing bytes stable for the source's whole lifetime, so
///    view batches can feed zero-copy reassembly.
class PacketBatch {
 public:
  PacketBatch() = default;
  PacketBatch(PacketBatch&&) noexcept = default;
  PacketBatch& operator=(PacketBatch&&) noexcept = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;

  /// Empty the batch. Owned slots keep their capacity for reuse.
  void clear() noexcept {
    borrowed_ = nullptr;
    borrowed_size_ = 0;
    size_ = 0;
    views_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept {
    if (borrowed_ != nullptr) return borrowed_size_;
    if (!views_.empty()) return views_.size();
    return size_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] bool is_borrowed() const noexcept { return borrowed_ != nullptr; }
  /// True when the batch carries PacketViews (views() is the payload
  /// and begin()/end() must not be used).
  [[nodiscard]] bool has_views() const noexcept { return !views_.empty(); }

  [[nodiscard]] const net::Packet& operator[](std::size_t index) const noexcept {
    return begin()[index];
  }
  [[nodiscard]] const net::Packet* begin() const noexcept {
    return borrowed_ != nullptr ? borrowed_ : slots_.data();
  }
  [[nodiscard]] const net::Packet* end() const noexcept {
    return begin() + size();
  }

  /// The view payload (valid entries: [views(), views() + size()) when
  /// has_views()).
  [[nodiscard]] const net::PacketView* views() const noexcept {
    return views_.data();
  }

  /// Append a borrowed frame, switching the batch to view mode (owned
  /// and borrowed contents are dropped; view storage has no per-entry
  /// heap, so steady-state refills never malloc).
  void append_view(const net::PacketView& view) {
    if (borrowed_ != nullptr || size_ != 0) {
      borrowed_ = nullptr;
      borrowed_size_ = 0;
      size_ = 0;
    }
    views_.push_back(view);
  }

  /// Expose the next recycled slot for in-place filling. Appending to
  /// a borrowed or view batch first drops that payload (the batch
  /// becomes owned).
  net::Packet& append_slot() {
    if (borrowed_ != nullptr || !views_.empty()) clear();
    if (size_ == slots_.size()) slots_.emplace_back();
    return slots_[size_++];
  }

  /// Capacity-recycled copy into the next slot.
  net::Packet& append(const net::Packet& packet) {
    net::Packet& slot = append_slot();
    slot.timestamp = packet.timestamp;
    slot.original_length = packet.original_length;
    slot.data.assign(packet.data.begin(), packet.data.end());
    return slot;
  }

  /// Materialize a reader view into the next slot (one copy).
  net::Packet& append(const net::PacketView& view) {
    net::Packet& slot = append_slot();
    view.assign_to(slot);
    return slot;
  }

  /// Adopt an already-owned packet's buffer (no byte copy).
  net::Packet& append(net::Packet&& packet) {
    net::Packet& slot = append_slot();
    slot.timestamp = packet.timestamp;
    slot.original_length = packet.original_length;
    slot.data.swap(packet.data);
    return slot;
  }

  /// Mutable access to the owned slots (nullptr while borrowed). Lets
  /// a consumer adopt slot buffers via append(Packet&&) swaps, so
  /// capacity recycles in both directions; the batch must be cleared
  /// or refilled afterwards.
  [[nodiscard]] net::Packet* mutable_slots() noexcept {
    return borrowed_ != nullptr ? nullptr : slots_.data();
  }

  /// Switch to borrowed mode over `count` packets starting at
  /// `packets`. Any owned contents are dropped (capacity retained).
  void borrow(const net::Packet* packets, std::size_t count) noexcept {
    size_ = 0;
    views_.clear();
    borrowed_ = packets;
    borrowed_size_ = count;
  }

 private:
  std::vector<net::Packet> slots_;  // owned storage; active prefix is size_
  std::size_t size_ = 0;
  const net::Packet* borrowed_ = nullptr;
  std::size_t borrowed_size_ = 0;
  // View-mode storage; non-empty means view mode is active.
  std::vector<net::PacketView> views_;
};

/// Pull-based packet stream, yielding packets in capture order until
/// the source is exhausted (or fails — see error()).
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// The next packet, or nullopt at end-of-stream. Convenience for
  /// simple consumers; batching consumers use read_batch().
  virtual std::optional<net::Packet> next() = 0;

  /// Set when the stream terminated abnormally (e.g. a corrupt capture
  /// record); nullopt after a clean end.
  [[nodiscard]] virtual const std::optional<Error>& error() const {
    return no_error_;
  }

  /// Primary pull interface: refill `out` (cleared first) with up to
  /// `max` packets. Returns the number delivered; 0 means
  /// end-of-stream. One virtual call per batch; sources override this
  /// with zero-copy or slot-recycling fast paths, and the default
  /// adapts next() for external implementations.
  [[nodiscard]] virtual std::size_t read_batch(PacketBatch& out, std::size_t max);

  /// Fully zero-copy pull: refill `out` (cleared first) with up to
  /// `max` PacketViews. Returns 0 either at end-of-stream or when the
  /// source cannot serve stable views — callers probe once and fall
  /// back to read_batch() on a first-call 0, then stick to one path.
  ///
  /// Lifetime contract (stronger than PacketView's usual "until the
  /// next read"): every view handed out here stays valid and unchanged
  /// for the *remaining lifetime of the source*. Only sources whose
  /// backing store is naturally immortal implement it — an in-memory
  /// vector, an mmap'd capture file — which is exactly what lets the
  /// engine reassemble TCP streams without ever copying a frame.
  [[nodiscard]] virtual std::size_t read_views(PacketBatch& out, std::size_t max) {
    (void)out;
    (void)max;
    return 0;
  }

 private:
  std::optional<Error> no_error_;
};

/// In-memory source over a packet vector, either borrowed (zero-copy
/// for the caller who keeps the vector alive) or owned.
class VectorSource final : public PacketSource {
 public:
  /// Borrow: `packets` must outlive the source.
  explicit VectorSource(const std::vector<net::Packet>* packets)
      : packets_(packets) {}
  /// Own.
  explicit VectorSource(std::vector<net::Packet> packets)
      : owned_(std::move(packets)), packets_(&owned_) {}

  /// Moves owned packets out; copies borrowed ones (the caller keeps
  /// the vector).
  std::optional<net::Packet> next() override;

  /// Zero-copy: hands out a borrowed span over the vector.
  [[nodiscard]] std::size_t read_batch(PacketBatch& out, std::size_t max) override;

  /// Stable views over the vector's packets (the vector outlives the
  /// source by the borrow constructor's contract, or is owned by it).
  [[nodiscard]] std::size_t read_views(PacketBatch& out, std::size_t max) override;

 private:
  std::vector<net::Packet> owned_;
  const std::vector<net::Packet>* packets_;
  std::size_t index_ = 0;
};

/// Streaming capture-file source (classic pcap or pcapng; the format is
/// sniffed from the file magic). Construct via open_capture().
class CaptureFileSource final : public PacketSource {
 public:
  ~CaptureFileSource() override;
  CaptureFileSource(CaptureFileSource&&) noexcept;
  CaptureFileSource& operator=(CaptureFileSource&&) noexcept;

  std::optional<net::Packet> next() override;
  /// Drains reader views into recycled slots: zero per-packet
  /// allocation in the steady state, metrics amortized per batch. On
  /// the mmap path classic pcap reads in runs from the reader's record
  /// index (PcapReader::next_views).
  [[nodiscard]] std::size_t read_batch(PacketBatch& out, std::size_t max) override;
  /// mmap fast path only: views point straight into the mapped file,
  /// which stays mapped for the source's lifetime; the same runs as
  /// read_batch(), borrowed instead of copied. The buffered istream
  /// path recycles its staging buffer per record, so it reports 0 here
  /// and callers fall back to read_batch().
  [[nodiscard]] std::size_t read_views(PacketBatch& out, std::size_t max) override;
  [[nodiscard]] const std::optional<Error>& error() const override {
    return error_;
  }
  /// True when the underlying reader runs on the mmap fast path.
  [[nodiscard]] bool memory_mapped() const;

 private:
  friend Result<std::unique_ptr<PacketSource>> open_capture(
      const std::filesystem::path& path, const struct CaptureOptions& options);
  struct Impl;
  explicit CaptureFileSource(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
  std::optional<Error> error_;
};

/// Knobs for open_capture().
struct CaptureOptions {
  /// When set, the source reports "source.packets", "source.bytes",
  /// "source.format.{pcap,pcapng}" and "source.errors" as it streams,
  /// plus "source.mmap" when the fast path engaged.
  obs::Registry* metrics = nullptr;
  /// Allow the memory-mapped fast path (default). Off forces the
  /// buffered istream path — the differential tests' oracle and the
  /// bench baseline. Both paths yield byte-identical packets.
  bool allow_mmap = true;
};

/// Open a capture file as a streaming source. Errors are typed:
/// kNotFound (unopenable path), kUnsupportedFormat (unknown magic),
/// kMalformedCapture (recognized format, corrupt header).
[[nodiscard]] Result<std::unique_ptr<PacketSource>> open_capture(
    const std::filesystem::path& path, const CaptureOptions& options);
[[nodiscard]] Result<std::unique_ptr<PacketSource>> open_capture(
    const std::filesystem::path& path, obs::Registry* metrics = nullptr);

}  // namespace wm::engine
