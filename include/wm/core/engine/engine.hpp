// wm::engine — multi-threaded streaming analysis engine.
//
// The batch AttackPipeline buffers a whole capture, then analyzes it.
// A monitoring middlebox cannot: packets arrive forever, from many
// viewers at once. The engine ingests packets incrementally and shards
// flows across N worker threads by flow-key hash. Each worker owns its
// own flow table, TCP reassemblers, and TLS record-stream extractor,
// so the per-packet hot path touches no shared state and takes no
// locks; workers only converge on a small mutex-protected collector
// when a *record* (orders of magnitude rarer than a packet) completes.
// That collector's locking discipline is not prose: its state carries
// WM_GUARDED_BY capability annotations (wm/util/thread_annotations.hpp,
// DESIGN.md §3.8), checked under -DWM_THREAD_SAFETY=ON.
//
//     PacketSource --read_batch--> dispatcher --(flow-hash)--> shards
//       each shard: a pair of lock-free SPSC rings (inbound batches in,
//         drained batches recycled back) -> reassemble -> TLS records
//         -> classify -> collector (per-viewer observation + gap logs)
//     finish(): drain, join, per-viewer + combined choice decode
//
// The dispatcher→shard handoff is a bounded SPSC ring of PacketBatch
// pointers into a per-shard arena; drained batches flow back through a
// freelist ring with their slot capacity intact, so the steady-state
// ingest path performs no heap allocation and takes no locks (a
// condvar pair wakes parked threads only at the full/empty edges).
// Both sides use the batched ring ops: the worker drains up to eight
// queued batches per wake (pop + try_pop_n) and returns them with one
// push_n, so index publishes and wake fences amortize across the run.
//
// Determinism: the final EngineResult is byte-identical to the batch
// pipeline's output on the same packets for ANY shard count, because
// choice decoding runs on the collector's time-ordered observation log,
// not on racy arrival order. The engine produces no live events: answers
// as they happen come from monitor::ContinuousMonitor / MonitorFleet.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "wm/core/classifier.hpp"
#include "wm/core/decoder.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/engine/stats.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/util/time.hpp"

namespace wm::engine {

struct EngineConfig {
  /// Worker threads. 0 = run inline on the calling thread (no threads,
  /// no queues) — the mode the batch-compatibility wrappers use.
  std::size_t shards = 0;
  /// Packets per dispatch batch: amortizes the ring handoff and the
  /// per-batch virtual source read.
  std::size_t dispatch_batch = 256;
  /// Maximum batches buffered per shard before consume() blocks
  /// (backpressure; the engine never drops packets). Rounded up to a
  /// power of two by the underlying ring. Deliberately shallow: the
  /// in-flight window (queue_capacity x dispatch_batch x packet size,
  /// ~6 MB at the defaults) must stay cache-resident or the worker
  /// re-fetches every handed-off byte from DRAM — deepening the queue
  /// past that measurably *lowers* throughput before it absorbs any
  /// extra burst.
  std::size_t queue_capacity = 16;
  /// Evict per-flow analysis state idle longer than this. Zero = never
  /// (batch semantics). Classified observations survive eviction; only
  /// reassembly/parser state is freed.
  util::Duration flow_idle_timeout{};
  /// Per-flow TCP reassembly tuning (reorder window before a hole is
  /// declared dead, buffer budget) applied by every shard's extractor.
  net::TcpStreamReassembler::Config reassembly;
  /// Decode packets slab-wise (column passes over whole batches) on the
  /// hot path. Off = the per-packet scalar parser chain, kept as the
  /// differential oracle; results are byte-identical either way.
  bool slab_decode = true;
  /// Observability (wm::obs): when set, every stage registers live
  /// counters/timers here — per-shard scopes ("engine.shard[2].flows.
  /// opened"), shard-count-invariant rollups ("engine.flows.opened"),
  /// collector totals and stage timings. Null = zero overhead. The
  /// registry must outlive the engine; snapshots may be taken from any
  /// thread while the engine runs.
  obs::Registry* metrics = nullptr;
};

/// Final output of an engine run.
struct EngineResult {
  /// All observations decoded as one stream — equals the batch
  /// pipeline's whole-capture infer() on the same packets.
  core::InferredSession combined;
  /// Per-viewer decode, keyed by client address — equals the batch
  /// pipeline's per-client inference (before its "has questions"
  /// filter, which is the caller's policy).
  std::map<std::string, core::InferredSession> per_client;
  EngineStats stats;
};

class ShardedFlowEngine {
 public:
  /// The classifier must already be fitted and must outlive the engine;
  /// classify() is called concurrently from worker threads.
  explicit ShardedFlowEngine(const core::RecordClassifier& classifier,
                             EngineConfig config = {});
  ~ShardedFlowEngine();

  ShardedFlowEngine(const ShardedFlowEngine&) = delete;
  ShardedFlowEngine& operator=(const ShardedFlowEngine&) = delete;

  /// Pull `source` to exhaustion. Probes the zero-copy read_views()
  /// path once; if the source serves stable views (mmap capture,
  /// in-memory vector) every frame flows through untouched — dispatch
  /// hashes the mapped bytes, workers reassemble borrowed spans — and
  /// the source must stay alive until finish() returns. Otherwise
  /// falls back to the read_batch() slot-recycling path. Returns
  /// packets fed.
  std::size_t consume(PacketSource& source);

  /// Flush queues, join workers, and produce the final result. The
  /// engine cannot be fed afterwards.
  EngineResult finish();

  /// Packets offered so far (safe to read concurrently with consume()).
  [[nodiscard]] std::uint64_t packets_in() const;

  /// Per-flow entries (collector key, cached SNI) the shards keep beside
  /// their extractors: one per flow the extractors still hold. Read it
  /// only while no worker runs (an inline engine, or after finish()).
  [[nodiscard]] std::size_t flow_entries() const;

 private:
  struct Shard;
  class Collector;

  /// Offer a batch. Owned/borrowed packets are copied into recycled
  /// shard slots; a view batch (PacketBatch::has_views()) is demuxed as
  /// views — no frame bytes move — and must honour the read_views()
  /// lifetime contract (backing bytes stable until after finish()).
  /// May block on backpressure.
  void ingest(const PacketBatch& batch);
  /// Offer an owned batch for consumption: packet buffers are swapped
  /// into the shard slots instead of copied (borrowed batches fall
  /// back to the copying overload). The batch is left cleared with its
  /// slot capacity intact, ready for the next read_batch() refill.
  void ingest(PacketBatch&& batch);

  std::size_t shard_for(const net::Packet& packet) const;
  std::size_t shard_for(util::BytesView frame) const;
  void process(Shard& shard, const net::Packet& packet);
  /// Analyze `count` contiguous packets on `shard`: the slab decoder
  /// when EngineConfig::slab_decode is on, per-packet process() when
  /// it's off.
  void process_batch(Shard& shard, const net::Packet* packets,
                     std::size_t count);
  /// View form: slab-decodes straight out of the source's backing
  /// store and reassembles borrowed payload spans (stable_payload).
  /// The scalar oracle materializes each view into a recycled scratch
  /// packet — byte-identical results either way.
  void process_batch(Shard& shard, const net::PacketView* views,
                     std::size_t count);
  /// Mode dispatch for a queued batch (owned/borrowed vs views).
  void process_batch(Shard& shard, const PacketBatch& batch);
  /// Demux a view batch across shards without touching frame bytes.
  void ingest_views(const PacketBatch& batch);
  /// The shard's fill batch, flushed first if its mode (owned vs
  /// views) differs from what the caller is about to append — a batch
  /// never mixes modes, so neither payload can silently drop the other.
  PacketBatch& pending_for(std::size_t shard_index, bool views);
  /// Route one extractor call's deliveries in order: records feed the
  /// collector's observation log, client-side gaps feed its gap
  /// timeline, and a flow the extractor retired drops its entry in
  /// Shard::clients at the point of its retirement.
  void handle_events(Shard& shard, const std::vector<tls::StreamEvent>& events);
  /// One delivery; `retired` holds the call's retirements not applied
  /// yet, the first of this flow's among them being its own connection's.
  void handle_event(
      Shard& shard, const tls::StreamEvent& stream_event,
      std::span<const tls::RecordStreamExtractor::RetiredFlow> retired);
  void dispatch(std::size_t shard_index);
  void flush_pending();
  void shutdown_workers();

  const core::RecordClassifier& classifier_;
  EngineConfig config_;
  std::unique_ptr<Collector> collector_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-shard batch being filled by the feeding thread; points into
  /// the owning shard's arena (acquired from its freelist ring).
  std::vector<PacketBatch*> pending_;
  std::atomic<std::uint64_t> packets_in_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::uint64_t batches_dispatched_ = 0;
  std::uint64_t backpressure_waits_ = 0;
  bool finished_ = false;
  // Observability handles (null when EngineConfig::metrics is null).
  obs::Counter* packets_in_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Counter* backpressure_counter_ = nullptr;
};

/// One-call convenience: run `source` through an engine.
EngineResult analyze(const core::RecordClassifier& classifier,
                     PacketSource& source, EngineConfig config = {});

}  // namespace wm::engine
