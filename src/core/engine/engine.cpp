#include "wm/core/engine/engine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "wm/core/features.hpp"
#include "wm/net/flow.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/util/spsc_ring.hpp"
#include "wm/util/thread_annotations.hpp"

namespace wm::engine {

std::string EngineStats::to_string() const {
  std::ostringstream out;
  out << "shards=" << shards << " packets=" << packets_in
      << " bytes=" << bytes_in
      << " records=" << records << " client_records=" << client_records
      << " type1=" << type1_records << " type2=" << type2_records
      << " viewers=" << viewers_seen << " flows=" << flows_opened
      << " evicted=" << flows_evicted << " completed=" << flows_completed
      << " peak_flows=" << peak_active_flows
      << " gaps=" << gaps << " gap_bytes=" << gap_bytes
      << " resyncs=" << tls_resyncs << " tls_skipped=" << tls_skipped_bytes
      << " backpressure=" << backpressure_waits
      << " source_errors=" << source_errors;
  return out.str();
}

namespace {

/// The deterministic observation order both the batch pipeline and the
/// engine decode in. Record length breaks timestamp ties so the result
/// is independent of which shard delivered an observation first; the
/// after_gap flag breaks the residual tie (false first) because two
/// records equal in time and length can still decode differently when
/// one carries the gap taint.
bool observation_before(const core::ClientRecordObservation& a,
                        const core::ClientRecordObservation& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  if (a.record_length != b.record_length) return a.record_length < b.record_length;
  return !a.after_gap && b.after_gap;
}

/// Deterministic gap timeline order (gaps from different flows of one
/// viewer arrive in shard-dependent order).
bool gap_before(const core::GapSpan& a, const core::GapSpan& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.bytes < b.bytes;
}

std::string client_key(const net::FlowKey& flow) {
  return flow.client.is_v6 ? flow.client.v6.to_string()
                           : flow.client.v4.to_string();
}

}  // namespace

// --- Collector -------------------------------------------------------
//
// The only cross-shard state. Workers call on_record() once per
// *client application record* — orders of magnitude rarer than packets
// — so one mutex suffices; the packet hot path never reaches here.

class ShardedFlowEngine::Collector {
 public:
  Collector(const core::RecordClassifier& classifier, obs::Registry* metrics)
      : classifier_(classifier) {
    if (metrics != nullptr) {
      client_records_counter_ = metrics->counter("engine.collector.client_records", obs::Stability::kStable);
      type1_counter_ = metrics->counter("engine.collector.type1", obs::Stability::kStable);
      type2_counter_ = metrics->counter("engine.collector.type2", obs::Stability::kStable);
      other_counter_ = metrics->counter("engine.collector.other", obs::Stability::kStable);
      viewers_counter_ = metrics->counter("engine.collector.viewers", obs::Stability::kStable);
      gaps_counter_ = metrics->counter("engine.collector.gaps", obs::Stability::kStable);
    }
  }

  void on_record(const std::string& client,
                 const core::ClientRecordObservation& observation,
                 core::RecordClass cls) WM_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    auto& observations = clients_[client];
    if (observations.empty()) obs::inc(viewers_counter_);
    observations.push_back(observation);
    ++client_records_;
    if (cls == core::RecordClass::kType1Json) ++type1_;
    if (cls == core::RecordClass::kType2Json) ++type2_;
    // Per-class counters before the total: a snapshot that reads the
    // total first (map order: "...client_records" < "...other" <
    // "...type1") then the parts can never see parts < total.
    switch (cls) {
      case core::RecordClass::kType1Json: obs::inc(type1_counter_); break;
      case core::RecordClass::kType2Json: obs::inc(type2_counter_); break;
      case core::RecordClass::kOther: obs::inc(other_counter_); break;
    }
    obs::inc(client_records_counter_);
  }

  /// A reassembly gap on one of this viewer's client->server streams:
  /// recorded into the viewer's gap timeline so decoding can lower the
  /// confidence of inferences it touches.
  void on_gap(const std::string& client, core::GapSpan gap)
      WM_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    gaps_[client].push_back(gap);
    obs::inc(gaps_counter_);
  }

  /// Single-threaded (post-join). Sorting per viewer then decoding
  /// reproduces the batch pipeline's observation order exactly.
  void finalize(EngineResult& result) WM_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    std::vector<core::ClientRecordObservation> all;
    std::vector<core::GapSpan> all_gaps;
    for (auto& [client, observations] : clients_) {
      std::sort(observations.begin(), observations.end(), observation_before);
      core::DecodeOptions options;
      const auto gap_it = gaps_.find(client);
      if (gap_it != gaps_.end()) {
        options.gaps = gap_it->second;
        std::sort(options.gaps.begin(), options.gaps.end(), gap_before);
        all_gaps.insert(all_gaps.end(), options.gaps.begin(), options.gaps.end());
      }
      result.per_client.emplace(
          client, core::decode_choices(classifier_, observations, options));
      all.insert(all.end(), observations.begin(), observations.end());
    }
    std::sort(all.begin(), all.end(), observation_before);
    core::DecodeOptions combined_options;
    combined_options.gaps = std::move(all_gaps);
    std::sort(combined_options.gaps.begin(), combined_options.gaps.end(),
              gap_before);
    result.combined = core::decode_choices(classifier_, all, combined_options);
    result.stats.viewers_seen = clients_.size();
    result.stats.client_records = client_records_;
    result.stats.type1_records = type1_;
    result.stats.type2_records = type2_;
  }

 private:
  const core::RecordClassifier& classifier_;
  // wm-lint: allow(mutex): collector merge point — workers hit it once
  // per flushed session batch, not per packet (see DESIGN.md s2.4).
  util::Mutex mutex_;
  std::map<std::string, std::vector<core::ClientRecordObservation>> clients_
      WM_GUARDED_BY(mutex_);
  /// Per-viewer gap timelines, parallel to clients_ (a viewer may have
  /// gaps before — or without — any decodable observation).
  std::map<std::string, std::vector<core::GapSpan>> gaps_
      WM_GUARDED_BY(mutex_);
  std::uint64_t client_records_ WM_GUARDED_BY(mutex_) = 0;
  std::uint64_t type1_ WM_GUARDED_BY(mutex_) = 0;
  std::uint64_t type2_ WM_GUARDED_BY(mutex_) = 0;
  // Observability handles (null without a registry).
  obs::Counter* client_records_counter_ = nullptr;
  obs::Counter* type1_counter_ = nullptr;
  obs::Counter* type2_counter_ = nullptr;
  obs::Counter* other_counter_ = nullptr;
  obs::Counter* viewers_counter_ = nullptr;
  obs::Counter* gaps_counter_ = nullptr;
};

// --- Shard -----------------------------------------------------------

struct ShardedFlowEngine::Shard {
  /// Batches the worker takes off inbound per wake: one blocking pop
  /// plus a non-blocking drain, so index publishes, wake fences and
  /// freelist returns amortize across up to this many batches
  /// (push_n/try_pop_n — the batched ring ops).
  static constexpr std::size_t kWorkerDrain = 8;

  Shard(const tls::RecordStreamExtractor::Config& extractor_config,
        std::size_t queue_capacity)
      : inbound(queue_capacity),
        freelist(inbound.capacity() + kWorkerDrain + 1),
        extractor(extractor_config) {
    // The arena backs both rings. Sizing: with inbound full (capacity
    // C), the worker holding a full drain run (kWorkerDrain batches)
    // and the dispatcher holding one pending batch, C + kWorkerDrain +
    // 1 batches are live — so after any successful inbound push at
    // least one batch sits in the freelist, and the dispatcher's
    // refill pop never blocks. Addresses are stable: the arena never
    // grows after construction.
    const std::size_t arena_size = inbound.capacity() + kWorkerDrain + 1;
    arena.reserve(arena_size);
    for (std::size_t i = 0; i < arena_size; ++i) {
      arena.push_back(std::make_unique<PacketBatch>());
      PacketBatch* batch = arena.back().get();
      // Pre-start, single-threaded: the arena was sized to fit.
      (void)freelist.try_push(batch);
    }
  }

  // Queue half: a lock-free SPSC ring pair between the feeding thread
  // (producer of inbound, consumer of freelist) and the worker. Full
  // batches travel down inbound; drained batches come back through
  // freelist with their slot capacity intact.
  util::SpscRing<PacketBatch*> inbound;
  util::SpscRing<PacketBatch*> freelist;
  std::vector<std::unique_ptr<PacketBatch>> arena;
  std::thread thread;

  // Analysis half: owned by the worker thread (or the feeding thread
  // in inline mode, or the joiner after shutdown) — never shared, so
  // the per-packet path is lock-free.
  tls::RecordStreamExtractor extractor;
  /// Cached per-flow collector key and SNI, one entry per flow the
  /// extractor holds: an entry leaves when its flow retires, so a new
  /// connection on the same 4-tuple starts afresh.
  struct ClientInfo {
    std::string key;
    std::optional<std::string> sni;
  };
  std::map<net::FlowKey, ClientInfo> clients;
  std::uint64_t records = 0;
  /// Scratch reused across batches by the slab path (feed_batch appends
  /// into it; capacity is retained between drains).
  std::vector<tls::StreamEvent> events;
  /// Recycled packet the scalar oracle materializes views into, so the
  /// per-view fallback path still allocates nothing in steady state.
  net::Packet scratch;
  /// Worker busy time per dequeued batch (null without a registry).
  obs::TimingSpan* work_span = nullptr;
};

ShardedFlowEngine::ShardedFlowEngine(const core::RecordClassifier& classifier,
                                     EngineConfig config)
    : classifier_(classifier),
      config_(config),
      collector_(std::make_unique<Collector>(classifier, config.metrics)) {
  tls::RecordStreamExtractor::Config extractor_config;
  extractor_config.retain_events = false;  // the collector is the memory
  extractor_config.report_retired = true;  // Shard::clients follows it
  extractor_config.idle_timeout = config_.flow_idle_timeout;
  extractor_config.reassembly = config_.reassembly;

  if (config_.metrics != nullptr) {
    packets_in_counter_ = config_.metrics->counter("engine.packets_in", obs::Stability::kStable);
    batches_counter_ =
        config_.metrics->counter("engine.batches", obs::Stability::kSharded);
    backpressure_counter_ = config_.metrics->counter(
        "engine.backpressure_waits", obs::Stability::kVolatile);
    config_.metrics
        ->counter("engine.shards_configured", obs::Stability::kSharded)
        ->add(config_.shards);
  }

  const std::size_t shard_count = std::max<std::size_t>(config_.shards, 1);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (config_.metrics != nullptr) {
      // Per-shard breakdowns are configuration-dependent; their sums
      // roll up under "engine." and stay invariant across shard counts
      // (every packet of a flow lands on exactly one shard).
      extractor_config.registry = config_.metrics;
      extractor_config.metrics_scope =
          "engine.shard[" + std::to_string(i) + "]";
      extractor_config.metrics_stability = obs::Stability::kSharded;
      extractor_config.metrics_rollup = "engine";
    }
    shards_.push_back(
        std::make_unique<Shard>(extractor_config, config_.queue_capacity));
    if (config_.metrics != nullptr) {
      shards_.back()->work_span = config_.metrics->timing(
          "engine.shard[" + std::to_string(i) + "].work");
    }
  }

  if (config_.shards > 0) {
    pending_.resize(shards_.size(), nullptr);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      (void)shards_[i]->freelist.try_pop(pending_[i]);  // arena is pre-filled
    }
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->thread = std::thread([this, s] {
        // Batched drain: block for the first batch, then sweep up
        // whatever else is already queued — one index acquire and one
        // freelist publish per run instead of per batch.
        PacketBatch* local[Shard::kWorkerDrain] = {};
        while (s->inbound.pop(local[0])) {
          const std::size_t run =
              1 + s->inbound.try_pop_n(local + 1, Shard::kWorkerDrain - 1);
          {
            const obs::StageTimer timer(s->work_span);
            for (std::size_t i = 0; i < run; ++i) {
              process_batch(*s, *local[i]);
            }
          }
          // Slots keep their capacity for the refill.
          for (std::size_t i = 0; i < run; ++i) local[i]->clear();
          // The freelist ring holds the whole arena, so this never
          // parks; push_n still amortizes the wake edge.
          (void)s->freelist.push_n(local, run);
        }
      });
    }
  }
}

ShardedFlowEngine::~ShardedFlowEngine() {
  if (!finished_) shutdown_workers();
}

void ShardedFlowEngine::shutdown_workers() {
  if (config_.shards == 0) return;
  for (auto& shard : shards_) shard->inbound.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ShardedFlowEngine::process(Shard& shard, const net::Packet& packet) {
  handle_events(shard, shard.extractor.feed(packet));
}

void ShardedFlowEngine::process_batch(Shard& shard, const net::Packet* packets,
                                      std::size_t count) {
  if (!config_.slab_decode) {
    for (std::size_t i = 0; i < count; ++i) process(shard, packets[i]);
    return;
  }
  shard.events.clear();
  shard.extractor.feed_batch(packets, count, shard.events);
  handle_events(shard, shard.events);
}

void ShardedFlowEngine::process_batch(Shard& shard,
                                      const net::PacketView* views,
                                      std::size_t count) {
  if (!config_.slab_decode) {
    // Oracle path: one recycled materialization per view, then the
    // scalar per-packet chain — identical semantics to feeding owned
    // packets (the reassembler copies payloads it must hold).
    for (std::size_t i = 0; i < count; ++i) {
      views[i].assign_to(shard.scratch);
      process(shard, shard.scratch);
    }
    return;
  }
  shard.events.clear();
  // stable_payload: the read_views() contract keeps the backing bytes
  // alive for the source's lifetime (which outlives finish() — see
  // consume()), so reassembly buffers borrowed spans instead of
  // copying out-of-order segments.
  shard.extractor.feed_batch(views, count, shard.events,
                             /*stable_payload=*/true);
  handle_events(shard, shard.events);
}

void ShardedFlowEngine::process_batch(Shard& shard, const PacketBatch& batch) {
  if (batch.has_views()) {
    process_batch(shard, batch.views(), batch.size());
  } else {
    process_batch(shard, batch.begin(), batch.size());
  }
}

void ShardedFlowEngine::handle_events(
    Shard& shard, const std::vector<tls::StreamEvent>& events) {
  const std::span<const tls::RecordStreamExtractor::RetiredFlow> retired =
      shard.extractor.retired();
  std::size_t applied = 0;
  const auto retire_before = [&](std::size_t index) {
    for (; applied < retired.size() && retired[applied].events_before <= index;
         ++applied) {
      shard.clients.erase(retired[applied].flow);
    }
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    retire_before(i);
    handle_event(shard, events[i], retired.subspan(applied));
  }
  retire_before(events.size());
  shard.extractor.clear_retired();
}

void ShardedFlowEngine::handle_event(
    Shard& shard, const tls::StreamEvent& stream_event,
    std::span<const tls::RecordStreamExtractor::RetiredFlow> retired) {
  auto [it, inserted] =
      shard.clients.try_emplace(stream_event.flow, Shard::ClientInfo{});
  if (inserted) it->second.key = client_key(stream_event.flow);
  Shard::ClientInfo& info = it->second;

  if (stream_event.kind == tls::StreamEvent::Kind::kGap) {
    // Only client->server holes can swallow the choice-marker uploads
    // the decoder reasons about; server-side loss is decode-neutral.
    const tls::StreamGapEvent& gap = stream_event.gap;
    if (gap.direction != net::FlowDirection::kClientToServer) return;
    collector_->on_gap(info.key, core::GapSpan{gap.timestamp, gap.length});
    return;
  }

  ++shard.records;
  const tls::RecordEvent& event = stream_event.event;
  if (!event.is_client_application_data()) return;

  if (!info.sni) {
    // A flow that retired later in this call had its state recycled,
    // and a new connection may hold its 4-tuple now: its retirement
    // carries the SNI this event's connection had.
    const auto own = std::find_if(
        retired.begin(), retired.end(),
        [&](const auto& flow) { return flow.flow == stream_event.flow; });
    info.sni = own != retired.end() ? own->sni
                                    : shard.extractor.sni_of(stream_event.flow);
  }

  core::ClientRecordObservation observation;
  observation.timestamp = event.timestamp;
  observation.record_length = event.record_length;
  observation.flow_sni = info.sni;
  observation.after_gap = event.after_gap;
  collector_->on_record(info.key, observation,
                        classifier_.classify(event.record_length));
}

std::size_t ShardedFlowEngine::shard_for(const net::Packet& packet) const {
  return shard_for(util::BytesView(packet.data));
}

std::size_t ShardedFlowEngine::shard_for(util::BytesView frame) const {
  // One worker: everything lands on shard 0, and the header parse a
  // real flow hash would cost is pure dispatcher overhead.
  if (shards_.size() == 1) return 0;
  const auto hash = net::flow_shard_hash(frame);
  return hash ? static_cast<std::size_t>(*hash % shards_.size()) : 0;
}

PacketBatch& ShardedFlowEngine::pending_for(std::size_t shard_index,
                                            bool views) {
  PacketBatch* batch = pending_[shard_index];
  if (!batch->empty() && batch->has_views() != views) {
    dispatch(shard_index);
    batch = pending_[shard_index];
  }
  return *batch;
}

void ShardedFlowEngine::dispatch(std::size_t shard_index) {
  PacketBatch* batch = pending_[shard_index];
  if (batch == nullptr || batch->empty()) return;
  Shard& shard = *shards_[shard_index];
  if (!shard.inbound.try_push(batch)) {
    // Ring full: the worker is behind. Park until it drains a slot —
    // backpressure, never packet loss.
    ++backpressure_waits_;
    obs::inc(backpressure_counter_);
    shard.inbound.push(batch);
  }
  ++batches_dispatched_;
  obs::inc(batches_counter_);
  // Refill from the freelist. Arena sizing guarantees a recycled batch
  // is available once the push above has landed (see Shard's note), so
  // this pop returns without parking in practice.
  PacketBatch* fresh = nullptr;
  shard.freelist.pop(fresh);
  pending_[shard_index] = fresh;
}

void ShardedFlowEngine::ingest(const PacketBatch& batch) {
  if (batch.has_views()) {
    ingest_views(batch);
    return;
  }
  packets_in_.fetch_add(batch.size(), std::memory_order_relaxed);
  obs::inc(packets_in_counter_, batch.size());
  std::uint64_t bytes = 0;
  for (const net::Packet& packet : batch) bytes += packet.data.size();
  bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  if (config_.shards == 0) {
    // Inline mode analyzes straight out of the source's batch — the
    // fully zero-copy path (mmap page cache → TLS extractor).
    process_batch(*shards_[0], batch.begin(), batch.size());
    return;
  }
  // Sharded mode pays exactly one capacity-recycled copy per packet:
  // the batch's bytes are assigned into the shard's own slots, because
  // a borrowed batch only lives until the source's next read while the
  // worker drains asynchronously.
  for (const net::Packet& packet : batch) {
    const std::size_t index = shard_for(packet);
    pending_for(index, false).append(packet);
    if (pending_[index]->size() >= config_.dispatch_batch) dispatch(index);
  }
}

void ShardedFlowEngine::ingest_views(const PacketBatch& batch) {
  const net::PacketView* views = batch.views();
  const std::size_t count = batch.size();
  packets_in_.fetch_add(count, std::memory_order_relaxed);
  obs::inc(packets_in_counter_, count);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < count; ++i) bytes += views[i].data.size();
  bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  if (config_.shards == 0) {
    // Inline mode: the fully zero-copy chain — mmap page cache (or the
    // caller's vector) straight into slab decode and reassembly.
    process_batch(*shards_[0], views, count);
    return;
  }
  // Sharded mode moves 24-byte view descriptors, never frame bytes:
  // the dispatcher hashes the 5-tuple out of the backing store and the
  // owning worker reads payloads from the same place.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = shard_for(views[i].data);
    pending_for(index, true).append_view(views[i]);
    if (pending_[index]->size() >= config_.dispatch_batch) dispatch(index);
  }
}

void ShardedFlowEngine::ingest(PacketBatch&& batch) {
  net::Packet* slots = batch.mutable_slots();
  if (config_.shards == 0 || slots == nullptr || batch.has_views()) {
    // Inline mode analyzes in place anyway, and a borrowed batch does
    // not own its buffers — both take the copying overload.
    ingest(batch);
    return;
  }
  const std::size_t count = batch.size();
  packets_in_.fetch_add(count, std::memory_order_relaxed);
  obs::inc(packets_in_counter_, count);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < count; ++i) bytes += slots[i].data.size();
  bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  // Owned batch, sharded mode: demux by swapping each slot's buffer
  // into the shard's pending batch — no byte copy. The emptied source
  // slot inherits the shard slot's previous capacity, so buffers
  // recycle in both directions and the steady state stays
  // allocation-free.
  for (std::size_t i = 0; i < count; ++i) {
    net::Packet& packet = slots[i];
    const std::size_t index = shard_for(packet);
    pending_[index]->append(std::move(packet));
    if (pending_[index]->size() >= config_.dispatch_batch) dispatch(index);
  }
  batch.clear();
}

void ShardedFlowEngine::flush_pending() {
  for (std::size_t i = 0; i < pending_.size(); ++i) dispatch(i);
}

std::size_t ShardedFlowEngine::consume(PacketSource& source) {
  const obs::StageTimer timer(config_.metrics, "engine.consume");
  std::size_t total = 0;
  PacketBatch batch;
  // Probe the zero-copy path once: a source that serves stable views
  // (mmap capture, in-memory vector) keeps serving them, so after a
  // nonzero first read we stay on read_views() to exhaustion and no
  // frame byte is ever copied between the backing store and the TLS
  // extractor. A first-call 0 means unsupported (or an already-empty
  // stream) — fall back to the slot-recycling read_batch() path.
  if (source.read_views(batch, config_.dispatch_batch) != 0) {
    do {
      total += batch.size();
      ingest(batch);  // view demux; read_views() clears before refilling
    } while (source.read_views(batch, config_.dispatch_batch) != 0);
    return total;
  }
  while (source.read_batch(batch, config_.dispatch_batch) != 0) {
    total += batch.size();
    ingest(std::move(batch));  // read_batch() clears before refilling
  }
  return total;
}

EngineResult ShardedFlowEngine::finish() {
  const obs::StageTimer timer(config_.metrics, "engine.finish");
  const bool first_finish = !finished_;
  if (first_finish && config_.shards > 0) {
    flush_pending();
    shutdown_workers();
  }
  finished_ = true;

  // End-of-capture flush: every live flow's outstanding reassembly
  // holes become gaps and the TLS parsers re-lock with relaxed
  // validation, so records cut off mid-capture still reach the
  // collector. Workers are joined (or never existed), so the feeding
  // thread owns every shard's analysis state here.
  if (first_finish) {
    for (auto& shard : shards_) handle_events(*shard, shard->extractor.flush());
  }

  EngineResult result;
  collector_->finalize(result);
  result.stats.shards = config_.shards;
  result.stats.packets_in = packets_in_.load(std::memory_order_relaxed);
  result.stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  result.stats.batches_dispatched = batches_dispatched_;
  result.stats.backpressure_waits = backpressure_waits_;
  for (const auto& shard : shards_) {
    result.stats.packets_undecodable += shard->extractor.packets_undecodable();
    result.stats.records += shard->records;
    result.stats.flows_opened += shard->extractor.flows_opened();
    result.stats.flows_evicted += shard->extractor.flows_evicted();
    result.stats.flows_completed += shard->extractor.flows_completed();
    result.stats.gaps += shard->extractor.gaps();
    result.stats.gap_bytes += shard->extractor.gap_bytes();
    result.stats.tls_resyncs += shard->extractor.tls_resyncs();
    result.stats.tls_skipped_bytes += shard->extractor.tls_bytes_skipped();
    result.stats.peak_active_flows += shard->extractor.peak_active_flows();
  }
  return result;
}

std::uint64_t ShardedFlowEngine::packets_in() const {
  return packets_in_.load(std::memory_order_relaxed);
}

std::size_t ShardedFlowEngine::flow_entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->clients.size();
  return total;
}

EngineResult analyze(const core::RecordClassifier& classifier,
                     PacketSource& source, EngineConfig config) {
  ShardedFlowEngine engine(classifier, config);
  engine.consume(source);
  return engine.finish();
}

}  // namespace wm::engine
