#include "wm/monitor/monitor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "wm/net/flow.hpp"
#include "wm/net/packet.hpp"

namespace wm::monitor {

std::string MonitorStats::to_string() const {
  std::ostringstream out;
  out << "packets=" << packets << " client_records=" << client_records
      << " viewers=" << viewers_opened
      << " evicted_idle=" << viewers_evicted_idle
      << " shed=" << viewers_shed << " questions=" << questions_opened
      << " choices=" << choices_inferred << " overrides=" << overrides
      << " synthesized=" << questions_synthesized
      << " gaps=" << gaps_observed << " flows_swept=" << flows_swept
      << " flows_closed=" << flows_closed
      << " holds_lent=" << holds_lent << " holds_copied=" << holds_copied
      << " timer_fires=" << timer_fires
      << " ceiling_violations=" << ceiling_violations
      << " peak_viewers=" << peak_viewers
      << " peak_mem=" << peak_memory_bytes;
  return out.str();
}

namespace {

constexpr std::uint32_t kNilIndex = 0xffffffffu;

// Timer payload: viewer slot in the high bits, timer kind in the low
// two. The global flow-sweep timer uses kNilIndex as its slot.
enum class TimerKind : std::uint64_t { kViewerIdle = 0, kWindow = 1, kFlowSweep = 2 };

std::uint64_t timer_data(std::uint32_t slot, TimerKind kind) {
  return (static_cast<std::uint64_t>(slot) << 2) |
         static_cast<std::uint64_t>(kind);
}

/// A viewer's index key: its client address packed into two words, so
/// the per-record lookup hashes integers instead of formatting a string.
struct ClientKey {
  std::uint64_t high = 0;
  std::uint64_t low = 0;
  bool v6 = false;  // keeps a.b.c.d apart from ::a.b.c.d

  bool operator==(const ClientKey&) const = default;
};

struct ClientKeyHash {
  std::size_t operator()(const ClientKey& key) const noexcept {
    // splitmix64 finalizer over the folded words.
    std::uint64_t x = key.high * 0x9e3779b97f4a7c15ull ^ key.low ^
                      (key.v6 ? 0xbf58476d1ce4e5b9ull : 0);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

ClientKey client_key(const net::Endpoint& client) {
  ClientKey key;
  if (client.is_v6) {
    key.v6 = true;
    std::memcpy(&key.high, client.v6.octets().data(), 8);
    std::memcpy(&key.low, client.v6.octets().data() + 8, 8);
  } else {
    key.low = client.v4.value();
  }
  return key;
}

std::string client_string(const net::Endpoint& client) {
  return client.is_v6 ? client.v6.to_string() : client.v4.to_string();
}

}  // namespace

// One viewer's decode state: O(1) regardless of session length — the
// incremental decoder with its bounded gap ring, not the observation
// log the batch collector keeps.
struct ViewerState {
  ClientKey key;
  std::string client;  // formatted once, when the viewer opens
  util::SimTime last_activity;
  core::ChoiceDecoder decoder;
  util::TimerWheel::TimerId window_timer = util::TimerWheel::kInvalidTimer;
  util::TimerWheel::TimerId idle_timer = util::TimerWheel::kInvalidTimer;
  // Intrusive LRU by last_activity: head = oldest-idle = shed first.
  std::uint32_t lru_prev = kNilIndex;
  std::uint32_t lru_next = kNilIndex;
  bool in_use = false;

  [[nodiscard]] std::size_t dynamic_bytes() const {
    return client.capacity() + decoder.memory_bytes();
  }
};

struct ContinuousMonitor::Impl {
  Impl(const core::RecordClassifier& classifier_in, MonitorConfig config_in,
       engine::EventSink* sink_in)
      : classifier(classifier_in),
        config(config_in),
        sink(sink_in),
        wheel(config.wheel),
        extractor(make_extractor_config(config)) {
    if (config.metrics != nullptr) {
      obs::Registry& m = *config.metrics;
      // Rollup stability is per counter: per-viewer / per-record
      // quantities sum to the same totals at any shard count (stable
      // rollups keep the flat "monitor.*" names byte-identical), while
      // sweep-cadence and split-budget quantities (shed, peaks, ceiling
      // hits, timer fires) vary with N and roll up as kSharded.
      const auto resolve = [&](const char* suffix, obs::Stability rollup_stab) {
        const std::string name = config.metrics_scope + suffix;
        if (config.metrics_rollup.empty()) {
          return m.counter(name, config.metrics_stability);
        }
        return m.counter(name, config.metrics_stability,
                         config.metrics_rollup + suffix, rollup_stab);
      };
      using obs::Stability;
      viewers_opened_c = resolve(".viewers.opened", Stability::kStable);
      viewers_idle_c = resolve(".viewers.evicted_idle", Stability::kStable);
      viewers_shed_c = resolve(".viewers.shed", Stability::kSharded);
      viewers_peak_c = resolve(".viewers.active.peak", Stability::kSharded);
      mem_peak_c = resolve(".mem.bytes.peak", Stability::kSharded);
      ceiling_c = resolve(".mem.ceiling_violations", Stability::kSharded);
      questions_c = resolve(".emit.questions", Stability::kStable);
      choices_c = resolve(".emit.choices", Stability::kStable);
      overrides_c = resolve(".emit.overrides", Stability::kStable);
      gaps_c = resolve(".gaps", Stability::kStable);
      sweeps_c = resolve(".flows.swept", Stability::kStable);
      timer_c = resolve(".timer.fires", Stability::kSharded);
      // Question-to-answer sim-time latency; bounded above by the
      // evidence window, so millisecond buckets up to 30s cover it.
      const std::vector<std::uint64_t> latency_bounds = {
          1, 10, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000};
      if (config.metrics_rollup.empty()) {
        emit_latency_h = m.histogram(config.metrics_scope + ".emit.latency_ms",
                                     latency_bounds, config.metrics_stability);
      } else {
        emit_latency_h = m.histogram(
            config.metrics_scope + ".emit.latency_ms", latency_bounds,
            config.metrics_stability,
            config.metrics_rollup + ".emit.latency_ms", Stability::kStable);
      }
    }
  }

  static tls::RecordStreamExtractor::Config make_extractor_config(
      const MonitorConfig& config) {
    tls::RecordStreamExtractor::Config out;
    out.retain_events = false;  // the monitor reacts, it does not archive
    out.idle_timeout = config.flow_idle_timeout;
    out.reassembly = config.reassembly;
    if (config.metrics != nullptr) {
      out.registry = config.metrics;
      out.metrics_scope = config.metrics_scope + ".extractor";
      out.metrics_stability = config.metrics_stability;
      if (!config.metrics_rollup.empty()) {
        out.metrics_rollup = config.metrics_rollup + ".extractor";
      }
    }
    return out;
  }

  // --- Viewer table ---------------------------------------------------

  std::uint32_t viewer_of(const net::Endpoint& client, util::SimTime now) {
    const ClientKey key = client_key(client);
    const auto it = index.find(key);
    if (it != index.end()) return it->second;

    std::uint32_t slot;
    if (free_head != kNilIndex) {
      slot = free_head;
      free_head = arena[slot].lru_next;
    } else {
      slot = static_cast<std::uint32_t>(arena.size());
      arena.emplace_back();
    }
    ViewerState& viewer = arena[slot];
    viewer = ViewerState{};
    viewer.key = key;
    viewer.client = client_string(client);
    viewer.last_activity = now;
    viewer.in_use = true;
    viewer.decoder = core::ChoiceDecoder(config.max_viewer_gaps);
    index.emplace(key, slot);
    lru_push_back(slot);
    dynamic_bytes += viewer.dynamic_bytes();
    ++active_count;
    ++stats.viewers_opened;
    obs::inc(viewers_opened_c);
    if (active_count > stats.peak_viewers) {
      obs::inc(viewers_peak_c, active_count - stats.peak_viewers);
      stats.peak_viewers = active_count;
    }
    if (config.viewer_idle_timeout != util::Duration{}) {
      viewer.idle_timer =
          wheel.schedule(now + config.viewer_idle_timeout,
                         timer_data(slot, TimerKind::kViewerIdle));
    }
    note_memory();
    enforce_budget(slot);
    return slot;
  }

  void lru_push_back(std::uint32_t slot) {
    ViewerState& viewer = arena[slot];
    viewer.lru_prev = lru_tail;
    viewer.lru_next = kNilIndex;
    if (lru_tail != kNilIndex) arena[lru_tail].lru_next = slot;
    lru_tail = slot;
    if (lru_head == kNilIndex) lru_head = slot;
  }

  void lru_unlink(std::uint32_t slot) {
    ViewerState& viewer = arena[slot];
    if (viewer.lru_prev != kNilIndex) arena[viewer.lru_prev].lru_next = viewer.lru_next;
    else lru_head = viewer.lru_next;
    if (viewer.lru_next != kNilIndex) arena[viewer.lru_next].lru_prev = viewer.lru_prev;
    else lru_tail = viewer.lru_prev;
    viewer.lru_prev = kNilIndex;
    viewer.lru_next = kNilIndex;
  }

  void lru_touch(std::uint32_t slot) {
    if (lru_tail == slot) return;
    lru_unlink(slot);
    lru_push_back(slot);
  }

  [[nodiscard]] std::size_t live_bytes() const {
    return active_count * sizeof(ViewerState) + dynamic_bytes +
           wheel.memory_bytes();
  }

  void note_memory() {
    const std::size_t bytes = live_bytes();
    if (bytes > stats.peak_memory_bytes) {
      obs::inc(mem_peak_c, bytes - stats.peak_memory_bytes);
      stats.peak_memory_bytes = bytes;
    }
  }

  /// Shed oldest-idle viewers until the budget holds. `protect` is the
  /// viewer being processed right now — never shed under its own feet.
  void enforce_budget(std::uint32_t protect) {
    if (config.max_total_bytes == 0) return;
    while (live_bytes() > config.max_total_bytes) {
      std::uint32_t victim = lru_head;
      if (victim == protect) victim = arena[victim].lru_next;
      if (victim == kNilIndex) {
        // Nothing left to shed: the budget is genuinely violated.
        ++stats.ceiling_violations;
        obs::inc(ceiling_c);
        return;
      }
      ++stats.viewers_shed;
      obs::inc(viewers_shed_c);
      evict_viewer(victim, engine::ViewerEvictedEvent::Reason::kMemoryShed,
                   arena[victim].last_activity);
    }
  }

  void evict_viewer(std::uint32_t slot,
                    engine::ViewerEvictedEvent::Reason reason,
                    util::SimTime at) {
    ViewerState& viewer = arena[slot];
    // An open question still gets its answer — eviction closes the
    // evidence window early rather than swallowing the inference.
    if (viewer.decoder.has_open()) settle(viewer, at, 0);
    if (viewer.idle_timer != util::TimerWheel::kInvalidTimer) {
      wheel.cancel(viewer.idle_timer);
      viewer.idle_timer = util::TimerWheel::kInvalidTimer;
    }
    if (sink != nullptr) {
      engine::ViewerEvictedEvent event;
      event.client = viewer.client;
      event.reason = reason;
      event.at = at;
      event.questions_emitted = viewer.decoder.questions_opened();
      sink->on_viewer_evicted(event);
    }
    lru_unlink(slot);
    index.erase(viewer.key);
    dynamic_bytes -= viewer.dynamic_bytes();
    --active_count;
    viewer.in_use = false;
    viewer.client.clear();
    viewer.client.shrink_to_fit();
    viewer.decoder = core::ChoiceDecoder();
    viewer.lru_next = free_head;  // freelist reuses the LRU link
    free_head = slot;
  }

  // --- Emission -------------------------------------------------------

  void question_opened(ViewerState& viewer, std::uint16_t record_length) {
    const core::InferredQuestion& question = viewer.decoder.question();
    ++stats.questions_opened;
    obs::inc(questions_c);
    if (sink != nullptr) {
      engine::QuestionOpenedEvent event;
      event.client = viewer.client;
      event.question = question;
      event.record_length = record_length;
      sink->on_question_opened(event);
    }
    viewer.window_timer = wheel.reschedule(
        viewer.window_timer, question.question_time + config.evidence_window,
        timer_data(static_cast<std::uint32_t>(&viewer - arena.data()),
                   TimerKind::kWindow));
  }

  /// Close the open question's evidence window now and emit its answer.
  void settle(ViewerState& viewer, util::SimTime at,
              std::uint16_t record_length) {
    emit_choice(viewer, viewer.decoder.settle(), at, record_length);
  }

  void emit_choice(ViewerState& viewer, const core::InferredQuestion& question,
                   util::SimTime at, std::uint16_t record_length) {
    if (viewer.window_timer != util::TimerWheel::kInvalidTimer) {
      wheel.cancel(viewer.window_timer);
      viewer.window_timer = util::TimerWheel::kInvalidTimer;
    }
    ++stats.choices_inferred;
    obs::inc(choices_c);
    if (question.choice != story::Choice::kDefault) {
      ++stats.overrides;
      obs::inc(overrides_c);
    }
    const std::int64_t latency_ms =
        (at - question.question_time).total_millis();
    obs::observe(emit_latency_h,
                 latency_ms > 0 ? static_cast<std::uint64_t>(latency_ms) : 0);
    if (sink != nullptr) {
      engine::ChoiceInferredEvent event;
      event.client = viewer.client;
      event.question = question;
      event.record_length = record_length;
      event.at = at;
      event.final = true;
      sink->on_choice_inferred(event);
    }
  }

  void on_record(std::uint32_t slot, const core::ClientRecordObservation& obs,
                 core::RecordClass cls) {
    ViewerState& viewer = arena[slot];
    ++stats.client_records;
    viewer.last_activity = obs.timestamp;
    lru_touch(slot);
    if (config.viewer_idle_timeout != util::Duration{}) {
      viewer.idle_timer = wheel.reschedule(
          viewer.idle_timer, obs.timestamp + config.viewer_idle_timeout,
          timer_data(slot, TimerKind::kViewerIdle));
    }

    const core::ChoiceDecoder::Step step = viewer.decoder.add_record(obs, cls);
    if (step.settled) emit_choice(viewer, *step.settled, obs.timestamp, 0);
    switch (step.effect) {
      case core::ChoiceDecoder::Effect::kNone:
        break;
      case core::ChoiceDecoder::Effect::kOpened:
        question_opened(viewer, obs.record_length);
        break;
      case core::ChoiceDecoder::Effect::kSynthesized:
        ++stats.questions_synthesized;
        question_opened(viewer, obs.record_length);
        settle(viewer, obs.timestamp, obs.record_length);
        break;
      case core::ChoiceDecoder::Effect::kOverridden:
        // The first override is final: nothing can revise it any more.
        settle(viewer, obs.timestamp, obs.record_length);
        break;
    }
  }

  // --- Extractor plumbing ---------------------------------------------

  void handle_event(const tls::StreamEvent& stream_event) {
    if (stream_event.kind == tls::StreamEvent::Kind::kGap) {
      const tls::StreamGapEvent& gap = stream_event.gap;
      if (gap.direction != net::FlowDirection::kClientToServer) return;
      const std::uint32_t slot = viewer_of(stream_event.flow.client, gap.timestamp);
      ViewerState& viewer = arena[slot];
      const core::GapSpan span{gap.timestamp, gap.length};
      // The viewer's first gap allocates its gap ring: account for it
      // and hold the budget, as when a viewer opens.
      const std::size_t ring_before = viewer.decoder.memory_bytes();
      viewer.decoder.add_gap(span);
      if (viewer.decoder.memory_bytes() != ring_before) {
        dynamic_bytes += viewer.decoder.memory_bytes() - ring_before;
        note_memory();
        enforce_budget(slot);
      }
      ++stats.gaps_observed;
      obs::inc(gaps_c);
      if (sink != nullptr) {
        engine::GapObservedEvent event;
        event.client = viewer.client;
        event.gap = span;
        sink->on_gap_observed(event);
      }
      return;
    }

    const tls::RecordEvent& event = stream_event.event;
    if (!event.is_client_application_data()) return;
    const std::uint32_t slot = viewer_of(stream_event.flow.client, event.timestamp);

    core::ClientRecordObservation observation;
    observation.timestamp = event.timestamp;
    observation.record_length = event.record_length;
    observation.after_gap = event.after_gap;
    on_record(slot, observation, classifier.classify(event.record_length));
  }

  // --- Timers ---------------------------------------------------------

  void on_timer(util::TimerWheel::TimerId id, std::uint64_t data,
                util::SimTime deadline) {
    ++stats.timer_fires;
    obs::inc(timer_c);
    const auto kind = static_cast<TimerKind>(data & 0x3u);
    if (kind == TimerKind::kFlowSweep) {
      sweep_timer = util::TimerWheel::kInvalidTimer;
      const std::size_t evicted = extractor.sweep_idle(deadline);
      stats.flows_swept += evicted;
      obs::inc(sweeps_c, evicted);
      arm_flow_sweep(deadline);
      return;
    }
    const auto slot = static_cast<std::uint32_t>(data >> 2);
    if (slot >= arena.size() || !arena[slot].in_use) return;
    ViewerState& viewer = arena[slot];
    if (kind == TimerKind::kWindow) {
      if (viewer.window_timer != id) return;  // rearmed since; stale fire
      viewer.window_timer = util::TimerWheel::kInvalidTimer;
      if (viewer.decoder.has_open()) settle(viewer, deadline, 0);
      return;
    }
    // Viewer idle.
    if (viewer.idle_timer != id) return;  // activity rearmed it
    viewer.idle_timer = util::TimerWheel::kInvalidTimer;
    ++stats.viewers_evicted_idle;
    obs::inc(viewers_idle_c);
    evict_viewer(slot, engine::ViewerEvictedEvent::Reason::kIdle, deadline);
  }

  void arm_flow_sweep(util::SimTime now) {
    if (config.flow_idle_timeout == util::Duration{}) return;
    // Sweep at half the timeout: flows leave within 1.5x even when no
    // packet ever hits their extractor again.
    const util::Duration period =
        util::Duration::nanos(config.flow_idle_timeout.total_nanos() / 2);
    sweep_timer = wheel.schedule(now + period,
                                 timer_data(kNilIndex, TimerKind::kFlowSweep));
  }

  void advance(util::SimTime now) {
    wheel.advance(now, [this](util::TimerWheel::TimerId id, std::uint64_t data,
                              util::SimTime deadline) {
      on_timer(id, data, deadline);
    });
    note_memory();
  }

  /// `Frame` is `const net::Packet` or, for a caller that lends its
  /// frame buffers to the extractor's holds, `net::Packet`.
  template <typename Frame>
  void feed_batch(Frame* packets, std::size_t count) {
    while (count > 0) {
      // Decoding is stateless, so a whole slab can be decoded ahead of
      // the timers that fire between its packets.
      const std::size_t n = std::min(count, net::DecodedSlab::kCapacity);
      net::decode_slab(packets, n, slab);
      for (std::size_t i = 0; i < n; ++i) {
        Frame& packet = packets[i];
        ++stats.packets;
        // Fire everything due strictly before this packet's instant,
        // then analyze — one timeline, capture-time ordered.
        advance(packet.timestamp);
        if (sweep_timer == util::TimerWheel::kInvalidTimer) {
          arm_flow_sweep(packet.timestamp);
        }
        events.clear();
        if constexpr (std::is_const_v<Frame>) {
          extractor.feed_lens(packet.timestamp, packet.data, slab.lens[i],
                              /*stable_payload=*/false, events);
        } else {
          extractor.feed_lens_lend(packet.timestamp, packet.data, slab.lens[i],
                                   events);
        }
        stats.flows_closed = extractor.flows_closed();
        for (const tls::StreamEvent& stream_event : events) {
          handle_event(stream_event);
        }
      }
      packets += n;
      count -= n;
    }
    stats.holds_lent = extractor.holds_lent();
    stats.holds_copied = extractor.holds_copied();
  }

  const core::RecordClassifier& classifier;
  const MonitorConfig config;
  engine::EventSink* const sink;
  util::TimerWheel wheel;
  tls::RecordStreamExtractor extractor;
  net::DecodedSlab slab;                  // feed_batch's decode scratch
  std::vector<tls::StreamEvent> events;  // one packet's extractor output
  MonitorStats stats;

  std::vector<ViewerState> arena;
  std::unordered_map<ClientKey, std::uint32_t, ClientKeyHash> index;
  std::uint32_t free_head = kNilIndex;
  std::uint32_t lru_head = kNilIndex;
  std::uint32_t lru_tail = kNilIndex;
  std::size_t active_count = 0;
  std::size_t dynamic_bytes = 0;
  util::TimerWheel::TimerId sweep_timer = util::TimerWheel::kInvalidTimer;
  bool finished = false;

  obs::Counter* viewers_opened_c = nullptr;
  obs::Counter* viewers_idle_c = nullptr;
  obs::Counter* viewers_shed_c = nullptr;
  obs::Counter* viewers_peak_c = nullptr;
  obs::Counter* mem_peak_c = nullptr;
  obs::Counter* ceiling_c = nullptr;
  obs::Counter* questions_c = nullptr;
  obs::Counter* choices_c = nullptr;
  obs::Counter* overrides_c = nullptr;
  obs::Counter* gaps_c = nullptr;
  obs::Counter* sweeps_c = nullptr;
  obs::Counter* timer_c = nullptr;
  obs::Histogram* emit_latency_h = nullptr;
};

ContinuousMonitor::ContinuousMonitor(const core::RecordClassifier& classifier,
                                     MonitorConfig config,
                                     engine::EventSink* sink)
    : impl_(std::make_unique<Impl>(classifier, config, sink)) {}

ContinuousMonitor::~ContinuousMonitor() = default;

void ContinuousMonitor::feed(const net::Packet& packet) {
  impl_->feed_batch(&packet, 1);
}

void ContinuousMonitor::feed_batch(const net::Packet* packets,
                                   std::size_t count) {
  impl_->feed_batch(packets, count);
}

void ContinuousMonitor::feed_batch_lend(net::Packet* packets,
                                        std::size_t count) {
  impl_->feed_batch(packets, count);
}

std::size_t ContinuousMonitor::consume(engine::PacketSource& source) {
  std::size_t total = 0;
  engine::PacketBatch batch;
  while (source.read_batch(batch, net::DecodedSlab::kCapacity) != 0) {
    total += batch.size();
    impl_->feed_batch(batch.begin(), batch.size());
  }
  return total;
}

void ContinuousMonitor::advance_to(util::SimTime now) {
  impl_->advance(now);
}

MonitorStats ContinuousMonitor::finish() {
  Impl& impl = *impl_;
  if (impl.finished) return impl.stats;
  impl.finished = true;
  // Residual reassembly/parser state still decodes: flush the extractor
  // and run its final records through the same path.
  for (const tls::StreamEvent& stream_event : impl.extractor.flush()) {
    impl.handle_event(stream_event);
  }
  // Settle and evict everyone left, oldest first (deterministic order).
  while (impl.lru_head != kNilIndex) {
    const std::uint32_t slot = impl.lru_head;
    impl.evict_viewer(slot, engine::ViewerEvictedEvent::Reason::kShutdown,
                      impl.arena[slot].last_activity);
  }
  if (impl.sweep_timer != util::TimerWheel::kInvalidTimer) {
    impl.wheel.cancel(impl.sweep_timer);
    impl.sweep_timer = util::TimerWheel::kInvalidTimer;
  }
  impl.note_memory();
  return impl.stats;
}

const MonitorStats& ContinuousMonitor::stats() const { return impl_->stats; }

std::size_t ContinuousMonitor::active_viewers() const {
  return impl_->active_count;
}

std::size_t ContinuousMonitor::memory_bytes() const {
  return impl_->live_bytes();
}

util::SimTime ContinuousMonitor::now() const { return impl_->wheel.now(); }

}  // namespace wm::monitor
