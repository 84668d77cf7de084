#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "inputs.hpp"
#include "wm/core/classifier.hpp"
#include "wm/core/decoder.hpp"
#include "wm/core/eval.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/live_source.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/net/flow.hpp"
#include "wm/net/pcap.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record_stream.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wm;

namespace {

constexpr std::size_t kCohortShards = 3;
constexpr std::size_t kLiveShards = 2;
constexpr std::size_t kLiveConcurrency = 4096;
constexpr std::size_t kBatch = 256;
/// Set-up repetitions whose median is reported as setup_s. Each
/// workload times its set-up this many times before the measured phase
/// and as many times after it, so one stretch of other tenants' load
/// does not set the figure. The live set-up (about 0.1 ms) runs 2-3x
/// slower for its first few hundred repetitions in a process —
/// thread creation warming up — so it repeats long enough for the
/// median to sit past that.
constexpr int kSetupReps = 8;
constexpr int kLiveSetupReps = 1001;
/// live_paced: wall seconds of schedule before the measured window.
constexpr double kLiveWarmSeconds = 1.5;

double ms(double seconds) { return seconds * 1e3; }

/// Keeps a result of timed work observable so it is not optimized out.
volatile std::uint64_t g_kept = 0;
void keep(std::uint64_t value) { g_kept = g_kept + value; }

/// Read every calibration trace from disk and fit the paper's interval
/// classifier on them — the attacker's set-up cost.
core::AttackPipeline calibrate(const DatasetInputs& inputs) {
  std::vector<core::CalibrationSession> sessions;
  engine::PacketBatch batch;
  for (const TraceInput& trace : inputs.calibration) {
    auto source = open_parts({trace.pcap});
    core::CalibrationSession session;
    session.truth = trace.truth;
    session.packets.reserve(trace.count.packets);
    while (source->read_batch(batch, kBatch) > 0) {
      net::Packet* slots = batch.mutable_slots();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        session.packets.push_back(std::move(slots[i]));
      }
    }
    sessions.push_back(std::move(session));
  }
  core::AttackPipeline pipeline("interval");
  pipeline.calibrate(sessions);
  return pipeline;
}

/// The online == batch contract of monitor.hpp: the same questions, and
/// the same choice for every question whose override (if any) arrived
/// within the evidence window. Later overrides are exempt — an online
/// emitter has already finalized the default by then — and counted.
bool matches_batch(const std::vector<story::Choice>& online,
                   const core::InferredSession& batch, util::Duration evidence_window,
                   std::size_t& exempt) {
  if (online.size() != batch.questions.size()) return false;
  for (std::size_t q = 0; q < online.size(); ++q) {
    const core::InferredQuestion& question = batch.questions[q];
    if (question.override_time &&
        *question.override_time - question.question_time > evidence_window) {
      ++exempt;
      continue;
    }
    if (online[q] != question.choice) return false;
  }
  return true;
}

/// Run set-up `reps` times, appending each one's wall seconds to `samples`.
template <typename Fn>
void time_setup(int reps, const Fn& setup, std::vector<double>& samples) {
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    setup();
    samples.push_back(seconds_between(start, Clock::now()));
  }
}

/// Return freed memory to the system before a measured phase or pass.
void settle_memory() { malloc_trim(0); }

void common_metrics(RunResult& result, double setup_s, double pkts_per_s,
                    double peak_rss_mb, double accuracy, const Distribution& trace_latency,
                    double emit_lag_p50_ms, double cpu_cores) {
  Metrics& m = result.metrics;
  m.set("pkts_per_s", pkts_per_s, "1/s");
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb, "MiB");
  m.set("choice_accuracy", accuracy, "ratio");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  m.set("success_ratio", 1.0 - static_cast<double>(result.failed) / attempted, "ratio");
  m.set("trace_latency_p50_ms", trace_latency.p50, "ms");
  m.set("trace_latency_p90_ms", trace_latency.p90, "ms");
  m.set("emit_lag_p50_ms", emit_lag_p50_ms, "ms");
  m.set("cpu_cores", cpu_cores, "cores");
}

// --- answer sink ---------------------------------------------------------

/// Per-viewer answer log filled from fleet worker threads. Viewers map
/// to dense slots by their client address; the fleet pins every viewer
/// to one shard, so each slot has exactly one writer thread. Lag
/// samples go to per-thread buffers. Read only after finish().
// wm-lint: sink(threadsafe)
class AnswerSink final : public engine::EventSink {
 public:
  struct Viewer {
    std::size_t opened = 0;     // highest question index opened
    std::size_t finals = 0;     // final ChoiceInferred events
    std::vector<story::Choice> choices;  // by question index - 1
    std::vector<bool> settled;
    bool shed = false;
    bool duplicate_final = false;
    util::SimTime first_question;
    Clock::time_point last_final{};
  };
  /// Maps a client address to a slot, or -1 for traffic that is no
  /// viewer of the workload.
  using SlotOf = std::function<std::int64_t(std::string_view client)>;

  AnswerSink(std::size_t viewers, SlotOf slot_of)
      : viewers_(viewers), slot_of_(std::move(slot_of)) {}

  void on_question_opened(const engine::QuestionOpenedEvent& event) override {
    Viewer* viewer = find(event.client);
    if (viewer == nullptr) return;
    events_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = event.question.index;
    if (index == 1) viewer->first_question = event.question.question_time;
    viewer->opened = std::max(viewer->opened, index);
    if (viewer->choices.size() < index) {
      viewer->choices.resize(index, story::Choice::kDefault);
      viewer->settled.resize(index, false);
    }
  }

  void on_choice_inferred(const engine::ChoiceInferredEvent& event) override {
    if (!event.final) return;
    const auto now = Clock::now();
    Viewer* viewer = find(event.client);
    if (viewer == nullptr) return;
    events_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = event.question.index;
    if (index == 0) return;
    if (viewer->choices.size() < index) {
      viewer->choices.resize(index, story::Choice::kDefault);
      viewer->settled.resize(index, false);
    }
    if (viewer->settled[index - 1]) viewer->duplicate_final = true;
    viewer->settled[index - 1] = true;
    viewer->choices[index - 1] = event.question.choice;
    ++viewer->finals;
    viewer->last_final = now;
    lag_buffer().push_back({event.at, now});
  }

  void on_viewer_evicted(const engine::ViewerEvictedEvent& event) override {
    if (event.reason != engine::ViewerEvictedEvent::Reason::kMemoryShed) return;
    if (Viewer* viewer = find(event.client)) viewer->shed = true;
  }

  [[nodiscard]] std::vector<Viewer>& viewers() { return viewers_; }
  [[nodiscard]] std::uint64_t events() const { return events_.load(); }
  /// Emit lag (ms) of every final answer delivered before `input_end`
  /// whose capture time came due at or after `window_start`; `due` maps
  /// a capture instant to the wall instant it was available.
  template <typename DueFn>
  [[nodiscard]] std::vector<double> lags(const DueFn& due, Clock::time_point window_start,
                                         Clock::time_point input_end) const {
    std::vector<double> out;
    for (const auto& buffer : lag_buffers_) {
      for (const auto& [at, delivered] : *buffer) {
        if (delivered >= input_end) continue;
        const Clock::time_point available = due(at);
        if (available < window_start) continue;
        out.push_back(lag_ms(available, delivered));
      }
    }
    return out;
  }

 private:
  Viewer* find(std::string_view client) {
    const std::int64_t slot = slot_of_(client);
    if (slot < 0 || static_cast<std::size_t>(slot) >= viewers_.size()) return nullptr;
    return &viewers_[static_cast<std::size_t>(slot)];
  }

  using Delivery = std::pair<util::SimTime, Clock::time_point>;

  std::vector<Delivery>& lag_buffer() {
    // Keyed by a never-reused id, not by `this`: a later sink may live
    // at the same address while a thread still remembers the old one.
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<Delivery>* buffer = nullptr;
    if (owner != id_) {
      const std::lock_guard<std::mutex> lock(buffers_mutex_);
      lag_buffers_.push_back(std::make_unique<std::vector<Delivery>>());
      lag_buffers_.back()->reserve(viewers_.size());
      buffer = lag_buffers_.back().get();
      owner = id_;
    }
    return *buffer;
  }

  inline static std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_ = next_id_.fetch_add(1);
  std::vector<Viewer> viewers_;
  SlotOf slot_of_;
  std::atomic<std::uint64_t> events_{0};
  std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<std::vector<Delivery>>> lag_buffers_;
};

std::optional<std::uint32_t> parse_v4(std::string_view text) {
  const auto address = net::Ipv4Address::parse(text);
  if (!address) return std::nullopt;
  return address->value();
}

/// Cohort viewer i lives at cohort_client_address(i).
std::int64_t cohort_slot(std::string_view client) {
  const auto value = parse_v4(client);
  if (!value) return -1;
  const std::uint32_t base = cohort_client_address(0).value() & 0xffff0000u;
  if ((*value & 0xffff0000u) != base) return -1;
  const std::uint32_t third = (*value >> 8) & 0xff;
  const std::uint32_t fourth = *value & 0xff;
  if (fourth == 0 || fourth > 250) return -1;
  return static_cast<std::int64_t>(third * 250 + fourth - 1);
}

/// Synthetic session s XORs s into octets 1..3 of the template's
/// client address `base` (monitor::SyntheticFleetSource).
AnswerSink::SlotOf live_slot(std::uint32_t base) {
  return [base](std::string_view client) -> std::int64_t {
    const auto value = parse_v4(client);
    if (!value) return -1;
    return static_cast<std::int64_t>((*value ^ base) & 0x00ffffffu);
  };
}

// --- paced generator -----------------------------------------------------

/// Instantaneous process / generator-thread CPU and injection count at
/// one wall instant of the paced schedule.
struct Mark {
  bool set = false;
  Clock::time_point wall{};
  std::uint64_t injected = 0;
  double process_cpu = 0.0;
  double generator_cpu = 0.0;
};

struct PacedOutcome {
  std::uint64_t injected = 0;
  double inject_seconds = 0.0;
  std::size_t queue_peak = 0;
  std::vector<double> late_ms;
  Mark window_start;
  Mark window_end;
  Clock::time_point closed{};
};

/// Generator thread body: pull `source`, inject each packet into `tap`
/// once the schedule says it is due, then close the tap. Busy-waits the
/// last stretch before each due instant so pacing error stays in
/// microseconds.
void run_generator(engine::PacketSource& source, monitor::InjectableTap& tap,
                   const PacedSchedule& schedule, Clock::time_point window_start,
                   Clock::time_point window_end, PacedOutcome& out) {
  engine::PacketBatch batch;
  std::vector<net::Packet> pending;
  std::vector<Clock::time_point> due;
  auto mark = [&](Mark& m, Clock::time_point now) {
    m.set = true;
    m.wall = now;
    m.injected = out.injected;
    m.process_cpu = process_cpu_seconds();
    m.generator_cpu = thread_cpu_seconds();
  };
  while (source.read_batch(batch, kBatch) > 0) {
    pending.clear();
    due.clear();
    net::Packet* slots = batch.mutable_slots();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (slots != nullptr) {
        pending.push_back(std::move(slots[i]));
      } else {
        pending.push_back(batch[i]);
      }
      due.push_back(schedule.due(pending.back().timestamp));
    }
    std::size_t next = 0;
    while (next < pending.size()) {
      auto now = Clock::now();
      if (now < due[next]) {
        const auto wait = due[next] - now;
        if (wait > std::chrono::microseconds(300)) {
          std::this_thread::sleep_for(wait - std::chrono::microseconds(200));
        }
        while ((now = Clock::now()) < due[next]) {
        }
      }
      std::size_t end = next + 1;
      while (end < pending.size() && due[end] <= now) ++end;
      if (!out.window_start.set && due[next] >= window_start) mark(out.window_start, now);
      if (!out.window_end.set && due[next] >= window_end) mark(out.window_end, now);
      out.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due[next]).count());
      const auto inject_start = Clock::now();
      const std::size_t accepted = tap.inject_batch(pending.data() + next, end - next);
      out.inject_seconds += seconds_between(inject_start, Clock::now());
      out.injected += accepted;
      out.queue_peak = std::max(out.queue_peak, tap.queued_approx());
      next = end;
    }
  }
  if (!out.window_end.set) mark(out.window_end, Clock::now());
  if (!out.window_start.set) out.window_start = out.window_end;
  out.closed = Clock::now();
  tap.close();
}

/// Sessions, rounds and the capture->wall compression that make the
/// synthetic fleet offer `offered_pps` in steady state for about
/// `seconds` of wall time after the warm-up.
struct LivePlan {
  monitor::WorkloadConfig config;
  double compression = 1.0;
  std::uint32_t template_client = 0;
  std::size_t template_packets = 0;
};

LivePlan plan_live(std::uint64_t seed, double seconds, double offered_pps) {
  LivePlan plan;
  plan.config.concurrency = kLiveConcurrency;
  plan.config.sessions = kLiveConcurrency;
  plan.config.seed = seed;
  const monitor::SyntheticFleetSource probe(plan.config);
  const auto& tmpl = probe.session_template();
  plan.template_packets = tmpl.size();
  const double period = static_cast<double>(probe.session_period().total_nanos()) * 1e-9;
  const double capture_pps =
      static_cast<double>(kLiveConcurrency * plan.template_packets) / period;
  plan.compression = offered_pps / capture_pps;
  const double wall_period = period / plan.compression;
  const auto rounds = static_cast<std::size_t>(
      std::ceil((seconds + kLiveWarmSeconds) / wall_period)) + 1;
  plan.config.sessions = kLiveConcurrency * rounds;
  // The first frame is the template's client SYN: its IPv4 source is the
  // address sessions XOR their index into.
  const util::Bytes& syn = tmpl.front().data;
  plan.template_client = (static_cast<std::uint32_t>(syn[26]) << 24) |
                         (static_cast<std::uint32_t>(syn[27]) << 16) |
                         (static_cast<std::uint32_t>(syn[28]) << 8) | syn[29];
  return plan;
}

struct PacedRun {
  PacedOutcome generator;
  monitor::FleetStats stats;
  std::vector<double> lags;
  std::uint64_t sink_events = 0;
  Clock::time_point wall_origin{};
};

/// One open-loop run: generator thread -> InjectableTap -> MonitorFleet
/// (`shards`) -> `sink`.
PacedRun paced_run(engine::PacketSource& source, util::SimTime capture_origin,
                   double compression, const core::RecordClassifier& classifier,
                   std::size_t shards, AnswerSink& sink, double warm_seconds,
                   double window_seconds) {
  PacedRun run;
  monitor::InjectableTap tap;
  monitor::FleetConfig config;
  config.shards = shards;
  monitor::MonitorFleet fleet(classifier, config, &sink);
  fleet.attach(tap);
  run.wall_origin = Clock::now() + std::chrono::milliseconds(20);
  const PacedSchedule schedule(capture_origin, compression, run.wall_origin);
  const auto window_start =
      run.wall_origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(warm_seconds));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window_seconds));
  std::thread generator(
      [&] { run_generator(source, tap, schedule, window_start, window_end, run.generator); });
  generator.join();
  run.stats = fleet.finish();
  run.lags = sink.lags([&schedule](util::SimTime at) { return schedule.due(at); },
                       window_start, run.generator.closed);
  run.sink_events = sink.events();
  return run;
}

// --- layer suite (traced runs) -------------------------------------------

/// Capture read wrapper for unpaced fleet runs: remembers when each
/// batch left the source and the newest capture time in it, so an
/// answer's lag can be taken from the instant its capture time was
/// read. Called from the pump thread only.
class ReadClockSource final : public engine::PacketSource {
 public:
  explicit ReadClockSource(engine::PacketSource& inner) : inner_(inner) {}
  std::optional<net::Packet> next() override { return inner_.next(); }
  [[nodiscard]] std::size_t read_batch(engine::PacketBatch& out, std::size_t max) override {
    const std::size_t got = inner_.read_batch(out, max);
    const auto now = Clock::now();
    if (got > 0) {
      log_.push_back({out[got - 1].timestamp.nanos(), now});
    } else {
      end_ = now;
    }
    return got;
  }
  [[nodiscard]] const std::optional<Error>& error() const override { return inner_.error(); }

  /// Wall instant the stream first reached capture time `at`.
  [[nodiscard]] Clock::time_point read_at(util::SimTime at) const {
    const auto it = std::lower_bound(
        log_.begin(), log_.end(), at.nanos(),
        [](const auto& entry, std::int64_t nanos) { return entry.first < nanos; });
    return it == log_.end() ? end_ : it->second;
  }
  [[nodiscard]] Clock::time_point end() const { return end_; }

 private:
  engine::PacketSource& inner_;
  std::vector<std::pair<std::int64_t, Clock::time_point>> log_;
  Clock::time_point end_{};
};

struct LayerInputs {
  std::vector<CaptureParts> captures;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::size_t fleet_shards = kCohortShards;
};

struct LayerTotals {
  std::uint64_t packets = 0;
  std::uint64_t records = 0;
  std::uint64_t records_scalar = 0;
  std::vector<std::uint16_t> client_lengths;
  std::uint64_t gaps = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t skipped_bytes = 0;
  monitor::MonitorStats single;
  std::map<std::string, std::vector<core::ClientRecordObservation>> observations;
};

/// One pass of every per-packet layer call over every capture, each
/// call under its own span.
LayerTotals layer_pass(const LayerInputs& inputs, const core::RecordClassifier& classifier,
                       Tracer& tracer) {
  LayerTotals totals;
  engine::PacketBatch batch;
  net::DecodedSlab slab;
  net::PacketLens lens;
  std::vector<tls::StreamEvent> events;
  std::uint64_t unit = 0;
  std::uint64_t hash_sink = 0;
  for (std::size_t c = 0; c < inputs.captures.size(); ++c) {
    const Scope capture_span(&tracer, "layer.capture", c);
    std::unique_ptr<engine::PacketSource> source;
    {
      const Scope span(&tracer, "net.capture.open", c);
      source = open_parts(inputs.captures[c]);
    }
    tls::RecordStreamExtractor::Config extractor_config;
    extractor_config.retain_events = false;
    tls::RecordStreamExtractor batch_extractor(extractor_config);
    tls::RecordStreamExtractor scalar_extractor(extractor_config);
    monitor::ContinuousMonitor single(classifier);
    for (;;) {
      std::size_t got = 0;
      {
        const Scope span(&tracer, "net.capture.read_batch", unit);
        got = source->read_batch(batch, kBatch);
      }
      if (got == 0) break;
      totals.packets += got;
      {
        const Scope span(&tracer, "net.route.viewer_hash", unit);
        for (const net::Packet& packet : batch) {
          hash_sink += net::viewer_shard_hash(packet).value_or(0);
        }
      }
      {
        const Scope span(&tracer, "net.decode.slab", unit);
        net::decode_slab(batch.begin(), got, slab);
      }
      {
        const Scope span(&tracer, "net.decode.scalar", unit);
        for (const net::Packet& packet : batch) {
          net::decode_lens(packet, lens);
          hash_sink += lens.payload_length;
        }
      }
      events.clear();
      {
        const Scope span(&tracer, "tls.extract.batch", unit);
        batch_extractor.feed_batch(batch.begin(), got, events);
      }
      {
        const Scope span(&tracer, "tls.extract.feed", unit);
        for (const net::Packet& packet : batch) {
          totals.records_scalar += scalar_extractor.feed(packet).size();
        }
      }
      for (const tls::StreamEvent& event : events) {
        if (event.kind != tls::StreamEvent::Kind::kRecord) continue;
        ++totals.records;
        if (!event.event.is_client_application_data()) continue;
        totals.client_lengths.push_back(event.event.record_length);
        core::ClientRecordObservation observation;
        observation.timestamp = event.event.timestamp;
        observation.record_length = event.event.record_length;
        observation.after_gap = event.event.after_gap;
        totals.observations[event.flow.client.v4.to_string() + "#" + std::to_string(c)]
            .push_back(observation);
      }
      {
        const Scope span(&tracer, "monitor.feed", unit);
        for (const net::Packet& packet : batch) single.feed(packet);
      }
      ++unit;
    }
    for (const tls::StreamEvent& event : batch_extractor.flush()) {
      if (event.kind == tls::StreamEvent::Kind::kRecord) ++totals.records;
    }
    totals.records_scalar += scalar_extractor.flush().size();
    totals.gaps += batch_extractor.gaps();
    totals.resyncs += batch_extractor.tls_resyncs();
    totals.skipped_bytes += batch_extractor.tls_bytes_skipped();
    const monitor::MonitorStats stats = single.finish();
    totals.single.packets += stats.packets;
    totals.single.timer_fires += stats.timer_fires;
    totals.single.viewers_shed += stats.viewers_shed;
    totals.single.ceiling_violations += stats.ceiling_violations;
    totals.single.peak_viewers = std::max(totals.single.peak_viewers, stats.peak_viewers);
    totals.single.peak_memory_bytes =
        std::max(totals.single.peak_memory_bytes, stats.peak_memory_bytes);
  }
  keep(hash_sink);
  return totals;
}

void fill_span_metrics(const Tracer& tracer, Metrics& m) {
  static const char* const kSpans[] = {
      "layer.capture",     "net.capture.open",  "net.capture.read_batch",
      "net.capture.read_views", "net.route.viewer_hash", "net.decode.slab",
      "net.decode.scalar", "tls.extract.batch", "tls.extract.feed",
      "core.classify",     "core.decode_choices", "core.infer_capture",
      "core.infer",        "monitor.feed",      "monitor.consume",
      "fleet.consume",     "fleet.finish",      "tap.inject"};
  const auto self = tracer.self_times();
  for (const char* name : kSpans) {
    const auto it = self.find(name);
    m.set(std::string("span.") + name + ".self_ms",
          it == self.end() ? 0.0 : it->second.first * 1e-6, "ms");
  }
  m.set("trace.spans", static_cast<double>(tracer.size()), "count");
}

/// Everything the traced run measures, over one workload's inputs.
/// `paced` runs the paced tap replay; only live_paced has one, and the
/// tap, generator and emit-lag metrics read 0 on the other workloads.
void run_layer_suite(const RunOptions& options, const LayerInputs& inputs,
                     const core::AttackPipeline& pipeline, bool obs_via_infer,
                     const std::function<PacedRun()>& paced, RunResult& result) {
  const core::RecordClassifier& classifier = pipeline.classifier();
  Metrics& m = result.metrics;
  Tracer tracer(true);
  Tracer untraced(false);
  const double pkts = static_cast<double>(std::max<std::uint64_t>(inputs.packets, 1));

  // Warm the page cache and allocator; not measured.
  (void)layer_pass(inputs, classifier, untraced);

  // Layer pass untraced vs traced: the tracing overhead.
  const auto untraced_start = Clock::now();
  (void)layer_pass(inputs, classifier, untraced);
  const double untraced_s = seconds_between(untraced_start, Clock::now());
  const auto traced_start = Clock::now();
  LayerTotals totals = layer_pass(inputs, classifier, tracer);
  const double traced_s = seconds_between(traced_start, Clock::now());
  m.set("trace.overhead_ratio", traced_s / untraced_s, "ratio");

  result.attempted += 4;
  result.expect(totals.packets == inputs.packets, "layer pass packet count differs from input");
  result.expect(totals.records == totals.records_scalar,
                "slab and scalar extraction disagree on record count");
  result.expect(totals.single.packets == inputs.packets, "single monitor packet count differs");

  // Zero-copy read path.
  engine::PacketBatch batch;
  std::uint64_t viewed = 0;
  for (std::size_t c = 0; c < inputs.captures.size(); ++c) {
    auto source = open_parts(inputs.captures[c]);
    for (;;) {
      const Scope span(&tracer, "net.capture.read_views", c);
      const std::size_t got = source->read_views(batch, kBatch);
      if (got == 0) break;
      viewed += got;
    }
  }
  result.expect(viewed == inputs.packets, "read_views packet count differs from input");

  // Classification of every client record length, repeated until the
  // loop is long enough to time.
  const std::size_t classify_reps =
      1 + (1u << 22) / std::max<std::size_t>(totals.client_lengths.size(), 1);
  std::uint64_t classified = 0;
  {
    const Scope span(&tracer, "core.classify");
    for (std::size_t rep = 0; rep < classify_reps; ++rep) {
      for (const std::uint16_t length : totals.client_lengths) {
        classified += static_cast<std::uint64_t>(classifier.classify(length));
      }
    }
  }
  const double classify_calls =
      static_cast<double>(classify_reps * std::max<std::size_t>(totals.client_lengths.size(), 1));
  keep(classified);

  // Per-viewer decode over the classified observation logs.
  for (const auto& [viewer, observations] : totals.observations) {
    const Scope span(&tracer, "core.decode_choices");
    const core::InferredSession decoded =
        core::decode_choices(classifier, observations, core::DecodeOptions{});
    (void)decoded;
  }

  // Batch inference: open + infer, i.e. infer_capture split in two.
  for (std::size_t c = 0; c < inputs.captures.size(); ++c) {
    const Scope span(&tracer, "core.infer_capture", c);
    std::unique_ptr<engine::PacketSource> source;
    {
      const Scope open_span(&tracer, "net.capture.open", c);
      source = open_parts(inputs.captures[c]);
    }
    const Scope infer_span(&tracer, "core.infer", c);
    (void)pipeline.infer(*source);
  }

  // Single monitor, whole-stream consume.
  double single_s = 0.0;
  for (std::size_t c = 0; c < inputs.captures.size(); ++c) {
    auto source = open_parts(inputs.captures[c]);
    monitor::ContinuousMonitor single(classifier);
    const auto start = Clock::now();
    {
      const Scope span(&tracer, "monitor.consume", c);
      single.consume(*source);
    }
    single_s += seconds_between(start, Clock::now());
    (void)single.finish();
  }
  const double single_pps = pkts / single_s;

  // Unpaced fleet, calling thread as pump.
  monitor::FleetStats fleet_totals;
  double consume_s = 0.0;
  double finish_s = 0.0;
  std::vector<std::uint64_t> shard_packets(inputs.fleet_shards, 0);
  const double cpu_before = process_cpu_seconds();
  const auto fleet_start = Clock::now();
  for (std::size_t c = 0; c < inputs.captures.size(); ++c) {
    auto source = open_parts(inputs.captures[c]);
    monitor::FleetConfig config;
    config.shards = inputs.fleet_shards;
    monitor::MonitorFleet fleet(classifier, config);
    auto start = Clock::now();
    {
      const Scope span(&tracer, "fleet.consume", c);
      fleet.consume(*source);
    }
    consume_s += seconds_between(start, Clock::now());
    start = Clock::now();
    monitor::FleetStats stats;
    {
      const Scope span(&tracer, "fleet.finish", c);
      stats = fleet.finish();
    }
    finish_s += seconds_between(start, Clock::now());
    fleet_totals.packets += stats.packets;
    fleet_totals.packets_unroutable += stats.packets_unroutable;
    fleet_totals.merge_deferrals += stats.merge_deferrals;
    fleet_totals.backpressure_waits += stats.backpressure_waits;
    for (std::size_t s = 0; s < stats.shards.size() && s < shard_packets.size(); ++s) {
      shard_packets[s] += stats.shards[s].packets;
    }
  }
  const double fleet_wall = seconds_between(fleet_start, Clock::now());
  const double fleet_cpu = process_cpu_seconds() - cpu_before;
  result.expect(fleet_totals.packets == inputs.packets, "fleet packet count differs from input");
  const double fleet_pps = pkts / (consume_s + finish_s);
  double shard_max = 0.0;
  double shard_sum = 0.0;
  for (const std::uint64_t count : shard_packets) {
    shard_max = std::max(shard_max, static_cast<double>(count));
    shard_sum += static_cast<double>(count);
  }

  // Observability overhead: instrumented vs bare throughput.
  auto bare_or_instrumented = [&](bool instrumented) {
    obs::Registry registry;
    obs::Registry* metrics = instrumented ? &registry : nullptr;
    const auto start = Clock::now();
    for (const CaptureParts& capture : inputs.captures) {
      if (obs_via_infer) {
        // The dataset's traces, each one file.
        core::InferOptions infer_options;
        infer_options.metrics = metrics;
        (void)pipeline.infer_capture(capture.front(), infer_options);
      } else {
        auto source = open_parts(capture, metrics);
        monitor::FleetConfig config;
        config.shards = inputs.fleet_shards;
        config.monitor.metrics = metrics;
        monitor::MonitorFleet fleet(classifier, config);
        fleet.consume(*source);
        (void)fleet.finish();
      }
    }
    return pkts / seconds_between(start, Clock::now());
  };
  std::vector<double> bare;
  std::vector<double> instrumented;
  (void)bare_or_instrumented(false);  // warm-up
  for (int rep = 0; rep < 3; ++rep) {
    bare.push_back(bare_or_instrumented(false));
    instrumented.push_back(bare_or_instrumented(true));
  }

  // Paced tap replay.
  PacedRun run;
  if (paced) {
    const Scope span(&tracer, "tap.inject");
    run = paced();
    result.expect(run.stats.packets == run.generator.injected,
                  "paced fleet packet count differs from injected");
  }
  const Distribution lag = distribution(run.lags);
  const Distribution late = distribution(run.generator.late_ms);

  m.set("net.capture.open_ms", [&] {
    const auto self = tracer.self_times();
    const auto it = self.find("net.capture.open");
    return it == self.end() ? 0.0 : it->second.first * 1e-6 / static_cast<double>(it->second.second);
  }(), "ms");
  const auto self = tracer.self_times();
  auto per_packet_ns = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second.first / pkts;
  };
  m.set("net.capture.read_batch_ns_per_pkt", per_packet_ns("net.capture.read_batch"), "ns");
  m.set("net.capture.read_views_ns_per_pkt", per_packet_ns("net.capture.read_views"), "ns");
  m.set("net.route.viewer_hash_ns_per_pkt", per_packet_ns("net.route.viewer_hash"), "ns");
  m.set("net.decode.slab_ns_per_pkt", per_packet_ns("net.decode.slab"), "ns");
  m.set("net.decode.scalar_ns_per_pkt", per_packet_ns("net.decode.scalar"), "ns");
  m.set("tls.extract.batch_ns_per_pkt", per_packet_ns("tls.extract.batch"), "ns");
  m.set("tls.extract.feed_ns_per_pkt", per_packet_ns("tls.extract.feed"), "ns");
  m.set("tls.records_per_kpkt", 1e3 * static_cast<double>(totals.records) / pkts, "count");
  m.set("tls.gaps", static_cast<double>(totals.gaps), "count");
  m.set("tls.resyncs", static_cast<double>(totals.resyncs), "count");
  m.set("tls.skipped_bytes_ratio",
        static_cast<double>(totals.skipped_bytes) /
            static_cast<double>(std::max<std::uint64_t>(inputs.bytes, 1)),
        "ratio");
  const auto classify = self.find("core.classify");
  m.set("core.classify.ns_per_record",
        classify == self.end() ? 0.0 : classify->second.first / classify_calls, "ns");
  const auto decode = self.find("core.decode_choices");
  m.set("core.decode_choices.us_per_viewer",
        decode == self.end() ? 0.0
                             : decode->second.first * 1e-3 /
                                   static_cast<double>(decode->second.second),
        "us");
  const auto infer = self.find("core.infer");
  m.set("core.infer.ms_per_trace",
        infer == self.end() ? 0.0
                            : infer->second.first * 1e-6 /
                                  static_cast<double>(infer->second.second),
        "ms");
  m.set("monitor.feed_ns_per_pkt", per_packet_ns("monitor.feed"), "ns");
  m.set("monitor.single_pkts_per_s", single_pps, "1/s");
  m.set("monitor.timer_fires_per_kpkt",
        1e3 * static_cast<double>(totals.single.timer_fires) / pkts, "count");
  m.set("monitor.viewers_peak", static_cast<double>(totals.single.peak_viewers), "count");
  m.set("monitor.memory_peak_mb",
        static_cast<double>(totals.single.peak_memory_bytes) / (1024.0 * 1024.0), "MiB");
  m.set("monitor.viewers_shed", static_cast<double>(totals.single.viewers_shed), "count");
  m.set("monitor.ceiling_violations", static_cast<double>(totals.single.ceiling_violations),
        "count");
  m.set("fleet.consume_s", consume_s, "s");
  m.set("fleet.finish_s", finish_s, "s");
  m.set("fleet.backpressure_waits", static_cast<double>(fleet_totals.backpressure_waits),
        "count");
  m.set("fleet.shard_skew",
        shard_sum > 0 ? shard_max / (shard_sum / static_cast<double>(shard_packets.size()))
                      : 0.0,
        "ratio");
  m.set("fleet.unroutable", static_cast<double>(fleet_totals.packets_unroutable), "count");
  m.set("fleet.merge_deferrals", static_cast<double>(fleet_totals.merge_deferrals), "count");
  m.set("fleet.speedup_vs_single", fleet_pps / single_pps, "ratio");
  m.set("proc.cpu_cores", fleet_cpu / fleet_wall, "cores");
  m.set("tap.inject_ns_per_pkt",
        run.generator.inject_seconds * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(run.generator.injected, 1)),
        "ns");
  m.set("tap.queue_peak", static_cast<double>(run.generator.queue_peak), "count");
  m.set("gen.late_p50_ms", late.p50, "ms");
  m.set("gen.late_max_ms", late.max, "ms");
  m.set("emit_lag.p90_ms", lag.p90, "ms");
  m.set("emit_lag.p99_ms", lag.p99, "ms");
  m.set("emit_lag.samples", static_cast<double>(lag.samples), "count");
  m.set("emit_lag.supported_pct", lag.supported_pct, "pct");
  m.set("sink.events", static_cast<double>(run.sink_events), "count");
  m.set("obs.overhead_ratio", median(instrumented) / median(bare), "ratio");
  m.set("failed_ratio",
        static_cast<double>(result.failed) /
            static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
        "ratio");
  fill_span_metrics(tracer, m);
  tracer.write(options.work / ("spans-" + options.workload + "-" +
                               std::to_string(options.seed) + ".jsonl"));
}

}  // namespace

// --- dataset_scoring ------------------------------------------------------

RunResult run_dataset_scoring(const RunOptions& options) {
  RunResult result;
  const DatasetInputs inputs = ensure_dataset(options.work, options.seed);

  std::optional<core::AttackPipeline> pipeline;
  const auto set_up = [&] { pipeline.emplace(calibrate(inputs)); };
  std::vector<double> setup_samples;
  time_setup(kSetupReps, set_up, setup_samples);
  settle_memory();

  core::InferOptions infer_options;
  infer_options.shards = 0;

  // Warm-up pass: reference answers and the (deterministic) score.
  std::vector<std::vector<story::Choice>> reference;
  std::vector<core::SessionScore> scores;
  for (const TraceInput& trace : inputs.traces) {
    auto report = pipeline->infer_capture(trace.pcap, infer_options);
    ++result.attempted;
    result.expect(report.ok(), "infer_capture failed on " + trace.pcap.string());
    if (!report) {
      reference.emplace_back();
      continue;
    }
    result.expect(report->stats.packets_in == trace.count.packets,
                  "packets in != packets generated for " + trace.pcap.filename().string());
    reference.push_back(report->combined.choices());
    scores.push_back(core::score_session(trace.truth, report->combined));
  }
  const double accuracy = core::aggregate_scores(scores).pooled_accuracy;

  if (options.trace) {
    LayerInputs layer;
    for (const TraceInput& trace : inputs.traces) {
      layer.captures.push_back({trace.pcap});
      layer.bytes += trace.count.bytes;
    }
    layer.packets = inputs.packets;
    run_layer_suite(options, layer, *pipeline, true, {}, result);
    return result;
  }

  // Timed passes. Each trace's time is its best over the passes: on a
  // shared box other tenants' memory traffic slows whole runs of passes
  // by 20% and more (ALU-bound code stays within +-3%), and the
  // per-trace minimum is the estimator that sees through it. The median
  // pass rate is logged next to it, so a change that slows only some
  // calls shows there.
  RssSampler rss;
  std::vector<double> best_s(inputs.traces.size(), std::numeric_limits<double>::infinity());
  std::vector<double> pass_pps;
  const double cpu_before = process_cpu_seconds();
  const auto timed_start = Clock::now();
  double timed_s = 0.0;
  while (timed_s < options.seconds) {
    double pass_s = 0.0;
    for (std::size_t i = 0; i < inputs.traces.size(); ++i) {
      const TraceInput& trace = inputs.traces[i];
      const auto start = Clock::now();
      auto report = pipeline->infer_capture(trace.pcap, infer_options);
      const double call_s = seconds_between(start, Clock::now());
      ++result.attempted;
      if (!report) {
        result.expect(false, "infer_capture failed on " + trace.pcap.string());
        continue;
      }
      result.expect(report->stats.packets_in == trace.count.packets &&
                        report->stats.source_errors == 0,
                    "packets in != packets generated for " + trace.pcap.filename().string());
      result.expect(report->combined.choices() == reference[i],
                    "answers changed between passes for " + trace.pcap.filename().string());
      best_s[i] = std::min(best_s[i], call_s);
      pass_s += call_s;
    }
    pass_pps.push_back(static_cast<double>(inputs.packets) / pass_s);
    timed_s = seconds_between(timed_start, Clock::now());
  }
  const double cpu_cores = (process_cpu_seconds() - cpu_before) / timed_s;
  const double peak_rss_mb = rss.take_peak();
  time_setup(kSetupReps, set_up, setup_samples);

  double total_s = 0.0;
  std::vector<double> trace_ms;
  std::vector<double> answer_ms;
  for (std::size_t i = 0; i < inputs.traces.size(); ++i) {
    total_s += best_s[i];
    trace_ms.push_back(ms(best_s[i]));
    // Batch answers are delivered when the call returns; their
    // evidence was on disk when it began.
    answer_ms.insert(answer_ms.end(), reference[i].size(), ms(best_s[i]));
  }
  const double pkts_per_s = static_cast<double>(inputs.packets) / total_s;
  common_metrics(result, median(setup_samples), pkts_per_s, peak_rss_mb, accuracy,
                 distribution(trace_ms), median(answer_ms), cpu_cores);
  std::cerr << "perfbench: dataset_scoring " << pass_pps.size()
            << " timed passes; median pass rate " << median(pass_pps) << "/s ("
            << median(pass_pps) / pkts_per_s << " of the reported best-time rate); latency over "
            << trace_ms.size() << " traces (p90 supported up to p"
            << supported_percentile(trace_ms.size()) << ")\n";
  return result;
}

// --- cohort_fleet ---------------------------------------------------------

RunResult run_cohort_fleet(const RunOptions& options) {
  RunResult result;
  const DatasetInputs inputs = ensure_dataset(options.work, options.seed);
  const CohortInputs cohort = ensure_cohort(options.work, options.seed, inputs);
  for (const fs::path& part : cohort.capture) page_in(part);

  monitor::FleetConfig fleet_config;
  fleet_config.shards = kCohortShards;

  // Set-up: calibration, capture mapping, fleet construction.
  std::optional<core::AttackPipeline> pipeline;
  const auto set_up = [&] {
    pipeline.emplace(calibrate(inputs));
    auto source = open_parts(cohort.capture);
    monitor::MonitorFleet fleet(pipeline->classifier(), fleet_config);
  };
  std::vector<double> setup_samples;
  time_setup(kSetupReps, set_up, setup_samples);
  settle_memory();

  // Batch answers per viewer: the online == batch reference.
  std::vector<core::InferredSession> reference;
  for (const TraceInput& trace : inputs.traces) {
    auto report = pipeline->infer_capture(trace.pcap);
    if (!report) throw std::runtime_error("reference infer_capture failed");
    reference.push_back(std::move(report->combined));
  }
  std::size_t exempt = 0;

  if (options.trace) {
    LayerInputs layer;
    layer.captures = {cohort.capture};
    layer.packets = cohort.count.packets;
    layer.bytes = cohort.count.bytes;
    layer.fleet_shards = kCohortShards;
    run_layer_suite(options, layer, *pipeline, false, {}, result);
    return result;
  }

  const std::size_t viewers = inputs.traces.size();
  double accuracy = 0.0;
  RssSampler rss;
  struct Pass {
    double pps = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double peak_mb = 0.0;
    std::vector<double> viewer_ms;
    std::vector<double> lag_ms;
  };
  std::vector<Pass> passes;
  double timed_s = 0.0;
  const auto timed_start = Clock::now();
  // Pass 0 warms up and is not timed.
  for (int pass = 0; pass == 0 || timed_s < options.seconds; ++pass) {
    // Each pass starts from trimmed memory, so its peak is its own and
    // not the allocator fragmentation earlier passes left behind.
    settle_memory();
    (void)rss.take_peak();
    AnswerSink sink(viewers, cohort_slot);
    auto capture = open_parts(cohort.capture);
    ReadClockSource source(*capture);
    monitor::MonitorFleet fleet(pipeline->classifier(), fleet_config, &sink);
    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    fleet.consume(source);
    const monitor::FleetStats stats = fleet.finish();
    const double pass_s = seconds_between(start, Clock::now());
    const double pass_cpu = process_cpu_seconds() - cpu_before;
    const double pass_peak_mb = rss.take_peak();

    // Checks: packets, viewers, online == batch, every question final.
    result.expect(stats.packets == cohort.count.packets &&
                      stats.totals.packets == cohort.count.packets,
                  "fleet packets != packets generated");
    result.expect(stats.packets_unroutable == 0, "unroutable packets in cohort capture");
    std::vector<core::SessionScore> scores;
    std::size_t seen = 0;
    for (std::size_t v = 0; v < viewers; ++v) {
      AnswerSink::Viewer& viewer = sink.viewers()[v];
      ++result.attempted;
      if (viewer.opened > 0) ++seen;
      const std::string name = "viewer " + cohort.viewer_addresses[v];
      result.expect(viewer.finals == viewer.opened && !viewer.duplicate_final,
                    name + ": opened question without one final answer");
      result.expect(!viewer.shed, name + ": shed");
      result.expect(matches_batch(viewer.choices, reference[v],
                                  fleet_config.monitor.evidence_window, exempt),
                    name + ": online answers != batch answers");
      core::InferredSession online;
      for (std::size_t q = 0; q < viewer.choices.size(); ++q) {
        core::InferredQuestion question;
        question.index = q + 1;
        question.choice = viewer.choices[q];
        online.questions.push_back(question);
      }
      scores.push_back(core::score_session(inputs.traces[v].truth, online));
    }
    result.expect(seen >= kDatasetViewers, "cohort fleet saw fewer than 100 viewers");
    accuracy = core::aggregate_scores(scores).pooled_accuracy;
    if (pass == 0) continue;
    Pass record;
    record.pps = static_cast<double>(stats.packets) / pass_s;
    record.wall_s = pass_s;
    record.cpu_s = pass_cpu;
    record.peak_mb = pass_peak_mb;
    for (const AnswerSink::Viewer& viewer : sink.viewers()) {
      if (viewer.finals > 0) {
        record.viewer_ms.push_back(ms(seconds_between(start, viewer.last_final)));
      }
    }
    // Lag from the instant the answer's capture time was read.
    record.lag_ms = sink.lags([&source](util::SimTime at) { return source.read_at(at); },
                              start, source.end());
    passes.push_back(std::move(record));
    timed_s = seconds_between(timed_start, Clock::now());
  }

  time_setup(kSetupReps, set_up, setup_samples);

  // Report the fastest third of the timed passes: other tenants only
  // ever slow a pass down, so the fast passes are the program's speed.
  // A whole pass carries the cost of every call in it, so a slowdown in
  // some calls still shows; the median pass rate is logged as well.
  // Every per-pass figure comes from these passes: a stalled worker
  // also lets the shard rings fill, which raises that pass's peak.
  std::sort(passes.begin(), passes.end(),
            [](const Pass& a, const Pass& b) { return a.pps > b.pps; });
  const double median_pps = passes[passes.size() / 2].pps;
  const std::size_t kept = std::max<std::size_t>(1, passes.size() / 3);
  std::vector<double> pps;
  std::vector<double> peaks_mb;
  std::vector<double> viewer_ms;
  std::vector<double> lag_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  for (std::size_t i = 0; i < kept; ++i) {
    pps.push_back(passes[i].pps);
    peaks_mb.push_back(passes[i].peak_mb);
    viewer_ms.insert(viewer_ms.end(), passes[i].viewer_ms.begin(), passes[i].viewer_ms.end());
    lag_ms.insert(lag_ms.end(), passes[i].lag_ms.begin(), passes[i].lag_ms.end());
    wall_s += passes[i].wall_s;
    cpu_s += passes[i].cpu_s;
  }
  common_metrics(result, median(setup_samples), median(pps), median(peaks_mb), accuracy,
                 distribution(viewer_ms), median(lag_ms), cpu_s / wall_s);
  std::cerr << "perfbench: cohort_fleet " << passes.size() << " timed passes, " << kept
            << " reported (median pass rate " << median_pps << "/s), " << lag_ms.size()
            << " lag samples, " << exempt / (passes.size() + 1)
            << " answers exempt from online == batch (override after the evidence window)\n";
  return result;
}

// --- live_paced -----------------------------------------------------------

RunResult run_live_paced(const RunOptions& options) {
  RunResult result;
  LivePlan plan = plan_live(options.seed, options.trace ? options.seconds / 2 : options.seconds,
                            options.offered_pps);

  // Set-up per process: classifier fit, fleet construction, attach.
  // Timed before the paced run and again after it, like the dataset
  // workloads' set-up.
  std::optional<core::IntervalClassifier> classifier;
  AnswerSink setup_sink(0, live_slot(plan.template_client));
  std::vector<double> setup_samples;
  const auto time_live_setup = [&] {
    for (int rep = 0; rep < kLiveSetupReps; ++rep) {
      const auto start = Clock::now();
      classifier.emplace();
      classifier->fit(monitor::workload_calibration(plan.config));
      monitor::InjectableTap tap;
      monitor::FleetConfig config;
      config.shards = kLiveShards;
      monitor::MonitorFleet fleet(*classifier, config, &setup_sink);
      fleet.attach(tap);
      setup_samples.push_back(seconds_between(start, Clock::now()));
      tap.close();
      (void)fleet.finish();
    }
  };
  time_live_setup();
  settle_memory();

  if (options.trace) {
    // Layer inputs: the synthetic fleet written out as a capture.
    monitor::WorkloadConfig small = plan.config;
    small.sessions = kLiveConcurrency * 2;
    CaptureParts capture;
    {
      monitor::SyntheticFleetSource source(small);
      PcapPartWriter writer(options.work / ("live-" + std::to_string(options.seed)));
      engine::PacketBatch batch;
      while (source.read_batch(batch, kBatch) > 0) {
        for (const net::Packet& packet : batch) writer.write(packet);
      }
      capture = writer.finish();
    }
    LayerInputs layer;
    for (const fs::path& part : capture) {
      const CaptureCount count = count_pcap(part);
      layer.packets += count.packets;
      layer.bytes += count.bytes;
    }
    layer.captures = {capture};
    layer.fleet_shards = kLiveShards;
    core::AttackPipeline pipeline("interval");
    pipeline.calibrate(monitor::workload_calibration(plan.config));
    const auto paced = [&] {
      monitor::SyntheticFleetSource source(plan.config);
      AnswerSink sink(plan.config.sessions, live_slot(plan.template_client));
      return paced_run(source, plan.config.start, plan.compression, pipeline.classifier(),
                       kLiveShards, sink, kLiveWarmSeconds, options.seconds / 2);
    };
    run_layer_suite(options, layer, pipeline, false, paced, result);
    for (const fs::path& part : capture) fs::remove(part);
    return result;
  }

  monitor::SyntheticFleetSource source(plan.config);
  AnswerSink sink(plan.config.sessions, live_slot(plan.template_client));
  RssSampler rss;
  const PacedRun run =
      paced_run(source, plan.config.start, plan.compression, *classifier, kLiveShards, sink,
                kLiveWarmSeconds, options.seconds);
  const double peak_rss_mb = rss.take_peak();
  time_live_setup();

  // Checks and scoring against the closed-form truth.
  const std::size_t questions = plan.config.questions_per_session;
  result.expect(run.stats.packets == source.packets_total() &&
                    run.generator.injected == source.packets_total(),
                "packets delivered != packets generated");
  std::uint64_t correct = 0;
  std::vector<double> session_ms;
  const PacedSchedule schedule(plan.config.start, plan.compression, run.wall_origin);
  const auto window_start = run.generator.window_start.wall;
  for (std::size_t s = 0; s < plan.config.sessions; ++s) {
    const AnswerSink::Viewer& viewer = sink.viewers()[s];
    result.attempted += questions;
    result.expect(viewer.opened == questions, "session asked a wrong number of questions");
    result.expect(viewer.finals == viewer.opened && !viewer.duplicate_final,
                  "opened question without one final answer");
    result.expect(!viewer.shed, "viewer shed");
    for (std::size_t q = 0; q < viewer.choices.size() && q < questions; ++q) {
      const story::Choice truth = monitor::question_overridden(plan.config, q)
                                      ? story::Choice::kNonDefault
                                      : story::Choice::kDefault;
      if (viewer.settled[q] && viewer.choices[q] == truth) ++correct;
    }
    if (viewer.finals == questions && viewer.last_final < run.generator.closed &&
        schedule.due(viewer.first_question) >= window_start) {
      session_ms.push_back(ms(seconds_between(schedule.due(viewer.first_question),
                                              viewer.last_final)));
    }
  }
  const double accuracy = static_cast<double>(correct) /
                          static_cast<double>(plan.config.sessions * questions);
  const Mark& a = run.generator.window_start;
  const Mark& b = run.generator.window_end;
  const double window_s = seconds_between(a.wall, b.wall);
  const double delivered_pps = static_cast<double>(b.injected - a.injected) / window_s;
  const double cpu_cores =
      ((b.process_cpu - a.process_cpu) - (b.generator_cpu - a.generator_cpu)) / window_s;
  result.expect(delivered_pps >= 0.95 * options.offered_pps,
                "delivered rate fell below 95% of the offered rate");
  common_metrics(result, median(setup_samples), delivered_pps, peak_rss_mb, accuracy,
                 distribution(session_ms), median(run.lags), cpu_cores);
  std::cerr << "perfbench: live_paced " << plan.config.sessions << " sessions, compression x"
            << plan.compression << ", window " << window_s << " s, " << run.lags.size()
            << " lag samples\n";
  return result;
}

}  // namespace perfbench
