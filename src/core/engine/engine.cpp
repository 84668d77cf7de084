#include "wm/core/engine/engine.hpp"

#include <algorithm>
#include <sstream>

#include "wm/core/features.hpp"
#include "wm/net/flow.hpp"

namespace wm::engine {

std::string EngineStats::to_string() const {
  std::ostringstream out;
  out << "packets=" << packets_in << " bytes=" << bytes_in
      << " records=" << records << " client_records=" << client_records
      << " type1=" << type1_records << " type2=" << type2_records
      << " viewers=" << viewers_seen << " flows=" << flows_opened
      << " evicted=" << flows_evicted << " completed=" << flows_completed
      << " peak_flows=" << peak_active_flows
      << " gaps=" << gaps << " gap_bytes=" << gap_bytes
      << " resyncs=" << tls_resyncs << " tls_skipped=" << tls_skipped_bytes
      << " source_errors=" << source_errors;
  return out.str();
}

namespace {

/// Packets per source read: amortizes the virtual read call, and one
/// read fills exactly one of the extractor's slab-decode passes.
constexpr std::size_t kReadBatch = 256;

/// Deterministic gap timeline order (one viewer's flows deliver their
/// gaps interleaved).
bool gap_before(const core::GapSpan& a, const core::GapSpan& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.bytes < b.bytes;
}

std::string client_key(const net::FlowKey& flow) {
  return flow.client.is_v6 ? flow.client.v6.to_string()
                           : flow.client.v4.to_string();
}

tls::RecordStreamExtractor::Config extractor_config(const EngineConfig& config) {
  tls::RecordStreamExtractor::Config out;
  out.retain_events = false;  // the observation logs are the memory
  out.idle_timeout = config.flow_idle_timeout;
  out.reassembly = config.reassembly;
  if (config.metrics != nullptr) {
    // The extractor's counters roll up into the stable "engine." totals
    // (which the golden corpus pins); flows.evicted stays out of them,
    // as it depends on the sweep cadence rather than on the flows.
    out.registry = config.metrics;
    out.metrics_scope = "engine.extractor";
    out.metrics_stability = obs::Stability::kSharded;
    out.metrics_rollup = "engine";
  }
  return out;
}

}  // namespace

ShardedFlowEngine::ShardedFlowEngine(const core::RecordClassifier& classifier,
                                     EngineConfig config)
    : classifier_(classifier),
      config_(config),
      extractor_(extractor_config(config_)) {
  if (obs::Registry* metrics = config_.metrics; metrics != nullptr) {
    packets_in_counter_ = metrics->counter("engine.packets_in", obs::Stability::kStable);
    client_records_counter_ = metrics->counter("engine.collector.client_records", obs::Stability::kStable);
    type1_counter_ = metrics->counter("engine.collector.type1", obs::Stability::kStable);
    type2_counter_ = metrics->counter("engine.collector.type2", obs::Stability::kStable);
    other_counter_ = metrics->counter("engine.collector.other", obs::Stability::kStable);
    viewers_counter_ = metrics->counter("engine.collector.viewers", obs::Stability::kStable);
    gaps_counter_ = metrics->counter("engine.collector.gaps", obs::Stability::kStable);
  }
}

void ShardedFlowEngine::ingest(const PacketBatch& batch) {
  const std::size_t count = batch.size();
  packets_in_ += count;
  obs::inc(packets_in_counter_, count);
  events_.clear();
  if (batch.has_views()) {
    const net::PacketView* views = batch.views();
    for (std::size_t i = 0; i < count; ++i) bytes_in_ += views[i].data.size();
    // stable_payload: the read_views() contract keeps the backing bytes
    // alive for the source's lifetime (which outlives finish() — see
    // consume()), so reassembly buffers borrowed spans instead of
    // copying out-of-order segments.
    extractor_.feed_batch(views, count, events_, /*stable_payload=*/true);
  } else {
    for (const net::Packet& packet : batch) bytes_in_ += packet.data.size();
    extractor_.feed_batch(batch.begin(), count, events_);
  }
  handle_events(events_);
}

void ShardedFlowEngine::handle_events(
    const std::vector<tls::StreamEvent>& events) {
  for (const tls::StreamEvent& stream_event : events) {
    if (stream_event.kind == tls::StreamEvent::Kind::kGap) {
      // Only client->server holes can swallow the choice-marker uploads
      // the decoder reasons about; server-side loss is decode-neutral.
      const tls::StreamGapEvent& gap = stream_event.gap;
      if (gap.direction != net::FlowDirection::kClientToServer) continue;
      gaps_[client_key(stream_event.flow)].push_back(
          core::GapSpan{gap.timestamp, gap.length});
      obs::inc(gaps_counter_);
      continue;
    }

    ++records_;
    const tls::RecordEvent& event = stream_event.event;
    if (!event.is_client_application_data()) continue;

    core::ClientRecordObservation observation;
    observation.timestamp = event.timestamp;
    observation.record_length = event.record_length;
    observation.after_gap = event.after_gap;
    auto& log = observations_[client_key(stream_event.flow)];
    if (log.empty()) obs::inc(viewers_counter_);
    log.push_back(observation);
    ++client_records_;
    // Per-class counters before the total: a snapshot that reads the
    // total first (map order: "...client_records" < "...other" <
    // "...type1") then the parts can never see parts < total.
    switch (classifier_.classify(event.record_length)) {
      case core::RecordClass::kType1Json:
        ++type1_;
        obs::inc(type1_counter_);
        break;
      case core::RecordClass::kType2Json:
        ++type2_;
        obs::inc(type2_counter_);
        break;
      case core::RecordClass::kOther:
        obs::inc(other_counter_);
        break;
    }
    obs::inc(client_records_counter_);
  }
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
  // stream) — fall back to the slot-recycling read_batch() path. Both
  // reads clear the batch before refilling it.
  if (source.read_views(batch, kReadBatch) != 0) {
    do {
      total += batch.size();
      ingest(batch);
    } while (source.read_views(batch, kReadBatch) != 0);
    return total;
  }
  while (source.read_batch(batch, kReadBatch) != 0) {
    total += batch.size();
    ingest(batch);
  }
  return total;
}

EngineResult ShardedFlowEngine::finish() {
  const obs::StageTimer timer(config_.metrics, "engine.finish");
  // End-of-capture flush: every live flow's outstanding reassembly
  // holes become gaps and the TLS parsers re-lock with relaxed
  // validation, so records cut off mid-capture still reach the logs.
  handle_events(extractor_.flush());

  // Sorting each viewer's log then decoding reproduces the batch
  // feature path's observation order exactly.
  EngineResult result;
  std::vector<core::ClientRecordObservation> all;
  std::vector<core::GapSpan> all_gaps;
  for (auto& [client, observations] : observations_) {
    std::sort(observations.begin(), observations.end(),
              core::observation_before);
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
  std::sort(all.begin(), all.end(), core::observation_before);
  core::DecodeOptions combined_options;
  combined_options.gaps = std::move(all_gaps);
  std::sort(combined_options.gaps.begin(), combined_options.gaps.end(),
            gap_before);
  result.combined = core::decode_choices(classifier_, all, combined_options);

  EngineStats& stats = result.stats;
  stats.packets_in = packets_in_;
  stats.bytes_in = bytes_in_;
  stats.packets_undecodable = extractor_.packets_undecodable();
  stats.records = records_;
  stats.client_records = client_records_;
  stats.type1_records = type1_;
  stats.type2_records = type2_;
  stats.flows_opened = extractor_.flows_opened();
  stats.flows_evicted = extractor_.flows_evicted();
  stats.flows_completed = extractor_.flows_completed();
  stats.gaps = extractor_.gaps();
  stats.gap_bytes = extractor_.gap_bytes();
  stats.tls_resyncs = extractor_.tls_resyncs();
  stats.tls_skipped_bytes = extractor_.tls_bytes_skipped();
  stats.peak_active_flows = extractor_.peak_active_flows();
  stats.viewers_seen = observations_.size();
  return result;
}

EngineResult analyze(const core::RecordClassifier& classifier,
                     PacketSource& source, EngineConfig config) {
  ShardedFlowEngine engine(classifier, config);
  engine.consume(source);
  return engine.finish();
}

}  // namespace wm::engine
