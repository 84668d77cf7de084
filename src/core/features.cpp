#include "wm/core/features.hpp"

#include <algorithm>
#include <cmath>

#include "wm/tls/record_stream.hpp"

namespace wm::core {

std::string to_string(RecordClass cls) {
  switch (cls) {
    case RecordClass::kType1Json: return "type-1 JSON";
    case RecordClass::kType2Json: return "type-2 JSON";
    case RecordClass::kOther: return "others";
  }
  return "?";
}

bool observation_before(const ClientRecordObservation& a,
                        const ClientRecordObservation& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  if (a.record_length != b.record_length) return a.record_length < b.record_length;
  return !a.after_gap && b.after_gap;
}

namespace {

/// Packets per source read: amortizes the virtual read call, and one
/// read fills exactly one of the extractor's slab-decode passes.
constexpr std::size_t kReadBatch = 256;

std::string client_key(const net::FlowKey& flow) {
  return flow.client.is_v6 ? flow.client.v6.to_string()
                           : flow.client.v4.to_string();
}

tls::RecordStreamExtractor::Config extractor_config(
    util::Duration flow_idle_timeout,
    const net::TcpStreamReassembler::Config& reassembly,
    obs::Registry* metrics) {
  tls::RecordStreamExtractor::Config out;
  out.retain_events = false;  // the observation logs are the memory
  out.idle_timeout = flow_idle_timeout;
  out.reassembly = reassembly;
  if (metrics != nullptr) {
    // The extractor's counters roll up into the stable "engine." totals
    // (which the golden corpus pins); flows.evicted stays out of them,
    // as it depends on the sweep cadence rather than on the flows.
    out.registry = metrics;
    out.metrics_scope = "engine.extractor";
    out.metrics_stability = obs::Stability::kSharded;
    out.metrics_rollup = "engine";
  }
  return out;
}

}  // namespace

ViewerLog ObservationLogs::combined() const {
  ViewerLog out;
  for (const auto& [client, log] : viewers) {
    out.observations.insert(out.observations.end(), log.observations.begin(),
                            log.observations.end());
    out.gaps.insert(out.gaps.end(), log.gaps.begin(), log.gaps.end());
  }
  std::sort(out.observations.begin(), out.observations.end(), observation_before);
  return out;
}

ObservationLogs extract_observations(
    engine::PacketSource& source, util::Duration flow_idle_timeout,
    const net::TcpStreamReassembler::Config& reassembly,
    obs::Registry* metrics) {
  const obs::StageTimer timer(metrics, "engine.consume");
  obs::Counter* packets_in_counter = nullptr;
  obs::Counter* viewers_counter = nullptr;
  obs::Counter* gaps_counter = nullptr;
  if (metrics != nullptr) {
    packets_in_counter = metrics->counter("engine.packets_in", obs::Stability::kStable);
    viewers_counter = metrics->counter("engine.collector.viewers", obs::Stability::kStable);
    gaps_counter = metrics->counter("engine.collector.gaps", obs::Stability::kStable);
  }
  tls::RecordStreamExtractor extractor(
      extractor_config(flow_idle_timeout, reassembly, metrics));
  ObservationLogs logs;
  engine::EngineStats& stats = logs.stats;

  // Records feed their viewer's observation log, client-side gaps its
  // gap log, in delivery order.
  const auto route = [&](const std::vector<tls::StreamEvent>& events) {
    for (const tls::StreamEvent& stream_event : events) {
      if (stream_event.kind == tls::StreamEvent::Kind::kGap) {
        // Only client->server holes can swallow the choice-marker
        // uploads the decoder reasons about; server-side loss is
        // decode-neutral.
        const tls::StreamGapEvent& gap = stream_event.gap;
        if (gap.direction != net::FlowDirection::kClientToServer) continue;
        logs.viewers[client_key(stream_event.flow)].gaps.push_back(
            GapSpan{gap.timestamp, gap.length});
        obs::inc(gaps_counter);
        continue;
      }
      ++stats.records;
      const tls::RecordEvent& event = stream_event.event;
      if (!event.is_client_application_data()) continue;
      auto& log = logs.viewers[client_key(stream_event.flow)].observations;
      if (log.empty()) obs::inc(viewers_counter);
      log.push_back(ClientRecordObservation{event.timestamp, event.record_length,
                                            event.after_gap});
      ++stats.client_records;
    }
  };

  std::vector<tls::StreamEvent> events;  // reused; feed_batch appends
  const auto ingest = [&](const engine::PacketBatch& batch) {
    const std::size_t count = batch.size();
    stats.packets_in += count;
    obs::inc(packets_in_counter, count);
    events.clear();
    if (batch.has_views()) {
      const net::PacketView* views = batch.views();
      for (std::size_t i = 0; i < count; ++i) stats.bytes_in += views[i].data.size();
      // stable_payload: the read_views() contract keeps the backing
      // bytes alive for the source's lifetime, which spans this call.
      extractor.feed_batch(views, count, events, /*stable_payload=*/true);
    } else {
      for (const net::Packet& packet : batch) stats.bytes_in += packet.data.size();
      extractor.feed_batch(batch.begin(), count, events);
    }
    route(events);
  };

  // A source that serves stable views keeps serving them, so after a
  // nonzero first read_views() the pass stays on it to exhaustion and
  // no frame byte is copied between the backing store and the
  // extractor. A first-call 0 means unsupported (or an already-empty
  // stream): fall back to the slot-recycling read_batch() path.
  engine::PacketBatch batch;
  if (source.read_views(batch, kReadBatch) != 0) {
    do {
      ingest(batch);
    } while (source.read_views(batch, kReadBatch) != 0);
  } else {
    while (source.read_batch(batch, kReadBatch) != 0) ingest(batch);
  }
  // End-of-capture flush: outstanding reassembly holes become gaps and
  // the TLS parsers re-lock with relaxed validation.
  route(extractor.flush());

  std::erase_if(logs.viewers, [](const auto& viewer) {
    return viewer.second.observations.empty();
  });
  for (auto& [client, log] : logs.viewers) {
    std::sort(log.observations.begin(), log.observations.end(), observation_before);
  }
  stats.packets_undecodable = extractor.packets_undecodable();
  stats.flows_opened = extractor.flows_opened();
  stats.flows_evicted = extractor.flows_evicted();
  stats.flows_completed = extractor.flows_completed();
  stats.gaps = extractor.gaps();
  stats.gap_bytes = extractor.gap_bytes();
  stats.tls_resyncs = extractor.tls_resyncs();
  stats.tls_skipped_bytes = extractor.tls_bytes_skipped();
  stats.peak_active_flows = extractor.peak_active_flows();
  stats.viewers_seen = logs.viewers.size();
  return logs;
}

std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<net::Packet>& packets) {
  engine::VectorSource source(&packets);
  return extract_observations(source).combined().observations;
}

std::vector<LabeledObservation> label_observations(
    const std::vector<ClientRecordObservation>& observations,
    const sim::SessionGroundTruth& truth, util::Duration tolerance) {
  std::vector<LabeledObservation> out;
  out.reserve(observations.size());
  for (const ClientRecordObservation& obs : observations) {
    out.push_back(LabeledObservation{obs, RecordClass::kOther});
  }

  // An upload may be carried by several back-to-back records (e.g. when
  // a record-splitting countermeasure is active). Labelling targets the
  // LAST record of the micro-burst nearest the noted time: for a
  // single-record upload that is the record itself; for a split upload
  // it is the tail fragment — the record whose length still varies with
  // the payload and therefore carries the signal.
  const util::Duration burst_gap = util::Duration::millis(5);
  auto claim_burst_tail = [&](util::SimTime target, RecordClass label) {
    std::size_t best = out.size();
    std::int64_t best_distance = tolerance.total_nanos();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].label != RecordClass::kOther) continue;  // already claimed
      const std::int64_t distance =
          std::abs((out[i].observation.timestamp - target).total_nanos());
      if (distance <= best_distance) {
        best = i;
        best_distance = distance;
      }
    }
    if (best >= out.size()) return;
    std::size_t tail = best;
    while (tail + 1 < out.size() && out[tail + 1].label == RecordClass::kOther &&
           out[tail + 1].observation.timestamp - out[tail].observation.timestamp <=
               burst_gap) {
      ++tail;
    }
    out[tail].label = label;
  };

  for (const sim::QuestionOutcome& q : truth.questions) {
    claim_burst_tail(q.question_time, RecordClass::kType1Json);
    if (q.choice == story::Choice::kNonDefault) {
      claim_burst_tail(q.decision_time, RecordClass::kType2Json);
    }
  }
  return out;
}

}  // namespace wm::core
