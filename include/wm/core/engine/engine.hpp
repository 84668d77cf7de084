// wm::engine — the batch analysis engine.
//
// The batch AttackPipeline runs every capture through this engine, on
// the calling thread: one TLS record-stream extractor reassembles each
// TCP flow and parses its records, every client application record is
// classified into its viewer's observation log, and finish() decodes
// each viewer and the whole capture.
//
//     PacketSource --read_views / read_batch--> RecordStreamExtractor
//       (slab decode -> reassemble -> TLS records) -> classify
//       -> per-viewer observation + gap logs
//     finish(): flush, sort, per-viewer + combined choice decode
//
// Multi-core analysis is monitor::MonitorFleet's job: viewer-sharded
// monitors fed from a pull source, whose per-viewer answers equal this
// engine's (tests/test_monitor_fleet.cpp against the single monitor,
// tests/test_monitor.cpp against the batch pipeline).
//
// Determinism: choice decoding runs on each log sorted by
// core::observation_before, the order the batch feature path
// (core::extract_client_records) sorts in too, not on the order flows
// delivered their records. The engine produces no live events: answers
// as they happen come from monitor::ContinuousMonitor / MonitorFleet.
#pragma once

#include <cstdint>
#include <map>
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
  /// Evict per-flow analysis state idle longer than this. Zero = never
  /// (batch semantics). Classified observations survive eviction; only
  /// reassembly/parser state is freed.
  util::Duration flow_idle_timeout{};
  /// Per-flow TCP reassembly tuning (reorder window before a hole is
  /// declared dead, buffer budget) applied by the extractor.
  net::TcpStreamReassembler::Config reassembly;
  /// Observability (wm::obs): when set, every stage registers live
  /// counters/timers here — the extractor's counters (stable "engine."
  /// totals over an "engine.extractor." breakdown), the observation
  /// logs' "engine.collector." totals and stage timings. Null = zero
  /// overhead. The registry must outlive the engine; snapshots may be
  /// taken from any thread while the engine runs.
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
  /// The classifier must already be fitted and must outlive the engine.
  explicit ShardedFlowEngine(const core::RecordClassifier& classifier,
                             EngineConfig config = {});

  ShardedFlowEngine(const ShardedFlowEngine&) = delete;
  ShardedFlowEngine& operator=(const ShardedFlowEngine&) = delete;

  /// Pull `source` to exhaustion. Probes the zero-copy read_views()
  /// path once; if the source serves stable views (mmap capture,
  /// in-memory vector) every frame flows through untouched — the
  /// extractor reassembles borrowed spans — and the source must stay
  /// alive until finish() returns. Otherwise falls back to the
  /// read_batch() slot-recycling path. Returns packets fed.
  std::size_t consume(PacketSource& source);

  /// Flush every live flow and produce the final result. The engine
  /// cannot be fed afterwards.
  EngineResult finish();

 private:
  /// Analyze one batch read from a source (views or packets).
  void ingest(const PacketBatch& batch);
  /// Route one extractor call's deliveries in order: records feed
  /// their viewer's observation log, client-side gaps its gap log.
  void handle_events(const std::vector<tls::StreamEvent>& events);

  const core::RecordClassifier& classifier_;
  EngineConfig config_;
  tls::RecordStreamExtractor extractor_;
  /// Scratch reused across batches (feed_batch appends into it).
  std::vector<tls::StreamEvent> events_;
  /// Per-viewer observation logs, keyed by client address.
  std::map<std::string, std::vector<core::ClientRecordObservation>>
      observations_;
  /// Per-viewer gap timelines, parallel to observations_ (a viewer may
  /// have gaps before — or without — any decodable observation).
  std::map<std::string, std::vector<core::GapSpan>> gaps_;
  std::uint64_t packets_in_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t client_records_ = 0;
  std::uint64_t type1_ = 0;
  std::uint64_t type2_ = 0;
  // Observability handles (null when EngineConfig::metrics is null).
  obs::Counter* packets_in_counter_ = nullptr;
  obs::Counter* client_records_counter_ = nullptr;
  obs::Counter* type1_counter_ = nullptr;
  obs::Counter* type2_counter_ = nullptr;
  obs::Counter* other_counter_ = nullptr;
  obs::Counter* viewers_counter_ = nullptr;
  obs::Counter* gaps_counter_ = nullptr;
};

/// One-call convenience: run `source` through an engine.
EngineResult analyze(const core::RecordClassifier& classifier,
                     PacketSource& source, EngineConfig config = {});

}  // namespace wm::engine
