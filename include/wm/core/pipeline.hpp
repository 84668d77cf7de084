// End-to-end attack pipeline: packets (from any PacketSource) in,
// inferred choices out. Bundles calibration (training sessions ->
// fitted classifier) and inference (capture -> observations ->
// classify -> decode -> optional path reconstruction). Both phases
// reach the client records through core::extract_observations, the one
// packets-to-observations path (features.hpp).
//
// The inference surface is a single entry point,
//
//     InferReport infer(engine::PacketSource&, const InferOptions&)
//
// whose options carry every knob that used to multiply overloads:
// per-client splitting, story-graph path reconstruction and flow
// eviction. It runs on the calling thread and produces no live events;
// those come from wm::monitor::ContinuousMonitor / MonitorFleet.
// File-based inference goes through infer_capture(), which reports
// typed errors. The historic vector/path convenience overloads are
// gone; wrap a vector in engine::VectorSource and set
// options.per_client instead (migration notes in CHANGES.md).
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/decoder.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/engine/stats.hpp"
#include "wm/core/eval.hpp"
#include "wm/core/features.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/session.hpp"
#include "wm/util/result.hpp"

namespace wm::core {

/// A calibration example: one captured session with noted choices.
struct CalibrationSession {
  std::vector<net::Packet> packets;
  sim::SessionGroundTruth truth;
};

/// Every inference knob in one place, so new capabilities extend this
/// struct instead of adding overloads.
struct InferOptions {
  /// Must be 0: infer() runs on the calling thread, and any other value
  /// throws std::invalid_argument before the source is read. The field
  /// remains so callers that set it to 0 (perfbench's dataset_scoring
  /// among them) keep compiling. Multi-core analysis is
  /// monitor::MonitorFleet fed from a pull source, whose per-viewer
  /// answers equal infer()'s per_client ones.
  std::size_t shards = 0;
  /// Also decode each viewer (client endpoint) separately; fills
  /// InferReport::per_client with viewers that produced questions.
  bool per_client = false;
  /// When set, reconstruct the watched path through this story graph
  /// from the combined choice sequence; fills InferReport::path.
  const story::StoryGraph* story = nullptr;
  /// Evict per-flow reassembly and parser state idle longer than this
  /// (0 = never, batch semantics). Observations survive eviction.
  util::Duration flow_idle_timeout{};
  /// Per-flow TCP reassembly tuning: reorder window (bytes/segments)
  /// before a head-of-line hole is declared a StreamGap, and the
  /// out-of-order buffer budget. Defaults suit clean-to-moderately
  /// lossy captures; shrink the windows to trade recovery latency for
  /// memory on heavily impaired taps.
  net::TcpStreamReassembler::Config reassembly;
  /// Observability (wm::obs): registry every stage reports into —
  /// pipeline decode totals, engine counters, capture source counters,
  /// stage timings. Null (the default) means no instrumentation and no
  /// overhead. Overrides the registry installed
  /// with AttackPipeline::set_metrics() for this run.
  obs::Registry* metrics = nullptr;
};

/// Everything one inference run produced.
struct InferReport {
  /// Whole-capture decode (all viewers as one stream).
  InferredSession combined;
  /// Per-viewer decode, keyed by client address; only viewers whose
  /// traffic contained questions (InferOptions::per_client).
  std::map<std::string, InferredSession> per_client;
  /// Path reconstruction of `combined` (InferOptions::story).
  std::optional<InferredPath> path;
  engine::EngineStats stats;
};

class AttackPipeline {
 public:
  /// `classifier_name`: "interval" (paper's method), "knn" or
  /// "gaussian-nb".
  explicit AttackPipeline(std::string classifier_name = "interval");

  /// Fit the classifier from calibration sessions (traces + ground
  /// truth, as the IITM dataset provides).
  void calibrate(const std::vector<CalibrationSession>& sessions);

  /// Fit directly from pre-labelled observations.
  void calibrate(const std::vector<LabeledObservation>& labelled);

  [[nodiscard]] bool calibrated() const;
  [[nodiscard]] const RecordClassifier& classifier() const { return *classifier_; }

  /// Install a default metrics registry: calibrate() and every infer
  /// call without InferOptions::metrics report here. The registry must
  /// outlive the pipeline (or a subsequent set_metrics(nullptr)).
  void set_metrics(obs::Registry* metrics) { metrics_ = metrics; }
  [[nodiscard]] obs::Registry* metrics() const { return metrics_; }

  /// Run inference on a packet stream, on the calling thread. The
  /// source is consumed. Throws std::invalid_argument for a nonzero
  /// options.shards; never throws for stream problems: a source that
  /// ends in error still yields whatever decoded before it, with
  /// stats.source_errors set.
  [[nodiscard]] InferReport infer(engine::PacketSource& source,
                                  const InferOptions& options = {}) const;

  /// Open a capture file (classic pcap or pcapng) and infer. Failures
  /// — missing file, unknown format, corrupt contents — come back as
  /// typed errors instead of exceptions; a nonzero options.shards
  /// throws std::invalid_argument, as in infer().
  [[nodiscard]] Result<InferReport> infer_capture(
      const std::filesystem::path& path, const InferOptions& options = {}) const;

 private:
  std::unique_ptr<RecordClassifier> classifier_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace wm::core
