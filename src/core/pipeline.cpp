#include "wm/core/pipeline.hpp"

#include <stdexcept>

namespace wm::core {

namespace {

void check_options(const InferOptions& options) {
  if (options.shards != 0) {
    throw std::invalid_argument(
        "InferOptions::shards must be 0: inference runs on the calling "
        "thread (use monitor::MonitorFleet for multi-core analysis)");
  }
}

}  // namespace

AttackPipeline::AttackPipeline(std::string classifier_name)
    : classifier_(make_classifier(classifier_name)) {}

void AttackPipeline::calibrate(const std::vector<CalibrationSession>& sessions) {
  const obs::StageTimer timer(metrics_, "pipeline.calibrate");
  std::vector<LabeledObservation> labelled;
  for (const CalibrationSession& session : sessions) {
    const auto observations = extract_client_records(session.packets);
    auto session_labels = label_observations(observations, session.truth);
    labelled.insert(labelled.end(),
                    std::make_move_iterator(session_labels.begin()),
                    std::make_move_iterator(session_labels.end()));
  }
  if (metrics_ != nullptr) {
    metrics_->counter("pipeline.calibration.sessions", obs::Stability::kStable)->add(sessions.size());
    metrics_->counter("pipeline.calibration.observations", obs::Stability::kStable)->add(labelled.size());
  }
  classifier_->fit(labelled);
}

void AttackPipeline::calibrate(const std::vector<LabeledObservation>& labelled) {
  classifier_->fit(labelled);
}

bool AttackPipeline::calibrated() const { return classifier_->fitted(); }

InferReport AttackPipeline::infer(engine::PacketSource& source,
                                  const InferOptions& options) const {
  check_options(options);
  obs::Registry* registry =
      options.metrics != nullptr ? options.metrics : metrics_;
  const obs::StageTimer timer(registry, "pipeline.infer");

  ObservationLogs logs = extract_observations(
      source, options.flow_idle_timeout, options.reassembly, registry);
  InferReport report;
  report.stats = logs.stats;
  // A mid-stream source failure (truncated record, corrupt framing) is
  // a data-quality fact, not a control-flow event: count it and keep
  // everything that decoded before the stream died.
  if (source.error()) {
    ++report.stats.source_errors;
    if (registry != nullptr) {
      registry->counter("pipeline.source_errors", obs::Stability::kStable)->add(1);
    }
  }
  ViewerLog all = logs.combined();
  DecodeOptions combined_options;
  combined_options.gaps = std::move(all.gaps);
  report.combined = decode_choices(*classifier_, all.observations, combined_options);
  report.stats.type1_records = report.combined.type1_records;
  report.stats.type2_records = report.combined.type2_records;
  if (registry != nullptr) {
    // The class parts before their total: a snapshot that reads the
    // total first (map order: "...client_records" < "...other" <
    // "...type1") then the parts can never see parts < total.
    registry->counter("engine.collector.type1", obs::Stability::kStable)
        ->add(report.combined.type1_records);
    registry->counter("engine.collector.type2", obs::Stability::kStable)
        ->add(report.combined.type2_records);
    registry->counter("engine.collector.other", obs::Stability::kStable)
        ->add(report.combined.other_records);
    registry->counter("engine.collector.client_records", obs::Stability::kStable)
        ->add(report.stats.client_records);
  }
  if (options.per_client) {
    for (auto& [client, log] : logs.viewers) {
      DecodeOptions viewer_options;
      viewer_options.gaps = std::move(log.gaps);
      InferredSession session =
          decode_choices(*classifier_, log.observations, viewer_options);
      // Only report clients that look like interactive-video viewers.
      if (session.questions.empty()) continue;
      report.per_client.emplace(client, std::move(session));
    }
  }
  if (options.story != nullptr) {
    report.path = reconstruct_path(*options.story, report.combined.choices());
  }

  if (registry != nullptr) {
    registry->counter("pipeline.infer.runs", obs::Stability::kStable)->add(1);
    registry->counter("pipeline.questions", obs::Stability::kStable)
        ->add(report.combined.questions.size());
    std::uint64_t non_default = 0;
    for (const auto& question : report.combined.questions) {
      if (question.choice == story::Choice::kNonDefault) ++non_default;
    }
    registry->counter("pipeline.choices.non_default", obs::Stability::kStable)->add(non_default);
    registry->counter("pipeline.choices.default", obs::Stability::kStable)
        ->add(report.combined.questions.size() - non_default);
    registry->counter("pipeline.viewers.reported", obs::Stability::kStable)
        ->add(report.per_client.size());
    if (report.path) {
      registry->counter("pipeline.paths.reconstructed", obs::Stability::kStable)->add(1);
    }
  }
  return report;
}

Result<InferReport> AttackPipeline::infer_capture(
    const std::filesystem::path& path, const InferOptions& options) const {
  check_options(options);
  auto source = engine::open_capture(
      path, options.metrics != nullptr ? options.metrics : metrics_);
  if (!source.ok()) return source.error();
  InferReport report = infer(**source, options);
  // A corrupt tail surfaces after the stream ends, not as an exception.
  if (const auto& error = (*source)->error()) return *error;
  return report;
}

}  // namespace wm::core
