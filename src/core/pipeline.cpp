#include "wm/core/pipeline.hpp"

namespace wm::core {

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
  obs::Registry* registry =
      options.metrics != nullptr ? options.metrics : metrics_;
  const obs::StageTimer timer(registry, "pipeline.infer");

  engine::EngineConfig config;
  config.shards = options.shards;
  config.flow_idle_timeout = options.flow_idle_timeout;
  config.reassembly = options.reassembly;
  config.metrics = registry;
  engine::EngineResult result = engine::analyze(*classifier_, source, config);

  InferReport report;
  report.combined = std::move(result.combined);
  report.stats = result.stats;
  // A mid-stream source failure (truncated record, corrupt framing) is
  // a data-quality fact, not a control-flow event: count it and keep
  // everything that decoded before the stream died.
  if (source.error()) {
    ++report.stats.source_errors;
    if (registry != nullptr) {
      registry->counter("pipeline.source_errors", obs::Stability::kStable)->add(1);
    }
  }
  if (options.per_client) {
    for (auto& [client, session] : result.per_client) {
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
  auto source = engine::open_capture(
      path, options.metrics != nullptr ? options.metrics : metrics_);
  if (!source.ok()) return source.error();
  InferReport report = infer(**source, options);
  // A corrupt tail surfaces after the stream ends, not as an exception.
  if (const auto& error = (*source)->error()) return *error;
  return report;
}

}  // namespace wm::core
