#include "wm/core/fingerprint.hpp"

#include <algorithm>

#include "wm/sim/session.hpp"

namespace wm::core {

void ConditionFingerprinter::add(sim::OperationalConditions conditions,
                                 std::shared_ptr<AttackPipeline> pipeline) {
  library_.push_back(FingerprintEntry{conditions, std::move(pipeline)});
}

ConditionFingerprinter ConditionFingerprinter::build_library(
    const story::StoryGraph& graph,
    const std::vector<sim::OperationalConditions>& conditions,
    std::size_t sessions_per_condition, std::uint64_t seed) {
  ConditionFingerprinter out;
  std::vector<story::Choice> alternating;
  for (int i = 0; i < 13; ++i) {
    alternating.push_back(i % 2 == 0 ? story::Choice::kNonDefault
                                     : story::Choice::kDefault);
  }

  std::uint64_t next_seed = seed;
  for (const sim::OperationalConditions& condition : conditions) {
    std::vector<CalibrationSession> calibration;
    for (std::size_t s = 0; s < sessions_per_condition; ++s) {
      sim::SessionConfig config;
      config.conditions = condition;
      config.seed = next_seed++;
      auto session = sim::simulate_session(graph, alternating, config);
      calibration.push_back(CalibrationSession{
          std::move(session.capture.packets), std::move(session.truth)});
    }
    auto pipeline = std::make_shared<AttackPipeline>("interval");
    pipeline->calibrate(calibration);
    out.add(condition, std::move(pipeline));
  }
  return out;
}

std::vector<FingerprintScore> ConditionFingerprinter::score(
    const std::vector<ClientRecordObservation>& observations) const {
  std::vector<FingerprintScore> scores;
  scores.reserve(library_.size());

  for (const FingerprintEntry& entry : library_) {
    FingerprintScore score;
    score.conditions = entry.conditions;
    for (const ClientRecordObservation& obs : observations) {
      switch (entry.pipeline->classifier().classify(obs.record_length)) {
        case RecordClass::kType1Json: ++score.type1_hits; break;
        case RecordClass::kType2Json: ++score.type2_hits; break;
        case RecordClass::kOther: break;
      }
    }
    // Structural constraints of the Fig. 1 protocol: at least one
    // question; never more overrides than questions; a film has a
    // bounded number of questions per session.
    const std::size_t question_cap = 64;
    score.plausible = score.type1_hits >= 1 &&
                      score.type1_hits <= question_cap &&
                      score.type2_hits <= score.type1_hits;
    // The true condition explains the most protocol structure: one
    // type-1 per question plus type-2 overrides. Impostor bands catch
    // at most the occasional stray telemetry record. Type-2 hits weigh
    // double — they only exist when the band layout matches the
    // protocol. Lower penalty = better.
    score.penalty = -static_cast<double>(score.type1_hits + 2 * score.type2_hits);
    scores.push_back(score);
  }

  std::stable_sort(scores.begin(), scores.end(),
                   [](const FingerprintScore& a, const FingerprintScore& b) {
                     if (a.plausible != b.plausible) return a.plausible;
                     return a.penalty < b.penalty;
                   });
  return scores;
}

std::optional<sim::OperationalConditions> ConditionFingerprinter::identify(
    const std::vector<ClientRecordObservation>& observations) const {
  const auto scores = score(observations);
  if (scores.empty() || !scores.front().plausible) return std::nullopt;
  return scores.front().conditions;
}

ConditionFingerprinter::Result ConditionFingerprinter::infer(
    const std::vector<net::Packet>& packets) const {
  Result result;
  // The evidence infer() decodes: every viewer as one stream, with the
  // client gap spans beside it.
  engine::VectorSource source(&packets);
  ViewerLog evidence = extract_observations(source).combined();
  result.conditions = identify(evidence.observations);
  if (!result.conditions) return result;
  for (const FingerprintEntry& entry : library_) {
    if (entry.conditions == *result.conditions) {
      DecodeOptions options;
      options.gaps = std::move(evidence.gaps);
      result.session = decode_choices(entry.pipeline->classifier(),
                                      evidence.observations, options);
      break;
    }
  }
  return result;
}

}  // namespace wm::core
