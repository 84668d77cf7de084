// Operational-condition fingerprinting: which (OS, browser, ...) was
// the victim running?
//
// The calibration-scope ablation shows a single pooled classifier
// degrades because JSON bands and "other" traffic collide ACROSS
// conditions. A stronger attacker keeps one per-condition classifier
// (a library built once, offline) and first identifies the victim's
// condition from the capture itself: the true condition's bands catch
// a small, structurally consistent set of records (1..N type-1,
// type-2 <= type-1, one type-1 per question), while wrong conditions
// catch either nothing (their bands fall in this condition's guard
// gaps) or only stray telemetry records. This module
// scores every library entry and attacks with the best match —
// removing the paper's implicit "attacker knows the platform"
// assumption.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/pipeline.hpp"
#include "wm/sim/profile.hpp"

namespace wm::core {

/// One calibrated entry of the attacker's library.
struct FingerprintEntry {
  sim::OperationalConditions conditions;
  std::shared_ptr<AttackPipeline> pipeline;
};

/// Plausibility of one condition hypothesis against an observation set.
struct FingerprintScore {
  sim::OperationalConditions conditions;
  std::size_t type1_hits = 0;
  std::size_t type2_hits = 0;
  bool plausible = false;  // structural constraints satisfied
  /// Lower is better among plausible hypotheses: the negative of the
  /// structure explained (type-1 hits + 2 x type-2 hits).
  double penalty = 0.0;
};

class ConditionFingerprinter {
 public:
  /// Add a calibrated per-condition pipeline to the library.
  void add(sim::OperationalConditions conditions,
           std::shared_ptr<AttackPipeline> pipeline);

  /// Build a full library by simulating calibration sessions for each
  /// given condition (the attacker can do this offline with their own
  /// devices). `sessions_per_condition` controls band coverage.
  static ConditionFingerprinter build_library(
      const story::StoryGraph& graph,
      const std::vector<sim::OperationalConditions>& conditions,
      std::size_t sessions_per_condition, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return library_.size(); }

  /// Score every hypothesis against the observations (sorted, best
  /// first: plausible before implausible, then ascending penalty).
  [[nodiscard]] std::vector<FingerprintScore> score(
      const std::vector<ClientRecordObservation>& observations) const;

  /// Identify the victim's condition; nullopt when no hypothesis is
  /// plausible (e.g. a countermeasure destroyed the bands).
  [[nodiscard]] std::optional<sim::OperationalConditions> identify(
      const std::vector<ClientRecordObservation>& observations) const;

  /// Full attack without prior platform knowledge: fingerprint, then
  /// decode with the matched per-condition classifier — the same
  /// observations and gap spans the matched pipeline's infer() decodes
  /// as its combined session.
  struct [[nodiscard]] Result {
    std::optional<sim::OperationalConditions> conditions;
    InferredSession session;
  };
  [[nodiscard]] Result infer(const std::vector<net::Packet>& packets) const;

 private:
  std::vector<FingerprintEntry> library_;
};

}  // namespace wm::core
