// Choice decoding: from classified record events to the viewer's
// choice sequence (and, with the script graph, their path).
//
// §III: "the number and type of JSON files sent indicate the choice
// made by the viewer" — each type-1 JSON marks a question appearing;
// a type-2 JSON before the next type-1 means the viewer overrode the
// default at that question.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/classifier.hpp"
#include "wm/core/features.hpp"
#include "wm/story/graph.hpp"

namespace wm::core {

/// One decoded question event.
struct InferredQuestion {
  std::size_t index = 0;  // 1-based appearance order
  util::SimTime question_time;
  story::Choice choice = story::Choice::kDefault;
  std::optional<util::SimTime> override_time;  // set for non-default
  /// 1.0 = every supporting record parsed from contiguous stream bytes.
  /// Lowered (never raised) when loss touched the evidence — see
  /// ChoiceDecoder for the taint rules.
  double confidence = 1.0;
  /// Semicolon-joined tags explaining each confidence reduction
  /// ("type1_after_gap", "type2_presumed_lost_type1", "gap_in_window").
  std::string evidence;
};

/// Full inference result for one session.
struct InferredSession {
  std::vector<InferredQuestion> questions;
  /// Classified observations, for diagnostics.
  std::size_t type1_records = 0;
  std::size_t type2_records = 0;
  std::size_t other_records = 0;

  [[nodiscard]] std::vector<story::Choice> choices() const;
};

/// Duplicate-suppression window for adjacent type-1 classifications
/// (retransmission artifacts / band misfires).
inline constexpr util::Duration kMinQuestionGap = util::Duration::millis(120);
/// A gap this close before a question — or anywhere before the next
/// question — may have swallowed one of its markers.
inline constexpr util::Duration kGapWindow = util::Duration::seconds(1);
/// Confidence when the anchoring record itself parsed right after a
/// gap/resync, and for questions synthesized from an orphaned type-2.
inline constexpr double kAfterGapConfidence = 0.5;
/// Confidence cap when a gap merely falls inside a question's window.
inline constexpr double kGapWindowConfidence = 0.6;

/// One viewer's incremental choice decoder — the single implementation
/// of the §III rule and its gap taints:
///  * a type-1 opens a question (duplicates within kMinQuestionGap are
///    suppressed); one marked after_gap opens it at reduced confidence;
///  * the first type-2 before the next question flips it to
///    non-default;
///  * a type-2 with a gap between it and the last question anchor
///    synthesizes a new low-confidence non-default question (the type-1
///    that should anchor it was presumably lost) instead of crediting
///    the override to the previous question at full confidence;
///  * when a question settles, a gap from kGapWindow before it up to its
///    successor (or anywhere seen so far, without one) caps its
///    confidence.
///
/// Feed gaps and classified records in capture order. The decoder opens,
/// overrides and synthesizes; the caller decides when the open question
/// settles — except that opening a successor always settles its
/// predecessor first, which add_record() hands back.
class ChoiceDecoder {
 public:
  /// What one record did to the open question.
  enum class Effect : std::uint8_t {
    kNone,         // other, duplicate type-1, or a type-2 with nothing to flip
    kOpened,       // a type-1 opened a question at the default
    kOverridden,   // a type-2 flipped the open question to non-default
    kSynthesized,  // a type-2 after a hole opened a non-default question
  };
  struct Step {
    Effect effect = Effect::kNone;
    /// The predecessor, settled because this record opened a successor.
    std::optional<InferredQuestion> settled;
  };

  ChoiceDecoder() = default;  // no gap history
  /// Keeps at most `gap_capacity` gaps; once full, the earliest recorded
  /// falls off first. Zero keeps no gap history. The ring is allocated,
  /// at exactly `gap_capacity`, by the first add_gap().
  explicit ChoiceDecoder(std::size_t gap_capacity);

  void add_gap(GapSpan gap);
  Step add_record(const ClientRecordObservation& observation, RecordClass cls);

  /// Close the open question now and return it, tainted if a gap seen so
  /// far falls in its window. Requires has_open().
  InferredQuestion settle();

  [[nodiscard]] bool has_open() const { return open_; }
  /// The open question as currently decoded. Requires has_open().
  [[nodiscard]] const InferredQuestion& question() const { return question_; }
  /// Questions opened over the decoder's lifetime (the last index).
  [[nodiscard]] std::size_t questions_opened() const { return opened_; }
  /// Heap bytes held by the gap ring: zero until the first gap, then
  /// gap_capacity * sizeof(GapSpan) for the decoder's life.
  [[nodiscard]] std::size_t memory_bytes() const {
    return gaps_.capacity() * sizeof(GapSpan);
  }

 private:
  std::optional<InferredQuestion> open_at(util::SimTime at);
  InferredQuestion settle_before(std::optional<util::SimTime> next_question_at);

  std::optional<util::SimTime> last_type1_;   // duplicate suppression
  // The last question anchor — a real type-1 *or* a synthesized orphan.
  // Separate from last_type1_ so synthesis never feeds suppression.
  std::optional<util::SimTime> last_anchor_;
  InferredQuestion question_;
  std::size_t opened_ = 0;
  bool open_ = false;
  /// Gap ring. Gaps need not arrive in time order (an end-of-capture
  /// flush emits flow by flow), so scans never stop early.
  std::vector<GapSpan> gaps_;
  std::size_t gap_capacity_ = 0;
  std::size_t gap_head_ = 0;
};

/// Stream gaps for a batch decode.
struct DecodeOptions {
  /// Gaps affecting this viewer's traffic, in any order (the decoder
  /// sorts a copy).
  std::vector<GapSpan> gaps;
};

/// Decode a whole classified observation sequence: drive one
/// ChoiceDecoder over the observations with the gaps merged in by time,
/// settling each question when its successor opens or the log ends.
InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    const DecodeOptions& options = {});

/// Map a decoded choice sequence onto the script graph, recovering the
/// segments the viewer watched (the paper's behavioural payload).
struct InferredPath {
  std::vector<story::SegmentId> segments;
  std::vector<std::string> segment_names;
  bool reached_ending = false;
  /// Graph traversal consumed fewer choices than inferred (signals
  /// over-detection) or more (under-detection).
  std::int64_t choice_surplus = 0;
};

InferredPath reconstruct_path(const story::StoryGraph& graph,
                              const std::vector<story::Choice>& choices);

}  // namespace wm::core
