#include "wm/core/decoder.hpp"

#include <algorithm>
#include <cassert>

namespace wm::core {

std::vector<story::Choice> InferredSession::choices() const {
  std::vector<story::Choice> out;
  out.reserve(questions.size());
  for (const InferredQuestion& q : questions) out.push_back(q.choice);
  return out;
}

namespace {

/// Lower a question's confidence (min-combine) and record why.
void taint(InferredQuestion& question, double confidence, const char* tag) {
  question.confidence = std::min(question.confidence, confidence);
  if (!question.evidence.empty()) question.evidence += ';';
  question.evidence += tag;
}

}  // namespace

ChoiceDecoder::ChoiceDecoder(std::size_t gap_capacity)
    : gap_capacity_(gap_capacity) {}

void ChoiceDecoder::add_gap(GapSpan gap) {
  if (gap_capacity_ == 0) return;
  if (gaps_.size() < gap_capacity_) {
    // The ring is reserved whole on the first gap: lossless traffic
    // never pays for it, and it never grows past gap_capacity_.
    if (gaps_.empty()) gaps_.reserve(gap_capacity_);
    gaps_.push_back(gap);
    return;
  }
  gaps_[gap_head_] = gap;
  gap_head_ = (gap_head_ + 1) % gap_capacity_;
}

ChoiceDecoder::Step ChoiceDecoder::add_record(
    const ClientRecordObservation& observation, RecordClass cls) {
  const util::SimTime at = observation.timestamp;
  Step step;
  switch (cls) {
    case RecordClass::kType1Json:
      if (last_type1_ && at - *last_type1_ < kMinQuestionGap) break;
      last_type1_ = at;
      step.settled = open_at(at);
      if (observation.after_gap) {
        taint(question_, kAfterGapConfidence, "type1_after_gap");
      }
      step.effect = Effect::kOpened;
      break;
    case RecordClass::kType2Json: {
      // Any gap strictly after the last anchor (or any at all before the
      // first question) at or before this override?
      const bool hole_since_anchor = std::any_of(
          gaps_.begin(), gaps_.end(), [&](const GapSpan& gap) {
            return gap.at <= at && (!last_anchor_ || gap.at > *last_anchor_);
          });
      if (hole_since_anchor || (opened_ == 0 && observation.after_gap)) {
        step.settled = open_at(at);
        question_.choice = story::Choice::kNonDefault;
        question_.override_time = at;
        taint(question_, kAfterGapConfidence, "type2_presumed_lost_type1");
        step.effect = Effect::kSynthesized;
        break;
      }
      // Stray, or the question already has its (first) override.
      if (!open_ || question_.choice != story::Choice::kDefault) break;
      question_.choice = story::Choice::kNonDefault;
      question_.override_time = at;
      if (observation.after_gap) {
        taint(question_, kAfterGapConfidence, "type2_after_gap");
      }
      step.effect = Effect::kOverridden;
      break;
    }
    case RecordClass::kOther:
      break;
  }
  return step;
}

std::optional<InferredQuestion> ChoiceDecoder::open_at(util::SimTime at) {
  // A successor settles its predecessor: overrides only ever attach to
  // the most recent question.
  std::optional<InferredQuestion> predecessor;
  if (open_) predecessor = settle_before(at);
  last_anchor_ = at;
  question_ = InferredQuestion{};
  question_.index = ++opened_;
  question_.question_time = at;
  open_ = true;
  return predecessor;
}

InferredQuestion ChoiceDecoder::settle() { return settle_before(std::nullopt); }

InferredQuestion ChoiceDecoder::settle_before(
    std::optional<util::SimTime> next_question_at) {
  assert(open_);
  open_ = false;
  const util::SimTime start = question_.question_time - kGapWindow;
  const bool gap_in_window = std::any_of(
      gaps_.begin(), gaps_.end(), [&](const GapSpan& gap) {
        return gap.at >= start && (!next_question_at || gap.at < *next_question_at);
      });
  if (gap_in_window) taint(question_, kGapWindowConfidence, "gap_in_window");
  return std::move(question_);
}

InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    const DecodeOptions& options) {
  InferredSession out;
  std::vector<GapSpan> gaps = options.gaps;
  std::sort(gaps.begin(), gaps.end(),
            [](const GapSpan& a, const GapSpan& b) { return a.at < b.at; });
  ChoiceDecoder decoder(gaps.size());
  auto next_gap = gaps.begin();
  for (const ClientRecordObservation& observation : observations) {
    // Gaps first at equal timestamps: a hole declared at an override's
    // instant lies between it and the last anchor.
    for (; next_gap != gaps.end() && next_gap->at <= observation.timestamp;
         ++next_gap) {
      decoder.add_gap(*next_gap);
    }
    const RecordClass cls = classifier.classify(observation.record_length);
    switch (cls) {
      case RecordClass::kType1Json: ++out.type1_records; break;
      case RecordClass::kType2Json: ++out.type2_records; break;
      case RecordClass::kOther: ++out.other_records; break;
    }
    ChoiceDecoder::Step step = decoder.add_record(observation, cls);
    if (step.settled) out.questions.push_back(std::move(*step.settled));
  }
  for (; next_gap != gaps.end(); ++next_gap) decoder.add_gap(*next_gap);
  if (decoder.has_open()) out.questions.push_back(decoder.settle());
  return out;
}

InferredPath reconstruct_path(const story::StoryGraph& graph,
                              const std::vector<story::Choice>& choices) {
  InferredPath out;
  const story::StoryGraph::Traversal traversal = graph.traverse(choices);
  out.segments = traversal.path;
  out.segment_names.reserve(traversal.path.size());
  for (story::SegmentId id : traversal.path) {
    out.segment_names.push_back(graph.segment(id).name);
  }
  out.reached_ending = traversal.reached_ending;
  out.choice_surplus = static_cast<std::int64_t>(choices.size()) -
                       static_cast<std::int64_t>(traversal.choices_consumed);
  return out;
}

}  // namespace wm::core
