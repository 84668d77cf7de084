// Choice decoding (the incremental ChoiceDecoder and the batch decode over it,
// checked against a frozen reference), path reconstruction, and
// evaluation scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wm/core/decoder.hpp"
#include "wm/core/eval.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/rng.hpp"

namespace wm::core {
namespace {

/// A fixed classifier for decoder tests: 2212 = type-1, 3000 = type-2.
class FixedClassifier final : public RecordClassifier {
 public:
  void fit(const std::vector<LabeledObservation>&) override {}
  [[nodiscard]] RecordClass classify(std::uint16_t length) const override {
    if (length == 2212) return RecordClass::kType1Json;
    if (length == 3000) return RecordClass::kType2Json;
    return RecordClass::kOther;
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] bool fitted() const override { return true; }
};

ClientRecordObservation obs(double seconds, std::uint16_t length) {
  ClientRecordObservation out;
  out.timestamp = util::SimTime::from_seconds(seconds);
  out.record_length = length;
  return out;
}

TEST(Decoder, DefaultWhenNoType2Follows) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 2212), obs(9.0, 2212)});
  ASSERT_EQ(result.questions.size(), 3u);
  for (const InferredQuestion& q : result.questions) {
    EXPECT_EQ(q.choice, story::Choice::kDefault);
    EXPECT_FALSE(q.override_time.has_value());
  }
}

TEST(Decoder, Type2MarksNonDefault) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(2.0, 3000), obs(5.0, 2212), obs(9.0, 2212),
            obs(9.5, 3000)});
  ASSERT_EQ(result.questions.size(), 3u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kDefault);
  EXPECT_EQ(result.questions[2].choice, story::Choice::kNonDefault);
  ASSERT_TRUE(result.questions[0].override_time.has_value());
  EXPECT_DOUBLE_EQ(result.questions[0].override_time->to_seconds(), 2.0);
}

TEST(Decoder, OthersInterleavedIgnored) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(0.5, 404), obs(1.0, 2212), obs(1.5, 700), obs(2.0, 3000),
            obs(2.5, 16408), obs(5.0, 2212)});
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kDefault);
  EXPECT_EQ(result.other_records, 3u);
}

TEST(Decoder, DuplicateType1Suppressed) {
  FixedClassifier clf;
  // A retransmitted type-1 60ms later must not create a phantom question.
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(1.06, 2212), obs(5.0, 2212)});
  EXPECT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.type1_records, 3u);
}

TEST(Decoder, DistantType1NotSuppressed) {
  FixedClassifier clf;
  const auto result =
      decode_choices(clf, {obs(1.0, 2212), obs(1.5, 2212)});
  EXPECT_EQ(result.questions.size(), 2u);
}

TEST(Decoder, StrayType2BeforeAnyQuestionIgnored) {
  FixedClassifier clf;
  const auto result = decode_choices(clf, {obs(0.5, 3000), obs(1.0, 2212)});
  ASSERT_EQ(result.questions.size(), 1u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kDefault);
}

TEST(Decoder, SecondType2ForSameQuestionIgnored) {
  FixedClassifier clf;
  const auto result =
      decode_choices(clf, {obs(1.0, 2212), obs(2.0, 3000), obs(2.5, 3000)});
  ASSERT_EQ(result.questions.size(), 1u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_DOUBLE_EQ(result.questions[0].override_time->to_seconds(), 2.0);
  EXPECT_EQ(result.type2_records, 2u);
}

TEST(Decoder, EmptyObservationsEmptyResult) {
  FixedClassifier clf;
  const auto result = decode_choices(clf, {});
  EXPECT_TRUE(result.questions.empty());
  EXPECT_TRUE(result.choices().empty());
}

// --- gap-aware confidence ---------------------------------------------

ClientRecordObservation tainted_obs(double seconds, std::uint16_t length) {
  ClientRecordObservation out = obs(seconds, length);
  out.after_gap = true;
  return out;
}

GapSpan gap_at(double seconds, std::uint64_t bytes) {
  GapSpan gap;
  gap.at = util::SimTime::from_seconds(seconds);
  gap.bytes = bytes;
  return gap;
}

TEST(Decoder, CleanStreamDecodesAtFullConfidence) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(2.0, 3000), obs(5.0, 2212)}, DecodeOptions{});
  ASSERT_EQ(result.questions.size(), 2u);
  for (const InferredQuestion& q : result.questions) {
    EXPECT_DOUBLE_EQ(q.confidence, 1.0);
    EXPECT_TRUE(q.evidence.empty());
  }
}

TEST(Decoder, Type1AfterGapOpensLowConfidenceQuestion) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {tainted_obs(1.0, 2212), obs(5.0, 2212)}, DecodeOptions{});
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_LT(result.questions[0].confidence, 1.0);
  EXPECT_NE(result.questions[0].evidence.find("type1_after_gap"),
            std::string::npos);
  // The later, untainted question is unaffected.
  EXPECT_DOUBLE_EQ(result.questions[1].confidence, 1.0);
}

TEST(Decoder, OrphanType2AfterGapSynthesizesLowConfidenceQuestion) {
  // A hole sits between question 1's anchor and the type-2: the type-1
  // that should anchor the override was presumably inside the gap, so
  // the decoder must NOT credit the override to question 1 at full
  // strength — it synthesizes a new low-confidence non-default.
  FixedClassifier clf;
  DecodeOptions options;
  options.gaps = {gap_at(4.0, 6000)};
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 3000)}, options);
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kNonDefault);
  EXPECT_LT(result.questions[1].confidence, 1.0);
  EXPECT_NE(result.questions[1].evidence.find("type2_presumed_lost_type1"),
            std::string::npos);
}

TEST(Decoder, GapInsideQuestionWindowCapsConfidence) {
  FixedClassifier clf;
  DecodeOptions options;
  options.gaps = {gap_at(2.0, 1400)};  // between Q1 (1.0) and Q2 (5.0)
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 2212), obs(6.0, 3000)}, options);
  ASSERT_EQ(result.questions.size(), 2u);
  // The gap could have swallowed Q1's override: capped, and tagged.
  EXPECT_LT(result.questions[0].confidence, 1.0);
  EXPECT_NE(result.questions[0].evidence.find("gap_in_window"),
            std::string::npos);
}

TEST(Decoder, DefaultOptionsReproduceHistoricalDecode) {
  // No gaps, no after_gap taints: the plain §III rule at full strength,
  // with the 60ms retransmitted type-1 suppressed.
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(1.06, 2212), obs(2.0, 3000), obs(5.0, 2212),
            obs(9.0, 2212), obs(9.5, 3000)});
  const std::vector<story::Choice> expected = {story::Choice::kNonDefault,
                                               story::Choice::kDefault,
                                               story::Choice::kNonDefault};
  EXPECT_EQ(result.choices(), expected);
  ASSERT_EQ(result.questions.size(), 3u);
  const double question_times[] = {1.0, 5.0, 9.0};
  for (std::size_t i = 0; i < result.questions.size(); ++i) {
    const InferredQuestion& q = result.questions[i];
    EXPECT_EQ(q.index, i + 1);
    EXPECT_EQ(q.question_time, util::SimTime::from_seconds(question_times[i]));
    EXPECT_DOUBLE_EQ(q.confidence, 1.0);
    EXPECT_TRUE(q.evidence.empty());
  }
  EXPECT_EQ(result.questions[0].override_time, util::SimTime::from_seconds(2.0));
  EXPECT_EQ(result.questions[2].override_time, util::SimTime::from_seconds(9.5));
  EXPECT_EQ(result.type1_records, 4u);
  EXPECT_EQ(result.type2_records, 2u);
}

// --- ChoiceDecoder ------------------------------------------------------

TEST(ChoiceDecoder, OutOfOrderGapsStillAttributeTheOverride) {
  // An end-of-capture flush emits gaps flow by flow, so the ring can
  // hold a later CDN hole before an earlier API hole. The 90s hole lies
  // between the 80s anchor and the 90s type-2 even though a 100s gap
  // was recorded first: the override must synthesize a question.
  ChoiceDecoder decoder(16);
  EXPECT_EQ(decoder.add_record(obs(80.0, 2212), RecordClass::kType1Json).effect,
            ChoiceDecoder::Effect::kOpened);
  decoder.add_gap(gap_at(100.0, 4000));
  decoder.add_gap(gap_at(90.0, 1400));
  const ChoiceDecoder::Step step =
      decoder.add_record(obs(90.0, 3000), RecordClass::kType2Json);
  EXPECT_EQ(step.effect, ChoiceDecoder::Effect::kSynthesized);
  ASSERT_TRUE(step.settled.has_value());
  EXPECT_EQ(step.settled->choice, story::Choice::kDefault);
  EXPECT_DOUBLE_EQ(step.settled->confidence, 1.0);

  const InferredQuestion synthesized = decoder.settle();
  EXPECT_EQ(synthesized.index, 2u);
  EXPECT_EQ(synthesized.choice, story::Choice::kNonDefault);
  EXPECT_DOUBLE_EQ(synthesized.confidence, kAfterGapConfidence);
  EXPECT_EQ(synthesized.evidence, "type2_presumed_lost_type1;gap_in_window");

  // The batch decode, handed the same gaps unsorted, agrees.
  DecodeOptions options;
  options.gaps = {gap_at(100.0, 4000), gap_at(90.0, 1400)};
  FixedClassifier clf;
  const auto batch = decode_choices(clf, {obs(80.0, 2212), obs(90.0, 3000)}, options);
  ASSERT_EQ(batch.questions.size(), 2u);
  EXPECT_EQ(batch.questions[1].choice, story::Choice::kNonDefault);
  EXPECT_EQ(batch.questions[1].evidence, synthesized.evidence);
}

TEST(ChoiceDecoder, GapRingWrapDropsTheEarliestGap) {
  ChoiceDecoder decoder(2);
  (void)decoder.add_record(obs(0.0, 2212), RecordClass::kType1Json);
  EXPECT_EQ(decoder.memory_bytes(), 0u);  // the ring waits for a gap
  decoder.add_gap(gap_at(1.0, 100));
  EXPECT_EQ(decoder.memory_bytes(), 2 * sizeof(GapSpan));
  decoder.add_gap(gap_at(2.0, 100));
  decoder.add_gap(gap_at(3.0, 100));  // wraps: the 1.0s gap falls off
  EXPECT_EQ(decoder.memory_bytes(), 2 * sizeof(GapSpan));

  // Only the dropped 1.0s gap lay before this override: it is credited.
  EXPECT_EQ(decoder.add_record(obs(1.5, 3000), RecordClass::kType2Json).effect,
            ChoiceDecoder::Effect::kOverridden);
  // The retained 2.0s gap still attributes a later orphan override, and
  // caps the predecessor it settles.
  const ChoiceDecoder::Step step =
      decoder.add_record(obs(2.5, 3000), RecordClass::kType2Json);
  EXPECT_EQ(step.effect, ChoiceDecoder::Effect::kSynthesized);
  ASSERT_TRUE(step.settled.has_value());
  EXPECT_EQ(step.settled->choice, story::Choice::kNonDefault);
  EXPECT_EQ(step.settled->evidence, "gap_in_window");
  EXPECT_EQ(decoder.settle().evidence, "type2_presumed_lost_type1;gap_in_window");
}

TEST(ChoiceDecoder, ZeroGapCapacityKeepsNoHistory) {
  ChoiceDecoder decoder(0);
  (void)decoder.add_record(obs(0.0, 2212), RecordClass::kType1Json);
  decoder.add_gap(gap_at(1.0, 100));
  EXPECT_EQ(decoder.memory_bytes(), 0u);
  EXPECT_EQ(decoder.add_record(obs(1.5, 3000), RecordClass::kType2Json).effect,
            ChoiceDecoder::Effect::kOverridden);
  const InferredQuestion question = decoder.settle();
  EXPECT_DOUBLE_EQ(question.confidence, 1.0);
  EXPECT_TRUE(question.evidence.empty());
  EXPECT_FALSE(decoder.has_open());
}

// --- batch differential -------------------------------------------------

/// The batch decoder as it stood before ChoiceDecoder, frozen as a
/// reference oracle: one loop over the observations, then a post-pass
/// for the gap_in_window taint.
InferredSession reference_decode(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    std::vector<GapSpan> gaps) {
  const auto taint = [](InferredQuestion& question, double confidence,
                        const char* tag) {
    question.confidence = std::min(question.confidence, confidence);
    if (!question.evidence.empty()) question.evidence += ';';
    question.evidence += tag;
  };
  const auto gap_between = [&gaps](std::optional<util::SimTime> after,
                                   util::SimTime until) {
    for (const GapSpan& gap : gaps) {
      if (gap.at > until) break;
      if (!after || gap.at > *after) return true;
    }
    return false;
  };
  InferredSession out;
  std::sort(gaps.begin(), gaps.end(), [](const GapSpan& a, const GapSpan& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.bytes < b.bytes;
  });
  std::optional<util::SimTime> last_type1;
  std::optional<util::SimTime> last_anchor;
  for (const ClientRecordObservation& o : observations) {
    switch (classifier.classify(o.record_length)) {
      case RecordClass::kType1Json: {
        ++out.type1_records;
        if (last_type1 && o.timestamp - *last_type1 < util::Duration::millis(120)) {
          break;
        }
        last_type1 = o.timestamp;
        last_anchor = o.timestamp;
        InferredQuestion question;
        question.index = out.questions.size() + 1;
        question.question_time = o.timestamp;
        if (o.after_gap) taint(question, 0.5, "type1_after_gap");
        out.questions.push_back(std::move(question));
        break;
      }
      case RecordClass::kType2Json: {
        ++out.type2_records;
        if (gap_between(last_anchor, o.timestamp) ||
            (out.questions.empty() && o.after_gap)) {
          InferredQuestion question;
          question.index = out.questions.size() + 1;
          question.question_time = o.timestamp;
          question.choice = story::Choice::kNonDefault;
          question.override_time = o.timestamp;
          taint(question, 0.5, "type2_presumed_lost_type1");
          out.questions.push_back(std::move(question));
          last_anchor = o.timestamp;
          break;
        }
        if (out.questions.empty()) break;
        InferredQuestion& current = out.questions.back();
        if (current.choice == story::Choice::kDefault) {
          current.choice = story::Choice::kNonDefault;
          current.override_time = o.timestamp;
          if (o.after_gap) taint(current, 0.5, "type2_after_gap");
        }
        break;
      }
      case RecordClass::kOther:
        ++out.other_records;
        break;
    }
  }
  for (std::size_t i = 0; i < out.questions.size(); ++i) {
    InferredQuestion& question = out.questions[i];
    const util::SimTime start = question.question_time - util::Duration::seconds(1);
    for (const GapSpan& gap : gaps) {
      if (gap.at < start) continue;
      if (i + 1 < out.questions.size() &&
          gap.at >= out.questions[i + 1].question_time) {
        break;
      }
      taint(question, 0.6, "gap_in_window");
      break;
    }
  }
  return out;
}

TEST(Decoder, BatchDecodeMatchesFrozenReferenceOnRandomSequences) {
  FixedClassifier clf;
  const std::uint16_t lengths[] = {2212, 3000, 404};
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<ClientRecordObservation> observations;
    std::int64_t t = rng.uniform_int(0, 2'000'000'000);
    const std::size_t count = rng.next_below(40);
    for (std::size_t i = 0; i < count; ++i) {
      // Same instant, inside / at / just past the 120ms duplicate
      // window, or well apart.
      switch (rng.next_below(5)) {
        case 0: break;
        case 1: t += rng.uniform_int(1, 119'999'999); break;
        case 2: t += 120'000'000; break;
        case 3: t += 120'000'001; break;
        default: t += rng.uniform_int(200'000'000, 3'000'000'000); break;
      }
      ClientRecordObservation o;
      o.timestamp = util::SimTime::from_nanos(t);
      o.record_length = lengths[rng.next_below(3)];
      o.after_gap = rng.bernoulli(0.15);
      observations.push_back(o);
    }
    // Gaps land exactly on observation instants or anywhere nearby, and
    // are handed over in shuffled order.
    std::vector<GapSpan> gaps;
    const std::size_t gap_count = rng.next_below(6);
    for (std::size_t i = 0; i < gap_count; ++i) {
      GapSpan gap;
      gap.bytes = rng.next_below(5000);
      gap.at = !observations.empty() && rng.bernoulli(0.5)
                   ? observations[rng.next_below(observations.size())].timestamp
                   : util::SimTime::from_nanos(rng.uniform_int(0, t + 2'000'000'000));
      gaps.push_back(gap);
    }
    rng.shuffle(gaps);

    DecodeOptions options;
    options.gaps = gaps;
    const InferredSession got = decode_choices(clf, observations, options);
    const InferredSession want = reference_decode(clf, observations, gaps);
    ASSERT_EQ(got.questions.size(), want.questions.size());
    for (std::size_t i = 0; i < want.questions.size(); ++i) {
      SCOPED_TRACE("Q" + std::to_string(i));
      EXPECT_EQ(got.questions[i].index, want.questions[i].index);
      EXPECT_EQ(got.questions[i].question_time, want.questions[i].question_time);
      EXPECT_EQ(got.questions[i].choice, want.questions[i].choice);
      EXPECT_EQ(got.questions[i].override_time, want.questions[i].override_time);
      EXPECT_EQ(got.questions[i].confidence, want.questions[i].confidence);
      EXPECT_EQ(got.questions[i].evidence, want.questions[i].evidence);
    }
    EXPECT_EQ(got.type1_records, want.type1_records);
    EXPECT_EQ(got.type2_records, want.type2_records);
    EXPECT_EQ(got.other_records, want.other_records);
    if (HasFailure()) break;
  }
}

TEST(ReconstructPath, FollowsChoicesThroughGraph) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const std::vector<story::Choice> choices(13, story::Choice::kDefault);
  const InferredPath path = reconstruct_path(graph, choices);
  EXPECT_FALSE(path.segments.empty());
  EXPECT_TRUE(path.reached_ending);
  EXPECT_EQ(path.segment_names.front(), "SEGMENT_0_OPENING");
  EXPECT_GE(path.choice_surplus, 0);
}

TEST(ReconstructPath, SurplusSignalsOverDetection) {
  const story::StoryGraph graph = story::make_bandersnatch();
  // Way more choices than any path consumes.
  const std::vector<story::Choice> choices(40, story::Choice::kNonDefault);
  const InferredPath path = reconstruct_path(graph, choices);
  EXPECT_GT(path.choice_surplus, 0);
}

// --- eval --------------------------------------------------------------

sim::SessionGroundTruth truth_of(const std::vector<story::Choice>& choices) {
  sim::SessionGroundTruth truth;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    sim::QuestionOutcome q;
    q.index = i + 1;
    q.choice = choices[i];
    q.question_time = util::SimTime::from_seconds(static_cast<double>(i) * 10);
    truth.questions.push_back(q);
  }
  return truth;
}

InferredSession inferred_of(const std::vector<story::Choice>& choices) {
  InferredSession out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    InferredQuestion q;
    q.index = i + 1;
    q.choice = choices[i];
    out.questions.push_back(q);
  }
  return out;
}

TEST(Eval, PerfectSession) {
  using story::Choice;
  const std::vector<Choice> choices{Choice::kDefault, Choice::kNonDefault};
  const SessionScore score = score_session(truth_of(choices), inferred_of(choices));
  EXPECT_EQ(score.choices_correct, 2u);
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
  EXPECT_TRUE(score.question_count_match);
}

TEST(Eval, MissedQuestionCountsAsWrong) {
  using story::Choice;
  const auto truth = truth_of({Choice::kDefault, Choice::kNonDefault,
                               Choice::kDefault});
  const auto inferred = inferred_of({Choice::kDefault, Choice::kNonDefault});
  const SessionScore score = score_session(truth, inferred);
  EXPECT_EQ(score.choices_correct, 2u);
  EXPECT_NEAR(score.choice_accuracy, 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(score.question_count_match);
}

TEST(Eval, ExtraInferredQuestionDoesNotInflate) {
  using story::Choice;
  const auto truth = truth_of({Choice::kDefault});
  const auto inferred = inferred_of({Choice::kDefault, Choice::kNonDefault});
  const SessionScore score = score_session(truth, inferred);
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
  EXPECT_FALSE(score.question_count_match);
}

TEST(Eval, EmptyTruthScoresPerfect) {
  const SessionScore score = score_session(truth_of({}), inferred_of({}));
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
}

TEST(Eval, AggregateWorstCase) {
  using story::Choice;
  std::vector<SessionScore> scores;
  scores.push_back(score_session(truth_of({Choice::kDefault, Choice::kDefault}),
                                 inferred_of({Choice::kDefault, Choice::kDefault})));
  scores.push_back(
      score_session(truth_of({Choice::kDefault, Choice::kNonDefault}),
                    inferred_of({Choice::kDefault, Choice::kDefault})));
  const AggregateScore agg = aggregate_scores(scores);
  EXPECT_EQ(agg.sessions, 2u);
  EXPECT_EQ(agg.questions, 4u);
  EXPECT_EQ(agg.correct, 3u);
  EXPECT_DOUBLE_EQ(agg.worst_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(agg.mean_accuracy, 0.75);
  EXPECT_DOUBLE_EQ(agg.pooled_accuracy, 0.75);
}

TEST(Eval, AggregateEmpty) {
  const AggregateScore agg = aggregate_scores({});
  EXPECT_DOUBLE_EQ(agg.worst_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(agg.mean_accuracy, 1.0);
}

}  // namespace
}  // namespace wm::core
