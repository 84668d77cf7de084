#include "wm/core/features.hpp"

#include <algorithm>
#include <cmath>

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

std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<tls::FlowRecordStream>& streams) {
  std::vector<ClientRecordObservation> out;
  for (const tls::FlowRecordStream& stream : streams) {
    for (const tls::RecordEvent& event : stream.events) {
      if (!event.is_client_application_data()) continue;
      ClientRecordObservation obs;
      obs.timestamp = event.timestamp;
      obs.record_length = event.record_length;
      obs.after_gap = event.after_gap;
      out.push_back(obs);
    }
  }
  std::sort(out.begin(), out.end(), observation_before);
  return out;
}

std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<net::Packet>& packets) {
  return extract_client_records(tls::extract_record_streams(packets));
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
