// Feature extraction for the attack: from a capture (or pre-extracted
// record streams) to the sequence of client-side application-data
// record lengths — the side-channel of §III — plus honest labelling of
// calibration traces from ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wm/net/packet.hpp"
#include "wm/sim/streaming.hpp"
#include "wm/tls/record_stream.hpp"

namespace wm::core {

/// Classes the attack distinguishes (§III: "the number and type of
/// JSON files sent indicate the choice made by the viewer").
enum class RecordClass : std::uint8_t { kType1Json = 0, kType2Json = 1, kOther = 2 };

std::string to_string(RecordClass cls);
inline constexpr std::size_t kRecordClassCount = 3;

/// One observation: a client->server application record.
struct ClientRecordObservation {
  util::SimTime timestamp;
  std::uint16_t record_length = 0;
  /// The record was the first parsed after a reassembly gap or TLS
  /// resync: its length is trustworthy but bytes before it were lost,
  /// so inferences anchored on it deserve less confidence.
  bool after_gap = false;
};

/// The one observation order every decode path sorts in: time, then
/// record length, then the after_gap flag (false first), because two
/// records equal in time and length still decode differently when one
/// carries the gap taint. It makes the decode independent of the order
/// flows delivered their records.
bool observation_before(const ClientRecordObservation& a,
                        const ClientRecordObservation& b);

/// A labelled observation (calibration data).
struct LabeledObservation {
  ClientRecordObservation observation;
  RecordClass label = RecordClass::kOther;
};

/// Pull every client->server application-data record out of a set of
/// record streams, in observation_before order. This is the attacker's
/// feature view.
std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<tls::FlowRecordStream>& streams);

/// Convenience: packets -> client record observations.
std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<net::Packet>& packets);

/// Label calibration observations against ground truth the way the
/// paper's researchers did: the state upload emitted when question Qi
/// appeared is the record closest to the noted question time, and the
/// upload at a non-default decision is the record closest to the noted
/// decision time. `tolerance` bounds the match window.
std::vector<LabeledObservation> label_observations(
    const std::vector<ClientRecordObservation>& observations,
    const sim::SessionGroundTruth& truth,
    util::Duration tolerance = util::Duration::millis(250));

}  // namespace wm::core
