// Feature extraction for the attack: from packets to each viewer's
// sequence of client-side application-data record lengths — the
// side-channel of §III — and the stream gaps beside it, plus honest
// labelling of calibration traces from ground truth.
//
// extract_observations() is the one packets-to-observations path:
// calibration, fingerprinting and inference all read through it.
//
//     PacketSource --read_views / read_batch--> RecordStreamExtractor
//       (slab decode -> reassemble -> TLS records)
//       -> per-viewer observation + client gap logs
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wm/core/engine/source.hpp"
#include "wm/core/engine/stats.hpp"
#include "wm/net/packet.hpp"
#include "wm/net/reassembly.hpp"
#include "wm/obs/registry.hpp"
#include "wm/sim/streaming.hpp"
#include "wm/util/time.hpp"

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

/// A span of stream bytes the reassembler declared unrecoverable, as
/// seen by the decoder. Feeding the gap timeline in lets the decoder
/// flag inferences that straddle a hole as low-confidence instead of
/// silently reporting them at full strength.
struct GapSpan {
  util::SimTime at;            // when the gap was declared
  std::uint64_t bytes = 0;     // stream bytes it covered
};

/// One viewer's evidence: its client->server application records and
/// the client->server reassembly gaps of its flows.
struct ViewerLog {
  /// In observation_before order.
  std::vector<ClientRecordObservation> observations;
  /// In delivery order (decode_choices sorts its own copy).
  std::vector<GapSpan> gaps;
};

/// Everything one pass over a packet source yields.
struct ObservationLogs {
  /// Keyed by client address; only viewers with at least one
  /// observation (a gap-only viewer has nothing to decode).
  std::map<std::string, ViewerLog> viewers;
  /// Capture totals. type1_records/type2_records stay zero: counting
  /// them needs a classifier, and the decode counts them.
  engine::EngineStats stats;

  /// All viewers as one stream: every observation in observation_before
  /// order, every viewer's gaps.
  [[nodiscard]] ViewerLog combined() const;
};

/// Pull `source` to exhaustion through one RecordStreamExtractor on the
/// calling thread, then flush every live flow, so records cut off
/// mid-capture still count. Probes the zero-copy read_views() path
/// once; a source that serves stable views (mmap capture, in-memory
/// vector) is read through them, and reassembly holds borrowed spans.
/// Other sources fall back to read_batch().
///
/// `flow_idle_timeout` evicts reassembly and parser state of flows idle
/// that long (zero = never); `reassembly` tunes every flow's
/// reassembler. With `metrics` set, the extractor's counters roll up
/// into the stable "engine." totals over an "engine.extractor."
/// breakdown, and engine.packets_in, engine.collector.viewers and
/// engine.collector.gaps count as the pass runs. Null = no overhead.
ObservationLogs extract_observations(
    engine::PacketSource& source, util::Duration flow_idle_timeout = {},
    const net::TcpStreamReassembler::Config& reassembly = {},
    obs::Registry* metrics = nullptr);

/// Convenience: packets -> every client record observation, all viewers
/// as one stream (ObservationLogs::combined().observations).
std::vector<ClientRecordObservation> extract_client_records(
    const std::vector<net::Packet>& packets);

/// A labelled observation (calibration data).
struct LabeledObservation {
  ClientRecordObservation observation;
  RecordClass label = RecordClass::kOther;
};

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
