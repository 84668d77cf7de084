// Typed event API for live inference consumers. The producers are
// wm::monitor::ContinuousMonitor and MonitorFleet (batch inference
// emits nothing live; its InferReport is the batch answer). An
// EventSink receives the four moments a monitoring consumer cares
// about, named:
//
//   QuestionOpened  — a marker anchored a new question for a viewer
//                     (choice the default, unless an orphaned override
//                     synthesized it).
//   ChoiceInferred  — a question's answer is final: an override flipped
//                     it, its successor opened, its evidence window
//                     closed, or its viewer was evicted.
//   ViewerEvicted   — the monitor dropped a viewer's state (idle
//                     timeout, memory shed, shutdown flush).
//   GapObserved     — unrecoverable loss on a viewer's upload stream;
//                     subsequent inferences for that viewer may carry
//                     reduced confidence.
//
// THREAD-SAFETY CONTRACT. ContinuousMonitor is single-threaded and
// delivers every event serially from the thread driving it.
// MonitorFleet delivers merge-free from its shard workers: callbacks
// run concurrently from N threads, BUT every viewer is pinned to one
// shard — all events for one viewer arrive from one thread, serially,
// in that viewer's capture-time order. Implementations therefore need
// no per-viewer locking, only whole-sink thread safety; a sink that
// additionally needs global capture-time order across viewers sorts
// on the events' capture times itself. In every regime
// callbacks run on the packet path — block in one and you stall ingest
// (the monitor's replay clock, a fleet shard's ring). Events are valid
// only for the duration of the callback; copy what you keep.
//
// Part of this contract is machine-checked (DESIGN.md §3.8): a sink
// class constructed inside the fleet is wired straight into worker
// threads, so wm_lint's `sink-contract` rule requires its definition
// to carry the author's mark `// wm-lint: sink(threadsafe)` on (or
// directly above) its class head — the signed statement that its on_*
// callbacks tolerate concurrent callers. Sinks constructed elsewhere
// need no mark; their threading regime is whatever the caller built.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "wm/core/decoder.hpp"
#include "wm/util/time.hpp"

namespace wm::engine {

struct QuestionOpenedEvent {
  // wm-lint: allow(borrow): events are callback-scoped by contract (see
  // header comment); consumers copy what they keep.
  std::string_view client;
  /// The question as opened: choice is the default (unless synthesized
  /// from an orphaned override) until a ChoiceInferred follows for the
  /// same index.
  core::InferredQuestion question;
  std::uint16_t record_length = 0;  // the anchoring record
};

struct ChoiceInferredEvent {
  // wm-lint: allow(borrow): callback-scoped, same contract as
  // QuestionOpenedEvent.
  std::string_view client;
  core::InferredQuestion question;
  /// The override record that settled it (0 when a successor question,
  /// the window timer or eviction closed it).
  std::uint16_t record_length = 0;
  /// Emission time: the settling record's timestamp, or the evidence
  /// window deadline for timer closes.
  util::SimTime at;
  /// True when this answer will not be revised — every answer the
  /// monitor and fleet emit.
  bool final = false;
};

struct ViewerEvictedEvent {
  enum class Reason : std::uint8_t {
    kIdle,        // no traffic for the viewer-idle timeout
    kMemoryShed,  // global byte budget exceeded; oldest-idle dropped
    kShutdown,    // monitor finish() flushing live viewers
  };
  // wm-lint: allow(borrow): callback-scoped, same contract as
  // QuestionOpenedEvent.
  std::string_view client;
  Reason reason = Reason::kIdle;
  util::SimTime at;
  /// Questions emitted for this viewer over its lifetime.
  std::size_t questions_emitted = 0;
};

struct GapObservedEvent {
  // wm-lint: allow(borrow): callback-scoped, same contract as
  // QuestionOpenedEvent.
  std::string_view client;
  core::GapSpan gap;
};

/// Implement the moments you care about; defaults ignore everything.
/// See the thread-safety contract at the top of this header.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_question_opened(const QuestionOpenedEvent&) {}
  virtual void on_choice_inferred(const ChoiceInferredEvent&) {}
  virtual void on_viewer_evicted(const ViewerEvictedEvent&) {}
  virtual void on_gap_observed(const GapObservedEvent&) {}
};

}  // namespace wm::engine
