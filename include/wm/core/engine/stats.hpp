// Aggregate counters reported by the streaming engine.
#pragma once

#include <cstdint>
#include <string>

namespace wm::engine {

/// Totals across all shards for one engine run, merged at finish().
struct EngineStats {
  std::size_t shards = 0;              // worker threads (0 = ran inline)
  std::uint64_t packets_in = 0;        // packets offered to the engine
  std::uint64_t bytes_in = 0;          // capture bytes offered (frame sizes)
  std::uint64_t packets_undecodable = 0;
  std::uint64_t batches_dispatched = 0;
  std::uint64_t records = 0;           // TLS records parsed (all types)
  std::uint64_t client_records = 0;    // client->server application data
  std::uint64_t type1_records = 0;     // classified question markers
  std::uint64_t type2_records = 0;     // classified override markers
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_evicted = 0;
  std::uint64_t flows_completed = 0;  // retired cleanly (teardown / flush)
  /// Loss tolerance: reassembly gaps declared, stream bytes they
  /// covered, TLS resync scans that re-locked, and the bytes those
  /// scans discarded while hunting for a record boundary.
  std::uint64_t gaps = 0;
  std::uint64_t gap_bytes = 0;
  std::uint64_t tls_resyncs = 0;
  std::uint64_t tls_skipped_bytes = 0;
  /// Sum over shards of each shard's peak concurrently-tracked flows:
  /// an upper bound on peak engine-wide flow state.
  std::uint64_t peak_active_flows = 0;
  std::uint64_t viewers_seen = 0;      // distinct client addresses
  /// Times the dispatcher blocked because a shard queue was full
  /// (backpressure events, not packets lost — nothing is dropped).
  std::uint64_t backpressure_waits = 0;
  /// The source reported a stream error (truncated/corrupt capture
  /// tail). infer() never throws for these: whatever decoded before
  /// the error stands, and this count says the stream ended abnormally.
  std::uint64_t source_errors = 0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace wm::engine
