// Schema of the committed BENCH_pr*.json documents, and the ratio gate
// that holds a fresh traced perfbench run against the last of them.
//
// Version 3 (current) documents are perfbench results:
//
//   {"bench": "perfbench", "version": 3, "commit": "<sha>",
//    "runs": [{"workload", "seed", "seconds", "trace",
//              "env": {"hardware_threads", "cpu", "build"},
//              "correct", "attempted", "failed",
//              "metrics": {<name>: {"value", "unit"}}}]}
//
// Each run's workload must be one that BENCHMARK.json declares, and
// each run must report exactly the metrics of its catalogue, with the
// catalogue's units: "end_to_end" for untraced (trace 0) runs,
// "per_layer" for traced (trace 1) runs.
// A committed run must have passed its answer checks (correct, zero
// failed) and name the machine it ran on.
//
// Version history, kept so the historic files stay checked: version 1
// documents (BENCH_pr3/6/7.json) get envelope checks only (several of
// their engine rows carry a bytes=0 accounting bug); version 2
// (BENCH_pr10.json) requires a "smoke" flag and every throughput row
// (an object with "packets_per_sec") to carry real byte totals.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "wm/util/json.hpp"

namespace wm::bench {

/// Bump when the document shape changes incompatibly.
inline constexpr std::int64_t kBenchSchemaVersion = 3;

/// The catalogue a version 3 document is checked against: the
/// workload names and metric units that BENCHMARK.json declares.
struct Spec {
  std::set<std::string> workloads;
  std::map<std::string, std::string> end_to_end;  // name -> unit
  std::map<std::string, std::string> per_layer;   // name -> unit
};

/// Parse BENCHMARK.json. Throws std::runtime_error on I/O, parse or
/// shape errors.
[[nodiscard]] Spec load_spec(const std::filesystem::path& path);

/// Parse a JSON file. Throws std::runtime_error on I/O or parse errors.
[[nodiscard]] util::JsonValue load_json(const std::filesystem::path& path);

/// Validate one parsed benchmark document. Returns human-readable
/// problems; empty means the document conforms. `spec` applies to
/// version 3 documents only.
[[nodiscard]] std::vector<std::string> validate(const util::JsonValue& document,
                                                const Spec& spec);

/// Parse + validate a file on disk. I/O and parse errors come back as
/// problems rather than exceptions, so the CLI can keep going.
[[nodiscard]] std::vector<std::string> validate_file(
    const std::filesystem::path& path, const Spec& spec);

/// How many times its reference value a gated ratio may grow before
/// the ratio gate fails.
inline constexpr double kRatioLimit = 2.0;

/// Hold a traced dataset_scoring result line (perfbench's last stdout
/// line) against the traced dataset_scoring run of a version 3
/// `reference` document. The line must pass validation as a traced
/// result, and no gated ratio may exceed kRatioLimit times its
/// reference value. The gated ratios stay put from machine to machine while
/// absolute times do not, and lower is better for each: batch vs
/// per-packet TLS extraction, slab vs scalar decode, view vs owned
/// capture reads, and trace.overhead_ratio. Absolute numbers are never
/// compared.
[[nodiscard]] std::vector<std::string> check_ratios(const util::JsonValue& reference,
                                                    const util::JsonValue& line,
                                                    const Spec& spec);

}  // namespace wm::bench
