// The benchmark's three workloads. Each runs untraced (end-to-end
// metrics) or traced (per-layer metrics) and checks every answer it
// produces against ground truth.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs cache and trace output directory.
  std::filesystem::path work;
  /// live_paced offered rate, packets per wall second.
  double offered_pps = 300'000.0;
};

/// `attempted` counts operations (traces inferred, viewer answer sets
/// checked, questions asked); `failed` counts those that went wrong
/// plus every failed run-level check.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failure, for the error report.
  std::vector<std::string> problems;
  Metrics metrics;

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
};

RunResult run_dataset_scoring(const RunOptions& options);
RunResult run_cohort_fleet(const RunOptions& options);
RunResult run_live_paced(const RunOptions& options);

}  // namespace perfbench
