// Seeded benchmark inputs, built once per seed and cached in the work
// directory:
//
//   <work>/seed-<n>/dataset/       the 100-viewer dataset (write_dataset)
//   <work>/seed-<n>/calibration/   a separate calibration cohort (one
//                                  fixed seed, kCalibrationSeed)
//   <work>/seed-<n>/cohort/        the dataset time-interleaved into one
//                                  capture, one client address per viewer,
//                                  stored as kPartBytes part files
//   <work>/seed-<n>/*.ready        per-input completion markers
//
// Only the most recently used seeds are kept; older ones are deleted.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "wm/sim/streaming.hpp"

namespace perfbench {

namespace sim = wm::sim;

struct TraceInput {
  std::filesystem::path pcap;
  std::filesystem::path truth_file;
  sim::SessionGroundTruth truth;
  CaptureCount count;
};

struct DatasetInputs {
  std::vector<TraceInput> traces;
  std::vector<TraceInput> calibration;
  std::uint64_t packets = 0;
};

struct CohortInputs {
  CaptureParts capture;
  CaptureCount count;
  /// Client address of dataset viewer i in the cohort capture.
  std::vector<std::string> viewer_addresses;
};

/// Viewers in the dataset and in the calibration cohort.
inline constexpr std::size_t kDatasetViewers = 100;
inline constexpr std::size_t kCalibrationViewers = 12;
/// Seed of the calibration cohort, fixed across benchmark seeds.
inline constexpr std::uint64_t kCalibrationSeed = 0x5eedca1b7a7e5ull;

/// Build (or reuse) the dataset and calibration cohort for `seed`.
DatasetInputs ensure_dataset(const std::filesystem::path& work, std::uint64_t seed);

/// Build (or reuse) the interleaved cohort capture for `seed`.
CohortInputs ensure_cohort(const std::filesystem::path& work, std::uint64_t seed,
                           const DatasetInputs& dataset);

}  // namespace perfbench
