// BENCH_pr*.json validator and ratio gate (bench_report.hpp has the
// rules).
//
//   bench_validate [--spec BENCHMARK.json] FILE.json [FILE.json ...]
//   bench_validate [--spec BENCHMARK.json] --ratios-against BENCH.json LINE.json
//
// The first form checks each document against the schema and exits 1
// if any fails; the bench-validate ctest runs it over every committed
// BENCH file. The second holds a traced dataset_scoring result line
// (wm_perfbench's last stdout line) against the traced dataset_scoring
// run of a committed document and exits 1 when a gated ratio is more
// than kRatioLimit (2) times worse; the perfbench-ratio-gate ctest runs it. --spec
// defaults to BENCHMARK.json in the current directory.
//
// Recording a BENCH file: from the repository root, on an otherwise
// idle machine,
//
//   python3 bench/record_perfbench.py --pr N
//
// runs every BENCHMARK.json workload through perfbench/run.py (Release
// build, seed 1, run_seconds), once untraced and once traced, and
// writes BENCH_prN.json; then check it with
//
//   ./build/bench/bench_validate BENCH_prN.json
//
// and commit it. Throughput claims cite its rows.
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.hpp"

int main(int argc, char** argv) try {
  std::string spec_path = "BENCHMARK.json";
  std::string reference;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--spec" || arg == "--ratios-against") && i + 1 < argc) {
      (arg == "--spec" ? spec_path : reference) = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() || (!reference.empty() && files.size() != 1)) {
    std::cerr << "usage: bench_validate [--spec BENCHMARK.json] FILE.json [FILE.json ...]\n"
                 "       bench_validate [--spec BENCHMARK.json] --ratios-against "
                 "BENCH.json LINE.json\n";
    return 2;
  }
  const wm::bench::Spec spec = wm::bench::load_spec(spec_path);

  if (!reference.empty()) {
    const std::vector<std::string> problems = wm::bench::check_ratios(
        wm::bench::load_json(reference), wm::bench::load_json(files[0]), spec);
    for (const std::string& problem : problems) std::cerr << files[0] << ": " << problem << "\n";
    if (problems.empty()) {
      std::cout << files[0] << ": ratios within " << wm::bench::kRatioLimit << "x of "
                << reference << "\n";
    }
    return problems.empty() ? 0 : 1;
  }
  std::size_t failures = 0;
  for (const std::string& file : files) {
    const std::vector<std::string> problems = wm::bench::validate_file(file, spec);
    failures += problems.empty() ? 0u : 1u;
    if (problems.empty()) std::cout << file << ": OK\n";
    for (const std::string& problem : problems) std::cerr << problem << "\n";
  }
  if (failures != 0) {
    std::cerr << failures << " file(s) failed schema validation\n";
    return 1;
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_validate: " << error.what() << "\n";
  return 2;
}
