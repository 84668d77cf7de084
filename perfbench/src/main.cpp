// wm_perfbench — runs one benchmark workload and prints its result as
// the last line of standard output:
//
//   wm_perfbench --workload dataset_scoring|cohort_fleet|live_paced
//                --seed N --seconds S --trace 0|1
//                [--work DIR] [--offered-pps R]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics. A failed output check prints the result with
// "correct": false and exits 1; a run that cannot complete exits 2
// without a result line.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  perfbench::RunOptions options;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args args;
  args.options.work = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      args.ok = false;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.options.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.options.trace = value == "1";
    } else if (flag == "--work") {
      args.options.work = value;
    } else if (flag == "--offered-pps") {
      args.options.offered_pps = std::stod(value);
    } else {
      args.ok = false;
    }
  }
  return args;
}

#ifndef WM_PERFBENCH_BUILD_TYPE
#define WM_PERFBENCH_BUILD_TYPE "unknown"
#endif

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);
  const perfbench::RunOptions& options = args.options;
  if (!args.ok || options.seconds <= 0.0 || options.offered_pps <= 0.0) {
    std::cerr << "usage: wm_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work DIR] [--offered-pps R]\n";
    return 2;
  }
  std::filesystem::create_directories(options.work);
  std::cerr << "perfbench: env hardware_threads=" << std::thread::hardware_concurrency()
            << " cpu=\"" << perfbench::cpu_model()
            << "\" build=" << WM_PERFBENCH_BUILD_TYPE
            << " loadavg_1m=" << perfbench::load_average_1m() << "\n";

  perfbench::RunResult result;
  if (options.workload == "dataset_scoring") {
    result = perfbench::run_dataset_scoring(options);
  } else if (options.workload == "cohort_fleet") {
    result = perfbench::run_cohort_fleet(options);
  } else if (options.workload == "live_paced") {
    result = perfbench::run_live_paced(options);
  } else {
    std::cerr << "wm_perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  for (const std::string& problem : result.problems) {
    std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
  }
  const bool correct = result.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": " << result.metrics.to_json() << "}" << std::endl;
  return correct ? 0 : 1;
} catch (const std::exception& error) {
  std::cerr << "wm_perfbench: " << error.what() << "\n";
  return 2;
}
