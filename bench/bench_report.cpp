#include "bench_report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wm::bench {

namespace {

using util::JsonObject;
using util::JsonValue;

/// Depth-first sweep for version 2 throughput rows (objects that
/// advertise a "packets_per_sec" key), wherever they sit in the tree.
void check_rows(const JsonValue& value, const std::string& where,
                std::vector<std::string>& problems) {
  if (value.is_array()) {
    std::size_t i = 0;
    for (const JsonValue& element : value.as_array()) {
      check_rows(element, where + "[" + std::to_string(i++) + "]", problems);
    }
    return;
  }
  if (!value.is_object()) return;
  const JsonObject& object = value.as_object();
  if (object.count("packets_per_sec") != 0) {
    std::vector<const char*> required = {"seconds", "packets",
                                         "packets_per_sec"};
    // Rows that advertise byte rates must back them with real byte
    // counts; packet-rate-only rows simply omit both keys.
    const bool has_bytes =
        object.count("bytes") != 0 || object.count("bytes_per_sec") != 0;
    if (has_bytes) {
      required.push_back("bytes");
      required.push_back("bytes_per_sec");
    }
    for (const char* key : required) {
      if (object.count(key) == 0) {
        problems.push_back(where + ": throughput row missing \"" + key + "\"");
      } else if (!object.at(key).is_number()) {
        problems.push_back(where + ": \"" + key + "\" is not a number");
      }
    }
    // A row that moved packets must say how many bytes they were.
    if (has_bytes && object.count("packets") != 0 &&
        object.count("bytes") != 0 && object.at("packets").is_number() &&
        object.at("bytes").is_number() &&
        object.at("packets").as_double() > 0.0 &&
        object.at("bytes").as_double() <= 0.0) {
      problems.push_back(where +
                         ": packets > 0 but bytes == 0 (missing byte accounting)");
    }
  }
  for (const auto& [key, child] : object) {
    check_rows(child, where.empty() ? key : where + "." + key, problems);
  }
}

/// Whether `object` holds `key` with a value of the kind `is` tests.
bool has(const JsonValue& object, const char* key, bool (JsonValue::*is)() const) {
  return object.contains(key) && (object.at(key).*is)();
}

std::map<std::string, std::string> metric_units(const JsonValue& list) {
  std::map<std::string, std::string> units;
  for (const JsonValue& metric : list.as_array()) {
    units[metric.at("name").as_string()] = metric.at("unit").as_string();
  }
  return units;
}

/// The fields a perfbench result line carries: the answer checks and
/// the metrics, named and unit-checked against the traced or untraced
/// catalogue, every one of whose metrics the line must report.
void check_result(const JsonValue& row, bool traced, const Spec& spec,
                  const std::string& where, std::vector<std::string>& problems) {
  if (!row.is_object()) {
    problems.push_back(where + ": not a JSON object");
    return;
  }
  if (!has(row, "correct", &JsonValue::is_bool)) {
    problems.push_back(where + ": missing boolean \"correct\"");
  } else if (!row.at("correct").as_bool()) {
    problems.push_back(where + ": \"correct\" is false (an answer check failed)");
  }
  if (!has(row, "attempted", &JsonValue::is_int)) {
    problems.push_back(where + ": missing integer \"attempted\"");
  }
  if (!has(row, "failed", &JsonValue::is_int)) {
    problems.push_back(where + ": missing integer \"failed\"");
  } else if (row.at("failed").as_int() != 0) {
    problems.push_back(where + ": \"failed\" is " +
                       std::to_string(row.at("failed").as_int()) + ", not 0");
  }
  if (!has(row, "metrics", &JsonValue::is_object)) {
    problems.push_back(where + ": missing object \"metrics\"");
    return;
  }
  const auto& catalogue = traced ? spec.per_layer : spec.end_to_end;
  const char* catalogue_name = traced ? "per_layer" : "end_to_end";
  const JsonValue& metrics = row.at("metrics");
  for (const auto& [name, unit] : catalogue) {
    if (!metrics.contains(name)) {
      problems.push_back(where + ": lacks BENCHMARK.json " + catalogue_name +
                         " metric \"" + name + "\"");
    }
  }
  for (const auto& [name, metric] : metrics.as_object()) {
    const std::string at = where + ": metric \"" + name + "\"";
    const auto known = catalogue.find(name);
    if (known == catalogue.end()) {
      problems.push_back(at + " is not in BENCHMARK.json " + catalogue_name);
      continue;
    }
    if (!metric.is_object() || !has(metric, "value", &JsonValue::is_number) ||
        !has(metric, "unit", &JsonValue::is_string)) {
      problems.push_back(at + " is not {\"value\": number, \"unit\": string}");
    } else if (metric.at("unit").as_string() != known->second) {
      problems.push_back(at + " has unit \"" + metric.at("unit").as_string() +
                         "\", BENCHMARK.json says \"" + known->second + "\"");
    }
  }
}

void check_run(const JsonValue& run, const Spec& spec, const std::string& where,
               std::vector<std::string>& problems) {
  if (!run.is_object()) {
    problems.push_back(where + ": not a JSON object");
    return;
  }
  if (!has(run, "workload", &JsonValue::is_string)) {
    problems.push_back(where + ": missing string \"workload\"");
  } else if (spec.workloads.count(run.at("workload").as_string()) == 0) {
    problems.push_back(where + ": workload \"" + run.at("workload").as_string() +
                       "\" is not in BENCHMARK.json");
  }
  if (!has(run, "seed", &JsonValue::is_int)) {
    problems.push_back(where + ": missing integer \"seed\"");
  }
  if (!has(run, "seconds", &JsonValue::is_number)) {
    problems.push_back(where + ": missing number \"seconds\"");
  }
  bool traced = false;
  if (!has(run, "trace", &JsonValue::is_int) ||
      (run.at("trace").as_int() != 0 && run.at("trace").as_int() != 1)) {
    problems.push_back(where + ": \"trace\" must be 0 or 1");
  } else {
    traced = run.at("trace").as_int() == 1;
  }
  if (!has(run, "env", &JsonValue::is_object)) {
    problems.push_back(where + ": missing object \"env\"");
  } else {
    const JsonValue& env = run.at("env");
    if (!has(env, "hardware_threads", &JsonValue::is_int)) {
      problems.push_back(where + ": missing integer \"env.hardware_threads\"");
    }
    for (const char* key : {"cpu", "build"}) {
      if (!has(env, key, &JsonValue::is_string)) {
        problems.push_back(where + ": missing string \"env." + key + "\"");
      }
    }
  }
  check_result(run, traced, spec, where, problems);
}

void check_version3(const JsonValue& document, const Spec& spec,
                    std::vector<std::string>& problems) {
  if (!has(document, "commit", &JsonValue::is_string)) {
    problems.emplace_back("missing string field \"commit\"");
  }
  if (!has(document, "runs", &JsonValue::is_array) ||
      document.at("runs").as_array().empty()) {
    problems.emplace_back("missing non-empty array \"runs\"");
    return;
  }
  std::size_t i = 0;
  for (const JsonValue& run : document.at("runs").as_array()) {
    check_run(run, spec, "runs[" + std::to_string(i++) + "]", problems);
  }
}

/// numerator / denominator, or a metric that is a ratio in its own
/// right when `denominator` is empty.
struct GateRatio {
  std::string numerator;
  std::string denominator;
};

const GateRatio kGateRatios[] = {
    {"tls.extract.batch_ns_per_pkt", "tls.extract.feed_ns_per_pkt"},
    {"net.decode.slab_ns_per_pkt", "net.decode.scalar_ns_per_pkt"},
    {"net.capture.read_views_ns_per_pkt", "net.capture.read_batch_ns_per_pkt"},
    {"trace.overhead_ratio", ""},
};

double metric_value(const JsonValue& row, const std::string& name) {
  const JsonValue& metrics = row.at("metrics");
  if (!metrics.contains(name)) throw std::runtime_error("no metric \"" + name + "\"");
  return metrics.at(name).at("value").as_double();
}

double ratio_value(const JsonValue& row, const GateRatio& ratio) {
  const double numerator = metric_value(row, ratio.numerator);
  if (ratio.denominator.empty()) return numerator;
  const double denominator = metric_value(row, ratio.denominator);
  if (!(denominator > 0.0)) {
    throw std::runtime_error("\"" + ratio.denominator + "\" is not positive");
  }
  return numerator / denominator;
}

std::string ratio_name(const GateRatio& ratio) {
  return ratio.denominator.empty() ? ratio.numerator
                                   : ratio.numerator + " / " + ratio.denominator;
}

}  // namespace

Spec load_spec(const std::filesystem::path& path) {
  const JsonValue document = load_json(path);
  try {
    Spec spec;
    for (const JsonValue& workload : document.at("workloads").as_array()) {
      spec.workloads.insert(workload.at("name").as_string());
    }
    spec.end_to_end = metric_units(document.at("end_to_end"));
    spec.per_layer = metric_units(document.at("per_layer"));
    return spec;
  } catch (const std::exception& error) {
    throw std::runtime_error(path.string() + ": not a benchmark spec: " + error.what());
  }
}

JsonValue load_json(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path.string() + ": cannot open");
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return JsonValue::parse(buffer.str());
  } catch (const std::exception& error) {
    throw std::runtime_error(path.string() + ": parse error: " + error.what());
  }
}

std::vector<std::string> validate(const JsonValue& document, const Spec& spec) {
  std::vector<std::string> problems;
  if (!document.is_object()) {
    problems.emplace_back("document is not a JSON object");
    return problems;
  }
  if (!has(document, "bench", &JsonValue::is_string)) {
    problems.emplace_back("missing string field \"bench\"");
  }
  std::int64_t version = 0;
  if (!has(document, "version", &JsonValue::is_int)) {
    problems.emplace_back("missing integer field \"version\"");
  } else {
    version = document.at("version").as_int();
    if (version < 1 || version > kBenchSchemaVersion) {
      problems.push_back("unknown schema version " + std::to_string(version));
    }
  }
  if (version == 2) {
    if (!has(document, "smoke", &JsonValue::is_bool)) {
      problems.emplace_back("missing boolean field \"smoke\"");
    }
    check_rows(document, "", problems);
  } else if (version == 3) {
    check_version3(document, spec, problems);
  }
  return problems;
}

std::vector<std::string> validate_file(const std::filesystem::path& path,
                                       const Spec& spec) {
  std::vector<std::string> problems;
  try {
    problems = validate(load_json(path), spec);
  } catch (const std::exception& error) {
    return {error.what()};
  }
  for (std::string& problem : problems) {
    problem = path.string() + ": " + problem;
  }
  return problems;
}

std::vector<std::string> check_ratios(const JsonValue& reference, const JsonValue& line,
                                      const Spec& spec) {
  std::vector<std::string> problems = validate(reference, spec);
  if (problems.empty() && reference.at("version").as_int() != kBenchSchemaVersion) {
    problems.emplace_back("reference is not a version 3 (perfbench) document");
  }
  for (std::string& problem : problems) problem = "reference: " + problem;
  check_result(line, true, spec, "result line", problems);
  if (!problems.empty()) return problems;

  const JsonValue* baseline = nullptr;
  for (const JsonValue& run : reference.at("runs").as_array()) {
    if (run.at("workload").as_string() == "dataset_scoring" &&
        run.at("trace").as_int() == 1) {
      baseline = &run;
    }
  }
  if (baseline == nullptr) {
    return {"reference: no traced dataset_scoring run"};
  }
  for (const GateRatio& ratio : kGateRatios) {
    const std::string name = ratio_name(ratio);
    try {
      const double was = ratio_value(*baseline, ratio);
      const double now = ratio_value(line, ratio);
      if (now > kRatioLimit * was) {
        std::ostringstream message;
        message << name << " is " << now << ", more than " << kRatioLimit << "x the "
                << "reference " << was;
        problems.push_back(message.str());
      }
    } catch (const std::exception& error) {
      problems.push_back(name + ": " + error.what());
    }
  }
  return problems;
}

}  // namespace wm::bench
