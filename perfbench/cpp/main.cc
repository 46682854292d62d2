// The OpineDB benchmark program. Runs one workload through the HTTP front
// door and prints, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"} with every metric it
// measured. Above it, a human-readable block gives the host, the traffic
// properties, the output-check result and every measured metric with
// unit and sample count. Normally started through run.py, which builds
// it first and keeps, from the result object, the metrics BENCHMARK.json
// declares for the mode (end-to-end for --trace 0, per-layer for 1).
//
//   opinedb_perfbench --workload serve_read|ingest_mix
//       --seed N --seconds S --trace 0|1 --work-dir DIR
//       [--results-dir DIR] [--git-sha SHA] [--source-hash HASH]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: opinedb_perfbench --workload serve_read|ingest_mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--results-dir DIR] [--git-sha SHA] [--source-hash HASH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace") ||
      !args.count("work-dir")) {
    return Usage();
  }
  options.workload = args["workload"];
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.work_dir = args["work-dir"];
  options.results_dir = args.count("results-dir") ? args["results-dir"]
                                                  : options.work_dir;
  options.git_sha = args.count("git-sha") ? args["git-sha"] : "unknown";
  options.source_hash =
      args.count("source-hash") ? args["source-hash"] : "unknown";
  if (!(options.seconds > 0.0) ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return Usage();
  }

  Outcome outcome;
  if (options.workload == "serve_read") {
    outcome = RunServeRead(options);
  } else if (options.workload == "ingest_mix") {
    outcome = RunIngestMix(options);
  } else {
    return Usage();
  }

  const std::string host = HostBlockJson(DetectHost(), options);
  const bool correct = outcome.failed == 0;

  std::printf("== opinedb perfbench: workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: %s\n", host.c_str());
  for (const auto& note : outcome.notes) std::printf("%s\n", note.c_str());
  std::printf("output check: %s (%llu attempted, %llu failed, %llu "
              "mismatches)\n",
              correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.mismatches));
  std::printf("measured metrics (name, value, unit, samples):\n%s",
              outcome.report.Table().c_str());

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.results_dir, ec);
  const std::string stem =
      (fs::path(options.results_dir) /
       (options.workload + "-seed" + std::to_string(options.seed) +
        (options.trace ? "-trace" : "")))
          .string();
  const std::string result =
      outcome.report.ResultLine(correct, outcome.attempted, outcome.failed);
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": \"" << options.workload
        << "\", \"seed\": " << options.seed
        << ", \"seconds\": " << FormatNumber(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"host\": " << host
        << ", \"metrics\": [";
    const auto& metrics = outcome.report.metrics();
    for (size_t i = 0; i < metrics.size(); ++i) {
      out << (i > 0 ? ", " : "") << "{\"name\": \"" << metrics[i].name
          << "\", \"value\": " << FormatNumber(metrics[i].value)
          << ", \"unit\": \"" << metrics[i].unit
          << "\", \"samples\": " << metrics[i].samples << "}";
    }
    out << "], \"result\": " << result << "}\n";
  }
  if (!outcome.span_lines.empty()) {
    std::ofstream out(stem + "-spans.jsonl");
    for (const auto& line : outcome.span_lines) out << line << '\n';
    std::printf("spans: %zu traced requests written to %s-spans.jsonl\n",
                outcome.span_lines.size(), stem.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::SampleGuardError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
