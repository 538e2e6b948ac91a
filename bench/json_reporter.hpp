// Google-benchmark reporter that tees results to a JSON file through the
// project's own writer (io::Json), so perf numbers are machine-readable
// for CI trend tracking without google-benchmark's --benchmark_out flag
// being part of every invocation.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace latol::bench {

/// Prints the normal console table AND writes `path` on Finalize with
/// {"benchmarks": [{name, run_type, iterations, real_time, cpu_time,
/// time_unit, items_per_second?, label?}, ...]}. `run_type` is
/// "iteration" for a measured run (one row per repetition under
/// --benchmark_repetitions) and "aggregate" for google-benchmark's
/// mean/median/stddev rows. Errored runs are skipped.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      io::Json entry = io::Json::object();
      entry.set("name", run.benchmark_name());
      entry.set("run_type", run.run_type == Run::RT_Aggregate ? "aggregate"
                                                              : "iteration");
      entry.set("iterations", static_cast<double>(run.iterations));
      entry.set("real_time", run.GetAdjustedRealTime());
      entry.set("cpu_time", run.GetAdjustedCPUTime());
      entry.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        entry.set("items_per_second", static_cast<double>(items->second));
      }
      if (!run.report_label.empty()) entry.set("label", run.report_label);
      benchmarks_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    io::Json doc = io::Json::object();
    io::Json list = io::Json::array();
    for (io::Json& b : benchmarks_) list.push_back(std::move(b));
    doc.set("benchmarks", std::move(list));
    io::write_json_file(path_, doc);
    benchmark::ConsoleReporter::Finalize();
  }

 private:
  std::string path_;
  std::vector<io::Json> benchmarks_;
};

/// Shared main: run all registered benchmarks, teeing to `json_path`.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& json_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter(json_path);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace latol::bench
