// Large-sweep throughput: the streaming scenario runner's points/sec —
// cold and warm-started — and the sharded solve cache under concurrent
// lookups. These guard the million-point sweep path (DESIGN.md §15):
// check_bench_regression.py compares the JSON tee against
// baselines/BENCH_sweep.json, so a change that slows streamed solving or
// reintroduces cache lock contention fails CI.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "json_reporter.hpp"

namespace {

using namespace latol;

// 8 rows x 16 points of the fig04 shape (k=2 so a point solves in tens
// of microseconds); big enough that per-block overhead amortizes, small
// enough for a benchmark iteration.
exp::Scenario sweep_scenario(bool warm) {
  std::string text = R"({
    "name": "perf_sweep",
    "base": {"k": 2, "memory_latency": 2.0, "switch_delay": 2.0},
    "axes": [
      {"param": "threads", "range": {"from": 1, "to": 8, "steps": 8}},
      {"param": "p_remote", "range": {"from": 0.02, "to": 0.62, "steps": 16}}
    ],
    "outputs": {"network_tolerance": true},
    "solver": {"warm_start": )" +
                     std::string(warm ? "true" : "false") + "}}";
  return exp::scenario_from_json(io::parse_json(text));
}

// Streamed sweep throughput in points/s, the headline number for
// docs/PERFORMANCE.md §7. One pool worker so the number tracks solver +
// emission cost, not the machine's core count. Real time: the worker and
// the calling thread share the points, and the benchmark thread's CPU
// time would count only the caller's share.
void BM_StreamSweepPointsPerSec(benchmark::State& state) {
  const exp::Scenario scenario = sweep_scenario(false);
  exp::RunOptions opts;
  opts.workers = 1;
  std::size_t points = 0;
  for (auto _ : state) {
    std::ostringstream csv;
    exp::StreamSinks sinks;
    sinks.csv = &csv;
    const exp::RunStats st = exp::run_scenario_stream(scenario, opts, sinks);
    points = st.grid_points;
    benchmark::DoNotOptimize(csv.str().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
}
BENCHMARK(BM_StreamSweepPointsPerSec)->UseRealTime();

// Same grid with warm-start chaining: hints cut AMVA iterations along
// each row, so points/s should sit above the cold number.
void BM_StreamSweepWarmPointsPerSec(benchmark::State& state) {
  const exp::Scenario scenario = sweep_scenario(true);
  exp::RunOptions opts;
  opts.workers = 1;
  std::size_t points = 0;
  for (auto _ : state) {
    std::ostringstream csv;
    exp::StreamSinks sinks;
    sinks.csv = &csv;
    const exp::RunStats st = exp::run_scenario_stream(scenario, opts, sinks);
    points = st.grid_points;
    benchmark::DoNotOptimize(csv.str().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
}
BENCHMARK(BM_StreamSweepWarmPointsPerSec)->UseRealTime();

// Parallel streamed sweep: the row-parallel path through the shared
// worker pool plus ordered emission. Real time, since work spreads over
// the pool.
void BM_StreamSweepParallel(benchmark::State& state) {
  const exp::Scenario scenario = sweep_scenario(false);
  exp::RunOptions opts;
  opts.workers = 4;
  std::size_t points = 0;
  for (auto _ : state) {
    std::ostringstream csv;
    exp::StreamSinks sinks;
    sinks.csv = &csv;
    const exp::RunStats st = exp::run_scenario_stream(scenario, opts, sinks);
    points = st.grid_points;
    benchmark::DoNotOptimize(csv.str().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
}
BENCHMARK(BM_StreamSweepParallel)->UseRealTime();

// Concurrent hot-cache lookups. One shard serializes every thread on a
// single mutex; the sharded store spreads them. Items = lookups, real
// time across the contending threads.
void BM_CacheHitsUnderContention(benchmark::State& state) {
  static exp::SolveCache* cache = [] {
    auto* c = new exp::SolveCache(16);
    for (int n = 1; n <= 16; ++n) {
      core::MmsConfig cfg = core::MmsConfig::paper_defaults();
      cfg.k = 2;
      cfg.threads_per_processor = n;
      (void)c->analyze(cfg, {});
    }
    return c;
  }();
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = 2;
  int64_t lookups = 0;
  for (auto _ : state) {
    for (int n = 1; n <= 16; ++n) {
      cfg.threads_per_processor = n;
      benchmark::DoNotOptimize(cache->analyze(cfg, {}));
    }
    lookups += 16;
  }
  state.SetItemsProcessed(lookups);
}
BENCHMARK(BM_CacheHitsUnderContention)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return latol::bench::run_benchmarks_with_json(argc, argv,
                                                "BENCH_sweep.json");
}
