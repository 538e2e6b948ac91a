// Streaming runner (run_scenario_stream): byte-identity against the
// materialized runner, worker-count and shard invariance, warm-start
// chaining, and the grid-geometry helpers behind it. These pin the
// determinism contract of DESIGN.md §15: streamed bytes == materialized
// bytes, and an i/n shard split round-robins back to the single-process
// output exactly.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "util/error.hpp"

namespace latol::exp {
namespace {

Scenario from_text(const std::string& text) {
  return scenario_from_json(io::parse_json(text));
}

// 4 rows x 5 points, two tolerance columns — big enough for sharding
// and warm chains, small enough to solve in milliseconds.
constexpr const char* kGridScenario = R"({
  "name": "streamgrid",
  "base": {"k": 2},
  "axes": [
    {"param": "threads", "values": [1, 2, 3, 4]},
    {"param": "p_remote", "values": [0.05, 0.1, 0.2, 0.3, 0.4]}
  ],
  "outputs": {"network_tolerance": true, "memory_tolerance": true}
})";

std::string stream_csv(const Scenario& scenario, const RunOptions& opts,
                       RunStats* stats_out = nullptr) {
  std::ostringstream csv;
  StreamSinks sinks;
  sinks.csv = &csv;
  const RunStats st = run_scenario_stream(scenario, opts, sinks);
  if (stats_out != nullptr) *stats_out = st;
  return csv.str();
}

TEST(StreamRunner, GridSizeAndConfigAtMatchExpandGrid) {
  // The expanded cross-product: first axis outermost, last fastest.
  const Scenario scenario = from_text(kGridScenario);
  const std::vector<int> threads = {1, 2, 3, 4};
  const std::vector<double> p_remote = {0.05, 0.1, 0.2, 0.3, 0.4};
  ASSERT_EQ(grid_size(scenario), threads.size() * p_remote.size());
  std::size_t i = 0;
  for (const int t : threads) {
    for (const double p : p_remote) {
      const core::MmsConfig cfg = config_at(scenario, i++);
      EXPECT_EQ(cfg.threads_per_processor, t);
      EXPECT_DOUBLE_EQ(cfg.p_remote, p);
    }
  }
  EXPECT_THROW((void)config_at(scenario, i), InvalidArgument);
}

TEST(StreamRunner, AxislessScenarioIsOneRowOfOne) {
  const Scenario scenario = from_text(R"({"name": "solo", "base": {"k": 2}})");
  EXPECT_EQ(grid_size(scenario), 1u);
  RunStats st;
  const std::string csv = stream_csv(scenario, {}, &st);
  EXPECT_EQ(st.grid_points, 1u);
  EXPECT_EQ(st.row_length, 1u);
  EXPECT_EQ(st.rows_total, 1u);
  EXPECT_FALSE(csv.empty());
}

TEST(StreamRunner, StreamedCsvMatchesMaterializedCsv) {
  const Scenario scenario = from_text(kGridScenario);
  const RunResult run = run_scenario(scenario);
  std::ostringstream materialized;
  write_results_csv(scenario, run, materialized);
  RunStats st;
  EXPECT_EQ(stream_csv(scenario, {}, &st), materialized.str());
  EXPECT_EQ(st.grid_points, 20u);
  EXPECT_EQ(st.row_length, 5u);
  EXPECT_EQ(st.rows_total, 4u);
  EXPECT_EQ(st.rows_owned, 4u);
  EXPECT_EQ(st.failed_points, 0u);
  // Warm starting applies to every run, so a warm scenario's materialized
  // bytes equal its streamed bytes too, at any worker count.
  Scenario warm = scenario;
  warm.warm_start = true;
  for (const std::size_t workers : {1u, 4u}) {
    RunOptions opts;
    opts.workers = workers;
    std::ostringstream csv;
    write_results_csv(warm, run_scenario(warm, opts), csv);
    EXPECT_EQ(stream_csv(warm, opts), csv.str()) << workers << " workers";
  }
}

TEST(StreamRunner, WorkerCountAndBlockSizeDoNotChangeBytes) {
  const Scenario scenario = from_text(kGridScenario);
  const std::string serial = stream_csv(scenario, {});
  RunOptions opts;
  opts.workers = 8;
  EXPECT_EQ(stream_csv(scenario, opts), serial);
  opts.workers = 3;
  opts.block_points = 1;  // a window of one task more than the threads
  EXPECT_EQ(stream_csv(scenario, opts), serial);
}

TEST(StreamRunner, JsonlEmitsOneIndexedObjectPerPoint) {
  const Scenario scenario = from_text(kGridScenario);
  std::ostringstream jsonl;
  StreamSinks sinks;
  sinks.jsonl = &jsonl;
  (void)run_scenario_stream(scenario, {}, sinks);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const io::Json row = io::parse_json(line);
    ASSERT_TRUE(row.is_object());
    ASSERT_TRUE(row.contains("index"));
    EXPECT_EQ(static_cast<std::size_t>(row.find("index")->as_number()),
              count);
    EXPECT_TRUE(row.contains("U_p"));
    ++count;
  }
  EXPECT_EQ(count, 20u);
}

TEST(StreamRunner, ShardUnionReassemblesSingleProcessOutput) {
  const Scenario scenario = from_text(kGridScenario);
  const std::string whole = stream_csv(scenario, {});
  const std::size_t n = 3;
  std::vector<std::string> shard(n);
  std::vector<RunStats> stats(n);
  std::size_t rows_owned_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    RunOptions opts;
    opts.shard_index = i;
    opts.shard_count = n;
    shard[i] = stream_csv(scenario, opts, &stats[i]);
    rows_owned_total += stats[i].rows_owned;
  }
  // The shards cover the grid exactly once.
  EXPECT_EQ(rows_owned_total, stats[0].rows_total);
  // Round-robin row interleave (shard i owns rows r % n == i) equals the
  // single-process bytes: header from shard 0, then rows in grid order.
  auto split_lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string l; std::getline(is, l);) out.push_back(l);
    return out;
  };
  std::vector<std::vector<std::string>> lines;
  lines.reserve(n);
  for (const std::string& s : shard) lines.push_back(split_lines(s));
  const std::size_t row_length = stats[0].row_length;
  std::string merged = lines[0][0] + "\n";  // CSV header
  std::vector<std::size_t> cursor(n, 1);    // past each shard's header
  for (std::size_t r = 0; r < stats[0].rows_total; ++r) {
    const std::size_t s = r % n;
    for (std::size_t k = 0; k < row_length; ++k) {
      merged += lines[s][cursor[s]++] + "\n";
    }
  }
  EXPECT_EQ(merged, whole);
}

TEST(StreamRunner, RejectsShardIndexOutOfRange) {
  const Scenario scenario = from_text(kGridScenario);
  RunOptions opts;
  opts.shard_index = 2;
  opts.shard_count = 2;
  StreamSinks sinks;
  EXPECT_THROW((void)run_scenario_stream(scenario, opts, sinks),
               InvalidArgument);
}

TEST(StreamRunner, WarmStartKeepsBytesDeterministicAcrossWorkers) {
  Scenario scenario = from_text(kGridScenario);
  RunOptions warm;
  warm.warm_start = true;
  RunStats st1;
  const std::string serial = stream_csv(scenario, warm, &st1);
  EXPECT_TRUE(st1.warm);
  // Every point after the first of each row gets a hint: 4 rows of 5.
  EXPECT_EQ(st1.warm_points, 16u);
  EXPECT_GT(st1.total_iterations, 0u);
  warm.workers = 8;
  RunStats st8;
  EXPECT_EQ(stream_csv(scenario, warm, &st8), serial);
  EXPECT_EQ(st8.warm_points, st1.warm_points);
  // Sharding must not change warm bytes either (chains never cross rows).
  warm.workers = 0;
  warm.shard_count = 2;
  RunStats sh0;
  RunStats sh1;
  warm.shard_index = 0;
  const std::string s0 = stream_csv(scenario, warm, &sh0);
  warm.shard_index = 1;
  const std::string s1 = stream_csv(scenario, warm, &sh1);
  EXPECT_EQ(sh0.warm_points + sh1.warm_points, st1.warm_points);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0.size() + s1.size(),
            serial.size() + serial.substr(0, serial.find('\n') + 1).size());
}

TEST(StreamRunner, ScenarioWarmStartKeyEnablesChaining) {
  const Scenario scenario = from_text(R"({
    "name": "warmkey",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2, 0.3]}],
    "solver": {"warm_start": true}
  })");
  EXPECT_TRUE(scenario.warm_start);
  RunStats st;
  (void)stream_csv(scenario, {}, &st);
  EXPECT_TRUE(st.warm);
  EXPECT_EQ(st.warm_points, 2u);
}

TEST(StreamRunner, IsolatesFailuresAndResetsTheWarmChain) {
  // Point 1 of the row is invalid (p_remote = 2); the chain must reset
  // and the later points still answer with fresh (unhinted then hinted)
  // solves instead of extrapolating from garbage.
  const Scenario scenario = from_text(R"({
    "name": "faultywarm",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 2.0, 0.2, 0.3]}],
    "solver": {"warm_start": true}
  })");
  RunStats st;
  const std::string csv = stream_csv(scenario, {}, &st);
  EXPECT_EQ(st.failed_points, 1u);
  // The failing point was *attempted* with a hint (from 0.1); after the
  // reset 0.2 solves cold and only 0.3 chains again.
  EXPECT_EQ(st.warm_points, 2u);
  // The failed point renders with solver "error" like the materialized
  // runner; healthy points around it still carry real numbers.
  EXPECT_NE(csv.find("error"), std::string::npos);
}

// 16 rows x 4 points; with block_points = 1 the window is one task more
// than the participants, far smaller than the grid, so tasks finish out
// of order and wait in the window for the head.
constexpr const char* kSixteenRows = R"({
  "name": "sixteen",
  "base": {"k": 2},
  "axes": [
    {"param": "threads", "range": {"from": 1, "to": 16, "steps": 16}},
    {"param": "p_remote", "values": [0.05, 0.1, 0.2, 0.3]}
  ],
  "outputs": {"network_tolerance": true}
})";

std::string stream_jsonl(const Scenario& scenario, const RunOptions& opts) {
  std::ostringstream jsonl;
  StreamSinks sinks;
  sinks.jsonl = &jsonl;
  (void)run_scenario_stream(scenario, opts, sinks);
  return jsonl.str();
}

TEST(StreamRunner, WindowSmallerThanTheGridKeepsBytesAtEveryWorkerCount) {
  for (const bool warm : {false, true}) {
    Scenario scenario = from_text(kSixteenRows);
    scenario.warm_start = warm;
    std::ostringstream materialized;
    write_results_csv(scenario, run_scenario(scenario), materialized);
    RunOptions opts;
    opts.block_points = 1;
    opts.workers = 1;
    const std::string csv = stream_csv(scenario, opts);
    const std::string jsonl = stream_jsonl(scenario, opts);
    EXPECT_EQ(csv, materialized.str()) << "warm " << warm;
    for (const std::size_t workers : {3u, 8u}) {
      opts.workers = workers;
      EXPECT_EQ(stream_csv(scenario, opts), csv)
          << "warm " << warm << ", " << workers << " workers";
      EXPECT_EQ(stream_jsonl(scenario, opts), jsonl)
          << "warm " << warm << ", " << workers << " workers";
    }
  }
}

TEST(StreamRunner, LateValidationAndMidRowFailuresMatchAtEveryWorkerCount) {
  // p_remote = 2 fails the second point of every row, so each warm chain
  // resets mid-row; the validation target sits in the last row.
  Scenario scenario = from_text(R"({
    "name": "latecheck",
    "base": {"k": 2},
    "axes": [
      {"param": "threads", "range": {"from": 1, "to": 16, "steps": 16}},
      {"param": "p_remote", "values": [0.1, 2.0, 0.2, 0.3]}
    ],
    "validation": {"engine": "des", "time": 500, "seed": 9, "points": [62]},
    "outputs": {"columns": ["n_t", "p_remote", "U_p", "sim_U_p", "solver",
                            "error"]}
  })");
  for (const bool warm : {false, true}) {
    scenario.warm_start = warm;
    RunOptions opts;
    opts.block_points = 1;
    opts.workers = 1;
    RunStats serial;
    const std::string csv = stream_csv(scenario, opts, &serial);
    EXPECT_EQ(serial.simulated_points, 1u);
    EXPECT_EQ(serial.failed_points, 16u);
    EXPECT_EQ(serial.warm_points, warm ? 32u : 0u);
    EXPECT_NE(csv.find("\n16,0.20000000000000001,"), std::string::npos);
    for (const std::size_t workers : {3u, 8u}) {
      opts.workers = workers;
      RunStats st;
      EXPECT_EQ(stream_csv(scenario, opts, &st), csv)
          << "warm " << warm << ", " << workers << " workers";
      EXPECT_EQ(st.simulated_points, serial.simulated_points);
      EXPECT_EQ(st.failed_points, serial.failed_points);
      EXPECT_EQ(st.warm_points, serial.warm_points);
      EXPECT_EQ(st.total_iterations, serial.total_iterations);
    }
  }
}

TEST(StreamRunner, ManifestRecordsAxisGeometryShardAndWarmSections) {
  const Scenario scenario = from_text(kGridScenario);
  RunOptions opts;
  opts.warm_start = true;
  opts.shard_index = 1;
  opts.shard_count = 2;
  RunStats st;
  (void)stream_csv(scenario, opts, &st);
  const io::Json doc = manifest_to_json(scenario, st);
  const io::Json* axes = doc.find("axes");
  ASSERT_NE(axes, nullptr);
  ASSERT_EQ(axes->as_array().size(), 2u);
  EXPECT_EQ(axes->as_array()[0].find("points")->as_number(), 4.0);
  EXPECT_EQ(axes->as_array()[1].find("points")->as_number(), 5.0);
  EXPECT_EQ(axes->as_array()[1]
                .find("params")->as_array()[0].as_string(),
            "p_remote");
  const io::Json* grid = doc.find("grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->find("total_points")->as_number(), 20.0);
  EXPECT_EQ(grid->find("row_length")->as_number(), 5.0);
  EXPECT_EQ(grid->find("rows_total")->as_number(), 4.0);
  const io::Json* shard = doc.find("shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->find("index")->as_number(), 1.0);
  EXPECT_EQ(shard->find("count")->as_number(), 2.0);
  EXPECT_EQ(shard->find("rows_owned")->as_number(), 2.0);
  const io::Json* warm = doc.find("warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->find("enabled")->as_bool());
  // The materialized-run manifest carries the same geometry sections.
  const RunResult run = run_scenario(scenario);
  const io::Json mdoc = manifest_to_json(scenario, run);
  ASSERT_NE(mdoc.find("grid"), nullptr);
  EXPECT_EQ(mdoc.find("grid")->find("rows_total")->as_number(), 4.0);
  EXPECT_EQ(mdoc.find("shard")->find("count")->as_number(), 1.0);
}

}  // namespace
}  // namespace latol::exp
