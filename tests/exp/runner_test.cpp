#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "obs/registry.hpp"
#include "qn/robust.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace latol::exp {
namespace {

Scenario from_text(const std::string& text) {
  return scenario_from_json(io::parse_json(text));
}

// A small 2x2-torus grid that solves in microseconds.
constexpr const char* kSmallScenario = R"({
  "name": "small",
  "base": {"k": 2},
  "axes": [
    {"param": "threads", "values": [1, 2, 4]},
    {"param": "p_remote", "values": [0.1, 0.2]}
  ],
  "outputs": {"network_tolerance": true}
})";

TEST(Runner, SolvesEveryGridPointCleanly) {
  const RunResult run = run_scenario(from_text(kSmallScenario));
  ASSERT_EQ(run.points.size(), 6u);
  EXPECT_EQ(run.stats.grid_points, 6u);
  EXPECT_EQ(run.stats.failed_points, 0u);
  EXPECT_EQ(run.stats.degraded_points, 0u);
  for (const PointResult& p : run.points) {
    EXPECT_FALSE(p.model.error.has_value());
    EXPECT_GT(p.model.perf.processor_utilization, 0.0);
    ASSERT_TRUE(p.model.tol_network.has_value());
    EXPECT_GT(*p.model.tol_network, 0.0);
    EXPECT_LE(*p.model.tol_network, 1.0 + 1e-9);
  }
}

TEST(Runner, SharesIdealSolvesThroughTheCache) {
  SolveCache cache;
  RunOptions opts;
  opts.cache = &cache;
  const RunResult run = run_scenario(from_text(kSmallScenario), opts);
  // 6 actual solves + ideal solves. The ideal system zeroes p_remote, so
  // both p_remote values share one ideal per thread count: 3 ideals.
  EXPECT_EQ(run.stats.solves, 9u);
  EXPECT_EQ(run.stats.cache_hits, 3u);
  EXPECT_GT(run.stats.cache_hits, 0u);
}

TEST(Runner, DeduplicatesIdenticalGridPoints) {
  // The cache deduplicates: a duplicate grid point costs no second solve,
  // only a hit on the first occurrence's entry, and gets equal values.
  // Points 7 and 8 are equal and may solve at the same time, in either
  // order; the first in grid order still reports the miss.
  SolveCache cache;
  RunOptions opts;
  opts.cache = &cache;
  opts.workers = 1;
  const RunResult run = run_scenario(from_text(R"({
    "name": "dupes",
    "base": {"k": 4},
    "axes": [{"param": "p_remote", "values": [0.10, 0.12, 0.14, 0.16, 0.18,
      0.20, 0.22, 0.30, 0.30, 0.32, 0.34, 0.36, 0.38, 0.40, 0.42, 0.44]}]
  })"),
                                     opts);
  EXPECT_EQ(run.stats.grid_points, 16u);
  EXPECT_EQ(run.stats.unique_points, 16u);  // the points this run owned
  EXPECT_EQ(run.stats.solves, 15u);
  EXPECT_EQ(run.stats.cache_hits, 1u);
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    EXPECT_EQ(run.points[i].cache_hit, i == 8) << "point " << i;
  }
  EXPECT_EQ(run.points[7].model.perf.processor_utilization,
            run.points[8].model.perf.processor_utilization);
  EXPECT_EQ(run.points[7].model.perf.solver_iterations,
            run.points[8].model.perf.solver_iterations);
}

TEST(Runner, DuplicatePointsReportTheSameCacheHitsAtEveryWorkerCount) {
  // Three rows of the same four points, and a repeat inside each row:
  // copies solve concurrently in any order, yet the flags are the grid
  // order's (the first copy misses, every later copy hits).
  const Scenario scenario = from_text(R"({
    "name": "manydupes",
    "base": {"k": 2},
    "axes": [
      {"param": "memory_latency", "values": [1, 1, 1]},
      {"param": "p_remote", "values": [0.1, 0.2, 0.1, 0.3, 0.4]}
    ]
  })");
  const auto flags = [&](std::size_t workers) {
    SolveCache cache;
    RunOptions opts;
    opts.cache = &cache;
    opts.workers = workers;
    opts.block_points = 1;
    const RunResult run = run_scenario(scenario, opts);
    std::vector<bool> hit;
    for (const PointResult& p : run.points) hit.push_back(p.cache_hit);
    return hit;
  };
  const std::vector<bool> serial = flags(1);
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  true,  true, true,  true,
                                      true,  true,  true, true,  true};
  EXPECT_EQ(serial, expected);
  for (int repeat = 0; repeat < 20; ++repeat) {
    EXPECT_EQ(flags(4), serial);
    EXPECT_EQ(flags(8), serial);
  }
}

TEST(Runner, RethrowsAPointErrorAsTheExceptionItsSolveRaised) {
  // A configuration the model rejects was an InvalidArgument.
  const RunResult bad = run_scenario(from_text(R"({
    "name": "off_machine",
    "base": {"k": 2, "hotspot_node": 99, "hotspot_fraction": 0.2},
    "axes": [{"param": "threads", "values": [1]}]
  })"));
  ASSERT_TRUE(bad.points[0].model.error.has_value());
  try {
    rethrow_point_error(bad.points[0]);
    FAIL() << "no exception";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(e.what(), *bad.points[0].model.error);
  }
  // A solve past its deadline was a SolverError with that code.
  util::CancelToken token;
  token.cancel();
  RunOptions opts;
  opts.cancel = &token;
  const RunResult late = run_scenario(from_text(kSmallScenario), opts);
  ASSERT_TRUE(late.points[0].model.error.has_value());
  try {
    rethrow_point_error(late.points[0]);
    FAIL() << "no exception";
  } catch (const qn::SolverError& e) {
    EXPECT_EQ(e.code(), qn::SolverErrorCode::kDeadlineExceeded);
    EXPECT_EQ(e.what(), *late.points[0].model.error);
  }
}

TEST(Runner, WorkerCountDoesNotChangeOutputBytes) {
  const Scenario scenario = from_text(R"({
    "name": "det",
    "base": {"k": 2},
    "axes": [
      {"param": "threads", "values": [1, 2, 3, 4]},
      {"param": "p_remote", "values": [0.05, 0.1, 0.2, 0.4]}
    ],
    "outputs": {"network_tolerance": true, "memory_tolerance": true}
  })");
  const auto render = [&](std::size_t workers) {
    RunOptions opts;
    opts.workers = workers;
    const RunResult run = run_scenario(scenario, opts);
    std::ostringstream csv;
    write_results_csv(scenario, run, csv);
    return csv.str() + results_to_json(scenario, run).dump(2);
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(8));
  // A warmed cache must not change the bytes either.
  SolveCache cache;
  RunOptions opts;
  opts.cache = &cache;
  (void)run_scenario(scenario, opts);
  const RunResult warm = run_scenario(scenario, opts);
  EXPECT_EQ(warm.stats.solves, 0u);
  std::ostringstream csv;
  write_results_csv(scenario, warm, csv);
  EXPECT_EQ(serial.substr(0, csv.str().size()), csv.str());
}

TEST(Runner, IsolatesFailingPoints) {
  // p_remote = 2 is an invalid probability: that point fails, the rest
  // of the grid still answers.
  const RunResult run = run_scenario(from_text(R"({
    "name": "faulty",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 2.0]}]
  })"));
  EXPECT_EQ(run.stats.failed_points, 1u);
  EXPECT_FALSE(run.points[0].model.error.has_value());
  ASSERT_TRUE(run.points[1].model.error.has_value());
  EXPECT_EQ(run.points[1].model.error_code,
            qn::SolverErrorCode::kInvalidNetwork);
  // The failed point renders as the bench convention: solver "error",
  // converged 0, metrics zero.
  const Scenario s = from_text(R"({
    "name": "faulty",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 2.0]}],
    "outputs": {"columns": ["p_remote", "U_p", "solver", "converged", "error"]}
  })");
  std::ostringstream csv;
  write_results_csv(s, run, csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("2,0,error,0,"), std::string::npos) << text;
  // JSON carries the message in the errors section.
  const io::Json doc = results_to_json(s, run);
  ASSERT_EQ(doc.find("errors")->as_array().size(), 1u);
  EXPECT_EQ(doc.find("errors")->as_array()[0].find("point")->as_number(), 1.0);
}

TEST(Runner, ValidationSimulatesRequestedPoints) {
  const Scenario scenario = from_text(R"({
    "name": "val",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2]}],
    "validation": {"engine": "des", "time": 2000, "seed": 3, "points": [1]},
    "outputs": {"columns": ["p_remote", "U_p", "sim_U_p"]}
  })");
  const RunResult run = run_scenario(scenario);
  EXPECT_EQ(run.stats.simulated_points, 1u);
  EXPECT_FALSE(run.points[0].sim.has_value());
  ASSERT_TRUE(run.points[1].sim.has_value());
  EXPECT_EQ(run.points[1].sim->seed, 4u);  // spec seed 3 + point index 1
  EXPECT_GT(run.points[1].sim->processor_utilization, 0.0);
  // Model and simulator agree loosely even on a short run.
  EXPECT_NEAR(run.points[1].sim->processor_utilization,
              run.points[1].model.perf.processor_utilization, 0.2);
  // The unsimulated point renders sim_U_p as an empty CSV cell / JSON null.
  std::ostringstream csv;
  write_results_csv(scenario, run, csv);
  EXPECT_NE(csv.str().find(",\n"), std::string::npos);  // empty sim cell
  const io::Json doc = results_to_json(scenario, run);
  EXPECT_TRUE(doc.find("rows")->as_array()[0].find("sim_U_p")->is_null());
  EXPECT_FALSE(doc.find("rows")->as_array()[1].find("sim_U_p")->is_null());
  // Out-of-grid validation indices are a scenario error, not a point error.
  EXPECT_THROW(run_scenario(from_text(R"({
    "name": "bad",
    "base": {"k": 2},
    "validation": {"points": [5]}
  })")),
               InvalidArgument);
}

TEST(Runner, ManifestRecordsProvenance) {
  const Scenario scenario = from_text(kSmallScenario);
  SolveCache cache;
  RunOptions opts;
  opts.cache = &cache;
  opts.workers = 2;
  const RunResult run = run_scenario(scenario, opts);
  const io::Json m = manifest_to_json(scenario, run);
  EXPECT_EQ(m.find("scenario")->as_string(), "small");
  EXPECT_EQ(m.find("scenario_hash")->as_string().substr(0, 8), "fnv1a64:");
  EXPECT_EQ(m.find("build")->as_string(), build_version());
  EXPECT_EQ(m.find("grid_points")->as_number(), 6.0);
  EXPECT_EQ(m.find("degraded_points")->as_number(), 0.0);
  EXPECT_EQ(m.find("failed_points")->as_number(), 0.0);
  EXPECT_EQ(m.find("workers")->as_number(), 2.0);
  EXPECT_GE(m.find("wall_seconds")->as_number(), 0.0);
  const io::Json* prov = m.find("solver_provenance");
  ASSERT_NE(prov, nullptr);
  double counted = 0;
  for (const auto& [name, n] : prov->as_object()) counted += n.as_number();
  EXPECT_EQ(counted, 6.0);
}

// The one shared definition of solve health (qn/robust.hpp documents this
// truth table as regression-tested here).
TEST(HealthPredicates, TruthTable) {
  static_assert(qn::solve_converged(false, true));
  static_assert(!qn::solve_converged(true, true));
  static_assert(!qn::solve_converged(false, false));
  static_assert(qn::solve_clean(false, true, false));
  static_assert(!qn::solve_clean(false, true, true));   // fallback answered
  static_assert(!qn::solve_clean(false, false, false)); // not converged
  static_assert(!qn::solve_clean(true, true, false));   // errored
  SUCCEED();
}

// Regression: the manifest's degraded count and the CSV `converged` column
// used to be computed in two places and could drift. Both now derive from
// the shared qn predicates — force degraded-but-converged points (AMVA
// starved of iterations, Linearizer fallback answers) and check the two
// artifacts agree with the predicates and each other.
TEST(HealthPredicates, ManifestAndCsvDeriveFromTheSamePredicates) {
  const Scenario scenario = from_text(R"({
    "name": "degraded",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.2, 0.4]}],
    "solver": {"max_iterations": 2},
    "outputs": {"columns": ["p_remote", "solver", "converged"]}
  })");
  const RunResult run = run_scenario(scenario);
  ASSERT_EQ(run.points.size(), 2u);
  std::size_t unhealthy = 0;
  for (const PointResult& p : run.points) {
    // The fallback converged, so the points are degraded yet converged —
    // exactly the case where the two ad-hoc definitions used to disagree.
    EXPECT_TRUE(p.model.perf.degraded);
    EXPECT_TRUE(qn::solve_converged(p.model.error.has_value(),
                                    p.model.perf.converged));
    EXPECT_FALSE(p.model.healthy());
    if (!p.model.healthy() || p.ideal_degraded) ++unhealthy;
  }
  const io::Json m = manifest_to_json(scenario, run);
  EXPECT_EQ(m.find("degraded_points")->as_number(),
            static_cast<double>(unhealthy));
  EXPECT_EQ(run.stats.degraded_points, unhealthy);
  std::ostringstream csv;
  write_results_csv(scenario, run, csv);
  // Every data row's `converged` cell (last column) must match
  // qn::solve_converged — here "1" despite the degraded flag.
  const std::string text = csv.str();
  std::size_t rows = 0;
  for (std::size_t pos = text.find('\n');
       pos != std::string::npos && pos + 1 < text.size();
       pos = text.find('\n', pos + 1)) {
    const std::size_t end = text.find('\n', pos + 1);
    const std::string row = text.substr(pos + 1, end - pos - 1);
    if (row.empty()) continue;
    EXPECT_EQ(row.substr(row.rfind(',') + 1), "1") << row;
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(SolveCache, ReportsPerLookupHitsAndTraceKeying) {
  SolveCache cache;
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = 2;
  const qn::AmvaOptions plain;
  bool hit = true;
  const core::MmsPerformance first = cache.analyze(cfg, plain, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(first.residual_history.empty());
  (void)cache.analyze(cfg, plain, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // record_trace is part of the key: a traced solve of the same
  // configuration is a distinct entry and actually carries its history.
  qn::AmvaOptions traced;
  traced.record_trace = true;
  const core::MmsPerformance with_trace = cache.analyze(cfg, traced, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(with_trace.residual_history.empty());
  EXPECT_EQ(with_trace.residual_history.size(),
            static_cast<std::size_t>(with_trace.solver_iterations));
  // Identical numbers either way: tracing only observes.
  EXPECT_EQ(first.processor_utilization, with_trace.processor_utilization);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SolveCache, CapacityEvictsOldestCompletedEntriesFifo) {
  SolveCache cache;
  qn::AmvaOptions opts;
  auto config_for = [](double p) {
    core::MmsConfig cfg = core::MmsConfig::paper_defaults();
    cfg.k = 2;
    cfg.p_remote = p;
    return cfg;
  };
  for (const double p : {0.1, 0.2, 0.3}) {
    (void)cache.analyze(config_for(p), opts);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The oldest entry (p=0.1) was dropped: solving it again is a miss; the
  // newest (p=0.3) is still a hit.
  bool hit = true;
  (void)cache.analyze(config_for(0.3), opts, &hit);
  EXPECT_TRUE(hit);
  (void)cache.analyze(config_for(0.1), opts, &hit);
  EXPECT_FALSE(hit);
  // That insert pushed past capacity again and evicted FIFO.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  // Capacity 0 = unlimited again.
  cache.set_capacity(0);
  (void)cache.analyze(config_for(0.5), opts);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(Runner, MetricsDocumentRoundTripsThroughIo) {
  Scenario scenario = from_text(kSmallScenario);
  scenario.amva.record_trace = true;
  obs::Registry registry;
  obs::Registry* const previous = obs::set_default_registry(&registry);
  SolveCache cache;
  RunOptions opts;
  opts.cache = &cache;
  const RunResult run = run_scenario(scenario, opts);
  obs::set_default_registry(previous);

  const obs::Snapshot snapshot = registry.snapshot();
  const io::Json rendered = metrics_to_json(scenario, run, &snapshot);
  // The document must survive a full serialize/parse round trip.
  const io::Json doc = io::parse_json(rendered.dump(2));
  EXPECT_EQ(doc.find("format")->as_string(), "latol-metrics-v2");
  EXPECT_EQ(doc.find("scenario")->as_string(), "small");
  EXPECT_EQ(doc.find("build")->as_string(), build_version());
  ASSERT_NE(doc.find("stages"), nullptr);
  EXPECT_GE(doc.find("stages")->find("wall_seconds")->as_number(), 0.0);
  ASSERT_NE(doc.find("cache"), nullptr);
  EXPECT_EQ(doc.find("cache")->find("misses")->as_number(),
            static_cast<double>(run.stats.solves));
  const auto& points = doc.find("points")->as_array();
  ASSERT_EQ(points.size(), 6u);
  for (const io::Json& p : points) {
    EXPECT_TRUE(p.find("converged")->as_bool());
    EXPECT_FALSE(p.find("degraded")->as_bool());
    EXPECT_GT(p.find("iterations")->as_number(), 0.0);
    EXPECT_GT(p.find("residual_history_length")->as_number(), 0.0);
    // Little's law holds to numerical precision on clean solves.
    EXPECT_LT(p.find("littles_law_error")->as_number(), 1e-6);
    EXPECT_LT(p.find("flow_balance_error")->as_number(), 1e-6);
  }
  // Clean run: the invariant warnings stream is empty.
  EXPECT_TRUE(doc.find("warnings")->as_array().empty());
  // The registry snapshot rode along with the solver counters.
  const io::Json* counters = doc.find("registry")->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("qn.robust.solves"), nullptr);
  EXPECT_GE(counters->find("qn.robust.solves")->as_number(),
            static_cast<double>(run.stats.solves));
  // Without a snapshot the registry section is absent.
  EXPECT_EQ(metrics_to_json(scenario, run).find("registry"), nullptr);
}

TEST(SolveCachePersistence, RoundTripsAndGatesOnVersion) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "latol_cache_test.json")
          .string();
  const Scenario scenario = from_text(kSmallScenario);
  SolveCache cold;
  RunOptions opts;
  opts.cache = &cold;
  const RunResult first = run_scenario(scenario, opts);
  EXPECT_GT(first.stats.solves, 0u);
  cold.save(path, "v1");

  SolveCache warm;
  EXPECT_EQ(warm.load(path, "v1"), cold.size());
  opts.cache = &warm;
  const RunResult second = run_scenario(scenario, opts);
  EXPECT_EQ(second.stats.solves, 0u);  // everything preloaded
  EXPECT_EQ(second.stats.cache_preloaded, cold.size());
  // Identical numbers after the JSON round trip.
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(first.points[i].model.perf.processor_utilization,
              second.points[i].model.perf.processor_utilization);
    EXPECT_EQ(first.points[i].model.tol_network,
              second.points[i].model.tol_network);
  }

  // A different build version ignores the file wholesale.
  SolveCache stale;
  EXPECT_EQ(stale.load(path, "v2"), 0u);
  // A missing file is a cold start, not an error.
  SolveCache fresh;
  EXPECT_EQ(fresh.load(path + ".missing", "v1"), 0u);
  std::remove(path.c_str());
}

TEST(SolveCachePersistence, RejectsMalformedEntries) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "latol_cache_bad.json")
          .string();
  io::Json doc = io::Json::object();
  doc.set("format", "latol-solve-cache-7");
  doc.set("version", "v1");
  io::Json entry = io::Json::object();
  entry.set("key", "k");  // missing perf
  io::Json entries = io::Json::array();
  entries.push_back(std::move(entry));
  doc.set("entries", std::move(entries));
  io::write_json_file(path, doc);
  SolveCache cache;
  // Malformed entries quarantine the file (renamed to .corrupt) instead
  // of aborting the run: nothing is ingested and a warning is reported.
  std::string warning;
  EXPECT_EQ(cache.load(path, "v1", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  std::filesystem::remove(path + ".corrupt");
  // An unrecognized format is ignored, not an error.
  io::Json other = io::Json::object();
  other.set("format", "something-else");
  io::write_json_file(path, other);
  EXPECT_EQ(cache.load(path, "v1"), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace latol::exp
