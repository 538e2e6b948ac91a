// Crash-safety and deadline semantics of the solve cache, plus the
// batch runner's per-point timeouts: a corrupt cache file must quarantine
// (never crash a run), saves must be atomic, a deadline failure must not
// poison the cache, and a timed-out point must be marked — not wedge the
// run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mms_config.hpp"
#include "core/mms_model.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "qn/mva_approx.hpp"
#include "qn/solver_error.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace latol::exp {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_cache_files(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");
}

core::MmsConfig small_config() {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = 2;
  return cfg;
}

// --- persistence round trip ----------------------------------------------

TEST(SolveCache, SaveLoadRoundTripServesHits) {
  const std::string path = temp_path("latol_cache_roundtrip.json");
  remove_cache_files(path);
  {
    SolveCache cache;
    (void)cache.analyze(small_config(), {});
    cache.save(path, "v-test");
  }
  SolveCache warmed;
  std::string warning;
  EXPECT_EQ(warmed.load(path, "v-test", &warning), 1u);
  EXPECT_TRUE(warning.empty());
  bool hit = false;
  (void)warmed.analyze(small_config(), {}, &hit);
  EXPECT_TRUE(hit);
  remove_cache_files(path);
}

TEST(SolveCache, OpenMetricsSurviveTheRoundTrip) {
  const std::string path = temp_path("latol_cache_open.json");
  remove_cache_files(path);
  core::MmsConfig cfg = small_config();
  cfg.open_arrival_rate = 0.01;
  core::MmsPerformance solved;
  {
    SolveCache cache;
    solved = cache.analyze(cfg, {});
    EXPECT_GT(solved.open_latency, 0.0);
    cache.save(path, "v-test");
  }
  SolveCache warmed;
  EXPECT_EQ(warmed.load(path, "v-test"), 1u);
  bool hit = false;
  const core::MmsPerformance cached = warmed.analyze(cfg, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(cached.open_latency, solved.open_latency);
  EXPECT_DOUBLE_EQ(cached.open_utilization, solved.open_utilization);
  remove_cache_files(path);
}

TEST(SolveCache, ArrivalRateAndMethodAreDistinctKeys) {
  core::MmsConfig closed = small_config();
  core::MmsConfig open = small_config();
  open.open_arrival_rate = 0.01;
  const std::string base = SolveCache::config_key(closed, {});
  // Open arrivals change the key: a mixed result must never answer for
  // the closed machine (or vice versa).
  EXPECT_NE(base, SolveCache::config_key(open, {}));
  // So does the solve method: amva, linearizer, and fesc answers differ.
  EXPECT_NE(base, SolveCache::config_key(closed, {},
                                         core::SolveMethod::kLinearizer));
  EXPECT_NE(base, SolveCache::config_key(closed, {},
                                         core::SolveMethod::kHierarchical));
  EXPECT_NE(SolveCache::config_key(closed, {},
                                   core::SolveMethod::kLinearizer),
            SolveCache::config_key(closed, {},
                                   core::SolveMethod::kHierarchical));

  // And the cache actually solves per method: a fesc request after an
  // amva one is a miss, not a wrong-method hit.
  SolveCache cache;
  (void)cache.analyze(closed, {});
  bool hit = true;
  (void)cache.analyze(closed, {}, &hit, core::SolveMethod::kHierarchical);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SolveCache, PreviousFormatGenerationIsIgnored) {
  const std::string path = temp_path("latol_cache_format2.json");
  remove_cache_files(path);
  io::Json doc = io::Json::object();
  doc.set("format", "latol-solve-cache-2");  // pre-open-metrics layout
  doc.set("version", "v-test");
  doc.set("entries", io::Json::array());
  io::write_json_file(path, doc);
  SolveCache cache;
  std::string warning;
  EXPECT_EQ(cache.load(path, "v-test", &warning), 0u);
  EXPECT_TRUE(warning.empty());  // stale format is expected, not corrupt
  remove_cache_files(path);
}

TEST(SolveCache, FullSolveGenerationsAreIgnoredAndPointsSolveFresh) {
  // Files the full-network kernel wrote, inline (-3, and -5 for meshes
  // and hotspots) and sharded (-4, -6), hold numbers the symmetry
  // reductions move in the last bits: loading one ingests nothing, and
  // the point solves fresh.
  const std::pair<std::size_t, const char*> layouts[] = {
      {1, "latol-solve-cache-3"}, {4, "latol-solve-cache-4"},
      {1, "latol-solve-cache-5"}, {4, "latol-solve-cache-6"}};
  for (const auto& [shards, old_format] : layouts) {
    SCOPED_TRACE(old_format);
    const std::string path = temp_path("latol_cache_old_generation.json");
    std::vector<std::string> files{path};
    for (std::size_t i = 0; i < shards; ++i)
      files.push_back(path + ".shard" + std::to_string(i));
    {
      SolveCache cache(shards);
      (void)cache.analyze(small_config(), {});
      cache.save(path, "v-test");
    }
    for (const std::string& file : files) {
      if (shards > 1 && file == path) continue;  // the index, below
      if (!std::filesystem::exists(file)) continue;
      io::Json doc = io::parse_json_file(file);
      doc.set("format", old_format);
      io::write_json_file(file, doc);
    }
    if (shards > 1) {
      io::Json index = io::parse_json_file(path);
      index.set("format", old_format);
      io::write_json_file(path, index);
    }
    SolveCache warmed(shards);
    std::string warning;
    EXPECT_EQ(warmed.load(path, "v-test", &warning), 0u);
    EXPECT_TRUE(warning.empty());
    bool hit = true;
    const core::MmsPerformance perf =
        warmed.analyze(small_config(), {}, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(warmed.misses(), 1u);
    EXPECT_EQ(perf.processor_utilization,
              core::analyze(small_config()).processor_utilization);
    for (const std::string& file : files) std::filesystem::remove(file);
  }
}

TEST(SolveCache, MismatchedVersionIsIgnoredWithoutWarning) {
  const std::string path = temp_path("latol_cache_version.json");
  remove_cache_files(path);
  {
    SolveCache cache;
    (void)cache.analyze(small_config(), {});
    cache.save(path, "v-old");
  }
  SolveCache fresh;
  std::string warning;
  EXPECT_EQ(fresh.load(path, "v-new", &warning), 0u);
  EXPECT_TRUE(warning.empty());  // a stale cache is expected, not an error
  remove_cache_files(path);
}

// --- corrupt-file quarantine ----------------------------------------------

TEST(SolveCache, CorruptFileIsQuarantinedWithWarning) {
  const std::string path = temp_path("latol_cache_corrupt.json");
  remove_cache_files(path);
  {
    std::ofstream out(path);
    out << "{\"version\": \"v-test\", \"entries\": [trunca";
  }
  SolveCache cache;
  std::string warning;
  EXPECT_EQ(cache.load(path, "v-test", &warning), 0u);
  EXPECT_FALSE(warning.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_EQ(cache.size(), 0u);
  remove_cache_files(path);
}

TEST(SolveCache, QuarantinedFileDoesNotBlockTheNextSave) {
  const std::string path = temp_path("latol_cache_requarantine.json");
  remove_cache_files(path);
  {
    std::ofstream out(path);
    out << "not json at all";
  }
  SolveCache cache;
  std::string warning;
  (void)cache.load(path, "v-test", &warning);
  EXPECT_FALSE(warning.empty());
  (void)cache.analyze(small_config(), {});
  cache.save(path, "v-test");
  SolveCache reloaded;
  std::string reload_warning;
  EXPECT_EQ(reloaded.load(path, "v-test", &reload_warning), 1u);
  EXPECT_TRUE(reload_warning.empty());
  remove_cache_files(path);
}

TEST(SolveCache, MissingFileLoadsNothingSilently) {
  SolveCache cache;
  std::string warning;
  EXPECT_EQ(cache.load(temp_path("latol_cache_does_not_exist.json"),
                       "v-test", &warning),
            0u);
  EXPECT_TRUE(warning.empty());
}

// --- deadline failures are transient, not cacheable -----------------------

TEST(SolveCache, DeadlineFailureIsNotCached) {
  SolveCache cache;
  util::CancelToken token;
  token.cancel();
  qn::AmvaOptions expired;
  expired.cancel = &token;
  try {
    (void)cache.analyze(small_config(), expired);
    FAIL() << "expected SolverError";
  } catch (const qn::SolverError& e) {
    EXPECT_EQ(e.code(), qn::SolverErrorCode::kDeadlineExceeded);
  }
  // Same configuration without the expired token: the earlier deadline
  // must not have poisoned the entry (the cancel pointer is not part of
  // the cache key).
  bool hit = true;
  const core::MmsPerformance perf = cache.analyze(small_config(), {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(perf.processor_utilization, 0.0);
}

// --- runner point timeouts ------------------------------------------------

TEST(Runner, ExpiredRunTokenMarksPointsDeadlineExceeded) {
  const Scenario scenario = scenario_from_json(io::parse_json(R"({
    "name": "deadline",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2, 0.3]}]
  })"));
  util::CancelToken token;
  token.cancel();
  RunOptions opts;
  opts.cancel = &token;
  const RunResult run = run_scenario(scenario, opts);
  EXPECT_EQ(run.stats.failed_points, 3u);
  EXPECT_EQ(run.stats.deadline_points, 3u);
  for (const PointResult& p : run.points) {
    ASSERT_TRUE(p.model.error.has_value());
    EXPECT_EQ(p.model.error_code, qn::SolverErrorCode::kDeadlineExceeded);
  }
}

TEST(Runner, GenerousPointTimeoutSolvesCleanly) {
  const Scenario scenario = scenario_from_json(io::parse_json(R"({
    "name": "timeout-ok",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2]}]
  })"));
  RunOptions opts;
  opts.point_timeout_ms = 60'000.0;
  const RunResult run = run_scenario(scenario, opts);
  EXPECT_EQ(run.stats.failed_points, 0u);
  EXPECT_EQ(run.stats.deadline_points, 0u);
}

TEST(Runner, ManifestRecordsDeadlinePoints) {
  const Scenario scenario = scenario_from_json(io::parse_json(R"({
    "name": "deadline-manifest",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1]}]
  })"));
  util::CancelToken token;
  token.cancel();
  RunOptions opts;
  opts.cancel = &token;
  const RunResult run = run_scenario(scenario, opts);
  const io::Json manifest = manifest_to_json(scenario, run);
  const io::Json* deadline = manifest.find("deadline_points");
  ASSERT_NE(deadline, nullptr);
  EXPECT_DOUBLE_EQ(deadline->as_number(), 1.0);
}

}  // namespace
}  // namespace latol::exp
