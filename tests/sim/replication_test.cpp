// Determinism contract of the replication harness (DESIGN.md §10/§13):
// for a fixed base seed, the accepted replication prefix — and every
// bit of every result in it — is identical at any worker count, with
// and without early stopping.
#include "sim/replicate.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace latol::sim {
namespace {

core::MmsConfig small_config() {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = 2;
  return cfg;
}

/// Bitwise equality via memcmp of the trivially-copyable result structs
/// (EXPECT_EQ on doubles would accept -0.0 == 0.0 and miss NaNs).
template <typename R>
void expect_bitwise_equal(const std::vector<R>& a, const std::vector<R>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(R)), 0)
        << "replication " << i << " differs";
  }
}

TEST(Replication, MmsDesBitwiseIdenticalAcrossWorkerCounts) {
  SimulationConfig sc;
  sc.mms = small_config();
  sc.sim_time = 2000.0;
  sc.seed = 42;
  ReplicationPlan plan;
  plan.max_reps = 5;
  ReplicationRun<SimulationResult> runs[3];
  const std::size_t workers[3] = {1, 2, 8};
  for (int w = 0; w < 3; ++w) {
    plan.workers = workers[w];
    runs[w] = replicate_mms(sc, plan);
    ASSERT_EQ(runs[w].runs.size(), 5u);
  }
  expect_bitwise_equal(runs[0].runs, runs[1].runs);
  expect_bitwise_equal(runs[0].runs, runs[2].runs);
  EXPECT_EQ(runs[0].mean, runs[1].mean);
  EXPECT_EQ(runs[0].half_width_95, runs[2].half_width_95);
  // Replication i carries seed base + i.
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(runs[0].runs[i].seed, 42u + i);
}

TEST(Replication, MmsDesMatchesSequentialSingleRuns) {
  SimulationConfig sc;
  sc.mms = small_config();
  sc.sim_time = 2000.0;
  sc.seed = 7;
  ReplicationPlan plan;
  plan.max_reps = 3;
  plan.workers = 4;
  const auto run = replicate_mms(sc, plan);
  ASSERT_EQ(run.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SimulationConfig one = sc;
    one.seed = sc.seed + i;
    const SimulationResult solo = simulate_mms(one);
    EXPECT_EQ(std::memcmp(&run.runs[i], &solo, sizeof solo), 0)
        << "replication " << i << " differs from the standalone run";
  }
}

TEST(Replication, PetriBitwiseIdenticalAcrossWorkerCounts) {
  const core::MmsConfig cfg = small_config();
  ReplicationPlan plan;
  plan.max_reps = 4;
  ReplicationRun<PetriMmsResult> runs[3];
  const std::size_t workers[3] = {1, 2, 8};
  for (int w = 0; w < 3; ++w) {
    plan.workers = workers[w];
    runs[w] = replicate_mms_petri(cfg, 2000.0, 0.1, 3, plan);
    ASSERT_EQ(runs[w].runs.size(), 4u);
  }
  expect_bitwise_equal(runs[0].runs, runs[1].runs);
  expect_bitwise_equal(runs[0].runs, runs[2].runs);
}

TEST(Replication, PetriSharedCompileMatchesPerSeedBuilds) {
  const core::MmsConfig cfg = small_config();
  ReplicationPlan plan;
  plan.max_reps = 3;
  plan.workers = 2;
  const auto run = replicate_mms_petri(cfg, 2000.0, 0.1, 11, plan);
  ASSERT_EQ(run.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const PetriMmsResult solo = simulate_mms_petri(cfg, 2000.0, 0.1, 11 + i);
    EXPECT_EQ(std::memcmp(&run.runs[i], &solo, sizeof solo), 0)
        << "shared-compile replication " << i
        << " differs from the build-per-seed run";
  }
}

TEST(Replication, EarlyStoppingPrefixIsWorkerCountInvariant) {
  // With a loose CI target the rule fires before max_reps; the accepted
  // prefix must be the same length and content at every worker count.
  SimulationConfig sc;
  sc.mms = small_config();
  sc.sim_time = 2000.0;
  sc.seed = 1;
  ReplicationPlan plan;
  plan.min_reps = 2;
  plan.max_reps = 12;
  plan.round_size = 4;
  plan.target_rel_half_width = 0.2;  // loose: stops in the first rounds
  ReplicationRun<SimulationResult> first;
  for (int w = 0; w < 3; ++w) {
    plan.workers = static_cast<std::size_t>(1 + 3 * w);
    const auto run = replicate_mms(sc, plan);
    EXPECT_TRUE(run.target_met);
    EXPECT_LT(run.runs.size(), 12u);
    if (w == 0) {
      first = run;
      continue;
    }
    ASSERT_EQ(run.runs.size(), first.runs.size());
    expect_bitwise_equal(run.runs, first.runs);
    EXPECT_EQ(run.mean, first.mean);
    EXPECT_EQ(run.half_width_95, first.half_width_95);
  }
}

TEST(Replication, ZeroTargetRunsExactlyMaxReps) {
  SimulationConfig sc;
  sc.mms = small_config();
  sc.sim_time = 500.0;
  ReplicationPlan plan;
  plan.max_reps = 6;
  plan.target_rel_half_width = 0.0;
  const auto run = replicate_mms(sc, plan);
  EXPECT_EQ(run.runs.size(), 6u);
  EXPECT_FALSE(run.target_met);
  EXPECT_GT(run.half_width_95, 0.0);
}

TEST(Replication, RejectsBadPlans) {
  SimulationConfig sc;
  sc.mms = small_config();
  ReplicationPlan plan;
  plan.min_reps = 0;
  EXPECT_THROW(replicate_mms(sc, plan), InvalidArgument);
  plan.min_reps = 5;
  plan.max_reps = 4;
  EXPECT_THROW(replicate_mms(sc, plan), InvalidArgument);
  plan.min_reps = 1;
  plan.max_reps = 4;
  plan.round_size = 0;
  EXPECT_THROW(replicate_mms(sc, plan), InvalidArgument);
}

TEST(Replication, SeedTagSurvivesParallelFailure) {
  // A replication that throws reports its own [seed=N]; the harness
  // rethrows the lowest failing index after its round completes.
  SimulationConfig sc;
  sc.mms = small_config();
  sc.mms.traffic.hotspot_node = 10000;  // out of range: simulate_mms throws
  sc.sim_time = 100.0;
  sc.seed = 30;
  ReplicationPlan plan;
  plan.max_reps = 4;
  plan.workers = 2;
  try {
    (void)replicate_mms(sc, plan);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("[seed=30]"), std::string::npos)
        << "got: " << e.what();
  }
}

}  // namespace
}  // namespace latol::sim
