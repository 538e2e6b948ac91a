#include "sim/fcfs_server.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "util/error.hpp"

namespace latol::sim {
namespace {

TEST(FcfsServer, ServesJobsInArrivalOrder) {
  Simulator sim;
  FcfsServer server(sim, "s");
  std::vector<int> done;
  server.submit(2.0, [&] { done.push_back(0); });
  server.submit(1.0, [&] { done.push_back(1); });
  server.submit(1.0, [&] { done.push_back(2); });
  sim.run_until(100.0);
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(server.completions(), 3u);
}

TEST(FcfsServer, ResidenceIncludesQueueing) {
  Simulator sim;
  FcfsServer server(sim, "s");
  // Two jobs of 2.0 arriving together: residences 2 and 4, mean 3.
  server.submit(2.0, nullptr);
  server.submit(2.0, nullptr);
  sim.run_until(100.0);
  EXPECT_NEAR(server.mean_residence(), 3.0, 1e-12);
}

TEST(FcfsServer, UtilizationIsBusyFraction) {
  Simulator sim;
  FcfsServer server(sim, "s");
  server.submit(3.0, nullptr);
  sim.run_until(10.0);
  EXPECT_NEAR(server.utilization(), 0.3, 1e-12);
}

TEST(FcfsServer, QueueLengthTracksBacklog) {
  Simulator sim;
  FcfsServer server(sim, "s");
  server.submit(4.0, nullptr);
  server.submit(4.0, nullptr);
  EXPECT_EQ(server.queue_length(), 2u);
  sim.run_until(5.0);
  EXPECT_EQ(server.queue_length(), 1u);
  sim.run_until(20.0);
  EXPECT_EQ(server.queue_length(), 0u);
}

TEST(FcfsServer, ZeroServiceJobsComplete) {
  Simulator sim;
  FcfsServer server(sim, "s");
  int fired = 0;
  server.submit(0.0, [&] { ++fired; });
  sim.run_until(1.0);
  EXPECT_EQ(fired, 1);
  EXPECT_THROW(server.submit(-1.0, nullptr), InvalidArgument);
}

TEST(FcfsServer, ResetStatsForgetsHistoryNotBacklog) {
  Simulator sim;
  FcfsServer server(sim, "s");
  server.submit(2.0, nullptr);
  server.submit(6.0, nullptr);
  sim.run_until(4.0);  // first done, second in service
  server.reset_stats();
  sim.run_until(10.0);
  EXPECT_EQ(server.completions(), 1u);  // only the post-reset completion
  // Busy the whole [4,8] window, idle [8,10]: utilization 4/6.
  EXPECT_NEAR(server.utilization(), 4.0 / 6.0, 1e-12);
}

TEST(FcfsServer, TwoServersRunJobsInParallel) {
  Simulator sim;
  FcfsServer server(sim, "s", 2);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    server.submit(4.0, [&] { done_at.push_back(sim.now()); });
  }
  sim.run_until(100.0);
  // Jobs 1+2 run in parallel (finish at t=4), job 3 starts when a server
  // frees (finishes at t=8).
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_DOUBLE_EQ(done_at[0], 4.0);
  EXPECT_DOUBLE_EQ(done_at[1], 4.0);
  EXPECT_DOUBLE_EQ(done_at[2], 8.0);
  EXPECT_EQ(server.servers(), 2);
}

TEST(FcfsServer, UtilizationIsFractionOfBusyServers) {
  Simulator sim;
  FcfsServer server(sim, "s", 2);
  server.submit(5.0, nullptr);  // one of two servers busy over [0,5)
  sim.run_until(10.0);
  EXPECT_NEAR(server.utilization(), 0.25, 1e-12);  // 0.5 busy for half time
}

TEST(FcfsServer, RejectsZeroServers) {
  Simulator sim;
  EXPECT_THROW(FcfsServer(sim, "s", 0), InvalidArgument);
}

TEST(FcfsServer, DisabledStatTrackingThrowsOnReadOnly) {
  // A server constructed with a tracking mask skips the untracked
  // accumulators entirely; reading one is a caller bug, not a zero.
  Simulator sim;
  FcfsServer server(sim, "s", 1, StatTracking::kBusy);
  int done = 0;
  server.submit(2.0, [&] { ++done; });
  sim.run_until(10.0);
  EXPECT_EQ(done, 1);                              // service still runs
  EXPECT_EQ(server.completions(), 1u);             // counters stay on
  EXPECT_NEAR(server.utilization(), 0.2, 1e-12);   // tracked
  EXPECT_THROW(static_cast<void>(server.mean_residence()), InvalidArgument);
}

TEST(FcfsServer, TrackingMasksCompose) {
  // kAll carries both the busy and the residence bit.
  Simulator sim;
  FcfsServer server(sim, "s", 1, StatTracking::kAll);
  server.submit(4.0, nullptr);
  sim.run_until(10.0);
  EXPECT_NEAR(server.utilization(), 0.4, 1e-12);
  EXPECT_NEAR(server.mean_residence(), 4.0, 1e-12);
}

/// Trivially-copyable Poisson arrival source (event actions live in
/// arena slots; recursion goes through a struct, not std::function).
struct PoissonArrivals {
  Simulator* sim;
  FcfsServer* server;
  Rng* rng;
  double service_mean;
  double arrival_mean;
  void operator()() const {
    server->submit(rng->exponential(service_mean), nullptr);
    sim->schedule_after(rng->exponential(arrival_mean), *this);
  }
};

TEST(FcfsServer, MM2QueueMatchesTheory) {
  // M/M/2 with lambda = 0.8, mu = 0.5 per server: rho = 0.8. Erlang-C:
  // P(wait) = 0.7111..., Lq = rho/(1-rho) * P(wait) = 2.844,
  // W = Lq/lambda + 1/mu = 5.556.
  Simulator sim;
  FcfsServer server(sim, "s", 2);
  Rng rng(99);
  sim.schedule(0.0, PoissonArrivals{&sim, &server, &rng, 2.0, 1.25});
  sim.run_until(400000.0);
  EXPECT_NEAR(server.utilization(), 0.8, 0.02);
  EXPECT_NEAR(server.mean_residence(), 5.556, 0.25);
}

TEST(FcfsServer, MM1QueueMatchesTheory) {
  // Closed-loop M/M/1 approximation: drive with Poisson-ish arrivals by
  // regenerating an exponential arrival stream; check rho and residence
  // against M/M/1 formulas within sampling noise.
  Simulator sim;
  FcfsServer server(sim, "s");
  Rng rng(2026);
  // lambda = 0.5, mu = 1 -> rho = 0.5.
  sim.schedule(0.0, PoissonArrivals{&sim, &server, &rng, 1.0, 2.0});
  sim.run_until(200000.0);
  EXPECT_NEAR(server.utilization(), 0.5, 0.02);
  // M/M/1 residence: 1 / (mu - lambda) = 2.
  EXPECT_NEAR(server.mean_residence(), 2.0, 0.1);
}

}  // namespace
}  // namespace latol::sim
