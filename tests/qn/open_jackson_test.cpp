#include "qn/open/jackson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qn/open/mixed.hpp"
#include "qn/open/open_network.hpp"
#include "qn/robust.hpp"
#include "qn/solver_error.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

OpenNetwork single_station(double lambda, double service, int servers = 1) {
  OpenNetwork net({{"q", StationKind::kQueueing, servers}}, 1);
  net.set_arrival_rate(0, lambda);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_service_time(0, 0, service);
  return net;
}

TEST(OpenJackson, MM1MatchesClosedForm) {
  // M/M/1 at rho = 0.5: W = s / (1 - rho) = 2, L = rho / (1 - rho) = 1.
  const OpenSolution sol = solve_jackson(single_station(0.5, 1.0));
  EXPECT_NEAR(sol.waiting(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(sol.queue_length(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(sol.utilization[0], 0.5, 1e-12);
  EXPECT_NEAR(sol.offered_load[0], 0.5, 1e-12);
  EXPECT_NEAR(sol.response_time[0], 2.0, 1e-12);
}

TEST(OpenJackson, ErlangCKnownValues) {
  // One server: the waiting probability is the utilization itself.
  EXPECT_NEAR(erlang_c(1, 0.3), 0.3, 1e-12);
  EXPECT_NEAR(erlang_c(1, 0.9), 0.9, 1e-12);
  // M/M/2 with a = 1 (rho = 0.5): the textbook value is 1/3.
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
  // No load never waits.
  EXPECT_NEAR(erlang_c(4, 0.0), 0.0, 1e-12);
}

TEST(OpenJackson, MM2MatchesClosedForm) {
  // M/M/2, lambda = 1, s = 1: Wq = C / (m/s - lambda) = (1/3) / 1.
  const OpenSolution sol = solve_jackson(single_station(1.0, 1.0, 2));
  EXPECT_NEAR(sol.waiting(0, 0), 1.0 + 1.0 / 3.0, 1e-12);
  // Busy-server count is the offered work a = 1; per-server load is 0.5.
  EXPECT_NEAR(sol.utilization[0], 1.0, 1e-12);
  EXPECT_NEAR(sol.offered_load[0], 0.5, 1e-12);
}

TEST(OpenJackson, DelayStationNeverQueues) {
  OpenNetwork net({{"think", StationKind::kDelay}}, 1);
  net.set_arrival_rate(0, 5.0);  // far beyond what a queue could absorb
  net.set_visit_ratio(0, 0, 1.0);
  net.set_service_time(0, 0, 3.0);
  const OpenSolution sol = solve_jackson(net);
  EXPECT_NEAR(sol.waiting(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(sol.queue_length(0, 0), 15.0, 1e-12);  // Little's law
}

TEST(OpenJackson, TandemChainSumsResidences) {
  // Three M/M/1 queues in series at rho = 0.5 each: response = 3 x 2.
  OpenNetwork net({{"a", StationKind::kQueueing},
                   {"b", StationKind::kQueueing},
                   {"c", StationKind::kQueueing}},
                  1);
  net.set_arrival_rate(0, 0.5);
  for (std::size_t m = 0; m < 3; ++m) {
    net.set_visit_ratio(0, m, 1.0);
    net.set_service_time(0, m, 1.0);
  }
  const OpenSolution sol = solve_jackson(net);
  EXPECT_NEAR(sol.response_time[0], 6.0, 1e-12);
}

TEST(OpenJackson, FeedbackLoopInflatesVisits) {
  // Departures return with probability 1/2, so a job visits the queue
  // v = 1 / (1 - 1/2) = 2 times on average.
  OpenNetwork net({{"q", StationKind::kQueueing}}, 1);
  net.set_arrival_rate(0, 0.25);
  net.set_visit_ratio(0, 0, 1.0 / (1.0 - 0.5));
  net.set_service_time(0, 0, 1.0);
  // Effective station arrival rate 0.5: identical to the direct M/M/1.
  const OpenSolution sol = solve_jackson(net);
  EXPECT_NEAR(sol.waiting(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(sol.response_time[0], 4.0, 1e-12);  // two visits on average
}

TEST(OpenJackson, MultiClassLoadsAggregate) {
  OpenNetwork net({{"q", StationKind::kQueueing}}, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    net.set_arrival_rate(c, 0.25);
    net.set_visit_ratio(c, 0, 1.0);
    net.set_service_time(c, 0, 1.0);
  }
  const OpenSolution sol = solve_jackson(net);
  EXPECT_NEAR(sol.offered_load[0], 0.5, 1e-12);
  // Each class sees the same M/M/1 shaped by the aggregate load.
  EXPECT_NEAR(sol.waiting(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(sol.waiting(1, 0), 2.0, 1e-12);
}

TEST(OpenJackson, SaturatedStationThrowsUnstable) {
  try {
    (void)solve_jackson(single_station(1.2, 1.0));
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kUnstable);
    EXPECT_NE(std::string(e.what()).find("q"), std::string::npos);
  }
}

TEST(OpenJackson, BoundaryLoadOfOneIsUnstable) {
  EXPECT_THROW((void)solve_jackson(single_station(1.0, 1.0)), SolverError);
}

TEST(OpenNetworkValidation, RejectsBadArrivalRates) {
  OpenNetwork net({{"q", StationKind::kQueueing}}, 1);
  EXPECT_THROW(net.set_arrival_rate(0, -0.1), InvalidArgument);
  EXPECT_THROW(
      net.set_arrival_rate(0, std::numeric_limits<double>::quiet_NaN()),
      InvalidArgument);
  EXPECT_THROW(
      net.set_arrival_rate(0, std::numeric_limits<double>::infinity()),
      InvalidArgument);
}

TEST(OpenNetworkValidation, RejectsAllZeroArrivals) {
  OpenNetwork net({{"q", StationKind::kQueueing}}, 1);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_service_time(0, 0, 1.0);
  EXPECT_THROW(net.validate(), InvalidArgument);
}

// --- mixed open/closed -----------------------------------------------------

/// A closed interactive class (think delay + one queueing station) sharing
/// the queue with an open stream.
struct MixedFixture {
  ClosedNetwork closed;
  OpenNetwork open;

  explicit MixedFixture(double open_rate, long population = 4)
      : closed({{"think", StationKind::kDelay}, {"disk", StationKind::kQueueing}},
               1),
        open({{"think", StationKind::kDelay}, {"disk", StationKind::kQueueing}},
             1) {
    closed.set_population(0, population);
    closed.set_visit_ratio(0, 0, 1.0);
    closed.set_visit_ratio(0, 1, 1.0);
    closed.set_service_time(0, 0, 5.0);
    closed.set_service_time(0, 1, 1.0);
    open.set_arrival_rate(0, open_rate);
    open.set_visit_ratio(0, 1, 1.0);
    open.set_service_time(0, 1, 1.0);
  }
};

TEST(MixedBcmp, OpenTrafficSlowsClosedClass) {
  MixedFixture with(0.4);
  const MixedReport mixed = solve_mixed(with.closed, with.open);
  ASSERT_TRUE(mixed.ok());
  const SolveReport alone = robust_solve(with.closed);
  ASSERT_TRUE(alone.ok());
  // Closed throughput must drop; the inflated service is 1 / (1 - 0.4).
  EXPECT_LT(mixed.closed.solution.throughput[0],
            alone.solution.throughput[0]);
  EXPECT_NEAR(mixed.inflated.service_time(0, 1), 1.0 / 0.6, 1e-12);
  // Delay service must NOT be inflated.
  EXPECT_NEAR(mixed.inflated.service_time(0, 0), 5.0, 1e-12);
}

TEST(MixedBcmp, OpenWaitMatchesExactSingleServerFormula) {
  MixedFixture f(0.4);
  const MixedReport mixed = solve_mixed(f.closed, f.open);
  ASSERT_TRUE(mixed.ok());
  // W_open = s (1 + N_closed) / (1 - rho_open) at a single server.
  const double n_closed = mixed.closed.solution.queue_length(0, 1);
  EXPECT_NEAR(mixed.open.waiting(0, 1), (1.0 + n_closed) / 0.6, 1e-9);
  EXPECT_NEAR(mixed.open.response_time[0], mixed.open.waiting(0, 1), 1e-12);
}

TEST(MixedBcmp, TotalUtilizationCombinesBothWorlds) {
  MixedFixture f(0.4);
  const MixedReport mixed = solve_mixed(f.closed, f.open);
  ASSERT_TRUE(mixed.ok());
  const double closed_busy = mixed.closed.solution.throughput[0] * 1.0;
  EXPECT_NEAR(mixed.total_utilization[1], closed_busy + 0.4, 1e-9);
  EXPECT_LE(mixed.total_utilization[1], 1.0 + 1e-12);
}

TEST(MixedBcmp, OpenSaturationThrowsUnstable) {
  MixedFixture f(1.1);
  try {
    (void)solve_mixed(f.closed, f.open);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kUnstable);
  }
}

TEST(MixedBcmp, StationMismatchRejected) {
  MixedFixture f(0.2);
  OpenNetwork other({{"think", StationKind::kDelay},
                     {"disk", StationKind::kQueueing, 2}},
                    1);
  other.set_arrival_rate(0, 0.2);
  other.set_visit_ratio(0, 1, 1.0);
  other.set_service_time(0, 1, 1.0);
  EXPECT_THROW((void)solve_mixed(f.closed, other), InvalidArgument);
}

}  // namespace
}  // namespace latol::qn
