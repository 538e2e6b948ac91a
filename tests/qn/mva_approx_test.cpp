#include "qn/mva_approx.hpp"

#include <gtest/gtest.h>

#include "qn/bounds.hpp"
#include "qn/mva_exact.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

ClosedNetwork cyclic(long n, std::vector<double> demands) {
  std::vector<Station> stations;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    stations.push_back({"s", StationKind::kQueueing});
    stations.back().name += std::to_string(i);
  }
  ClosedNetwork net(std::move(stations), 1);
  net.set_population(0, n);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    net.set_visit_ratio(0, i, 1.0);
    net.set_service_time(0, i, demands[i]);
  }
  return net;
}

TEST(Amva, ExactForSinglePopulationOne) {
  // With N=1 the Schweitzer correction vanishes and AMVA is exact.
  const auto net = cyclic(1, {3.0, 7.0, 2.0});
  const auto approx = solve_amva(net);
  const auto exact = solve_mva_exact(net);
  EXPECT_NEAR(approx.throughput[0], exact.throughput[0], 1e-9);
}

TEST(Amva, ConvergesAndReportsIterations) {
  const auto sol = solve_amva(cyclic(8, {5.0, 5.0}));
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.iterations, 0);
}

TEST(Amva, PopulationIsConserved) {
  const auto sol = solve_amva(cyclic(12, {1.0, 2.0, 3.0}));
  double total = 0.0;
  for (std::size_t m = 0; m < 3; ++m) total += sol.station_queue(m);
  EXPECT_NEAR(total, 12.0, 1e-8);
}

TEST(Amva, LittleLawHoldsAtFixedPoint) {
  const auto net = cyclic(5, {4.0, 1.0});
  const auto sol = solve_amva(net);
  for (std::size_t m = 0; m < 2; ++m) {
    EXPECT_NEAR(sol.queue_length(0, m),
                sol.throughput[0] * net.visit_ratio(0, m) * sol.waiting(0, m),
                1e-8);
  }
}

TEST(Amva, WithinFivePercentOfExactOnSingleClass) {
  for (const long n : {2L, 4L, 8L, 16L}) {
    for (const auto& demands :
         {std::vector<double>{5.0, 5.0}, std::vector<double>{10.0, 3.0, 1.0},
          std::vector<double>{1.0, 1.0, 1.0, 8.0}}) {
      const auto net = cyclic(n, demands);
      const auto approx = solve_amva(net);
      const auto exact = solve_mva_exact(net);
      EXPECT_NEAR(approx.throughput[0], exact.throughput[0],
                  0.05 * exact.throughput[0])
          << "N=" << n << " M=" << demands.size();
    }
  }
}

TEST(Amva, MultiClassMatchesExactClosely) {
  // 2 classes, private processors + shared memory (MMS in miniature).
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    2);
  for (std::size_t c = 0; c < 2; ++c) {
    net.set_population(c, 4);
    net.set_visit_ratio(c, c, 1.0);
    net.set_visit_ratio(c, 2, 1.0);
    net.set_service_time(c, c, 10.0);
    net.set_service_time(c, 2, 6.0);
  }
  const auto approx = solve_amva(net);
  const auto exact = solve_mva_exact(net);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(approx.throughput[c], exact.throughput[c],
                0.05 * exact.throughput[c]);
  }
}

TEST(Amva, SymmetricClassesGetIdenticalResults) {
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"p2", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    3);
  for (std::size_t c = 0; c < 3; ++c) {
    net.set_population(c, 5);
    net.set_visit_ratio(c, c, 1.0);
    net.set_visit_ratio(c, 3, 1.0);
    net.set_service_time(c, c, 7.0);
    net.set_service_time(c, 3, 3.0);
  }
  const auto sol = solve_amva(net);
  EXPECT_NEAR(sol.throughput[0], sol.throughput[1], 1e-9);
  EXPECT_NEAR(sol.throughput[1], sol.throughput[2], 1e-9);
}

TEST(Amva, ZeroPopulationClassIsInert) {
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    2);
  net.set_population(0, 3);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(0, 1, 1.0);
  net.set_service_time(0, 0, 2.0);
  net.set_service_time(0, 1, 2.0);
  // Class 1 exists but is empty.
  net.set_visit_ratio(1, 1, 1.0);
  net.set_service_time(1, 1, 2.0);
  const auto sol = solve_amva(net);
  EXPECT_EQ(sol.throughput[1], 0.0);
  EXPECT_EQ(sol.queue_length(1, 1), 0.0);
  EXPECT_GT(sol.throughput[0], 0.0);
}

TEST(Amva, RespectsAsymptoticBoundsSingleClass) {
  for (const long n : {1L, 3L, 9L, 27L}) {
    const auto net = cyclic(n, {6.0, 2.0, 2.0});
    const auto sol = solve_amva(net);
    EXPECT_LE(sol.throughput[0], asymptotic_throughput_bound(net, 0) + 1e-9);
    EXPECT_GE(sol.throughput[0], pessimistic_throughput_bound(net, 0) - 1e-9);
  }
}

TEST(Amva, DelayStationHandled) {
  ClosedNetwork net({{"think", StationKind::kDelay},
                     {"cpu", StationKind::kQueueing}},
                    1);
  net.set_population(0, 10);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(0, 1, 1.0);
  net.set_service_time(0, 0, 100.0);
  net.set_service_time(0, 1, 1.0);
  const auto sol = solve_amva(net);
  EXPECT_DOUBLE_EQ(sol.waiting(0, 0), 100.0);
  const auto exact = solve_mva_exact(net);
  EXPECT_NEAR(sol.throughput[0], exact.throughput[0],
              0.03 * exact.throughput[0]);
}

TEST(Amva, RejectsBadOptions) {
  const auto net = cyclic(2, {1.0, 1.0});
  AmvaOptions bad;
  bad.tolerance = 0.0;
  EXPECT_THROW(solve_amva(net, bad), InvalidArgument);
  bad = AmvaOptions{};
  bad.damping = 1.5;
  EXPECT_THROW(solve_amva(net, bad), InvalidArgument);
}

TEST(Amva, UnconvergedFlagOnTinyBudget) {
  AmvaOptions opts;
  opts.max_iterations = 1;
  // Unbalanced demands: the proportional initial guess is not the fixed
  // point, so one iteration cannot converge. (A perfectly balanced network
  // starts exactly at the fixed point — that case converges immediately.)
  const auto sol = solve_amva(cyclic(50, {1.0, 2.0, 3.0, 4.0}), opts);
  EXPECT_FALSE(sol.converged);
  const auto balanced = solve_amva(cyclic(50, {2.0, 2.0}), opts);
  EXPECT_TRUE(balanced.converged);
}

TEST(Amva, DampingReachesSameFixedPoint) {
  const auto net = cyclic(6, {3.0, 5.0, 2.0});
  AmvaOptions damped;
  damped.damping = 0.5;
  const auto a = solve_amva(net);
  const auto b = solve_amva(net, damped);
  EXPECT_NEAR(a.throughput[0], b.throughput[0], 1e-7);
}

}  // namespace
}  // namespace latol::qn
