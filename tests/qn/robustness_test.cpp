// Numerical robustness: the solvers must stay finite, bounded, and
// convergent under extreme-but-legal parameter ratios.
#include <gtest/gtest.h>

#include <cmath>

#include "qn/bounds.hpp"
#include "qn/mva_approx.hpp"
#include "qn/mva_linearizer.hpp"

namespace latol::qn {
namespace {

ClosedNetwork cyclic(long n, double d0, double d1) {
  ClosedNetwork net({{"a", StationKind::kQueueing},
                     {"b", StationKind::kQueueing}},
                    1);
  net.set_population(0, n);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(0, 1, 1.0);
  net.set_service_time(0, 0, d0);
  net.set_service_time(0, 1, d1);
  return net;
}

class ExtremeRatios
    : public ::testing::TestWithParam<std::tuple<long, double>> {};

TEST_P(ExtremeRatios, AmvaStaysFiniteAndBounded) {
  const auto [n, ratio] = GetParam();
  const auto net = cyclic(n, 1.0, ratio);
  const auto sol = solve_amva(net);
  EXPECT_TRUE(sol.converged);
  EXPECT_TRUE(std::isfinite(sol.throughput[0]));
  EXPECT_LE(sol.throughput[0], asymptotic_throughput_bound(net, 0) + 1e-12);
  EXPECT_GE(sol.throughput[0],
            pessimistic_throughput_bound(net, 0) - 1e-12);
  EXPECT_NEAR(sol.station_queue(0) + sol.station_queue(1),
              static_cast<double>(n), 1e-6 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, ExtremeRatios,
    ::testing::Combine(::testing::Values(1L, 10L, 1000L),
                       ::testing::Values(1e-9, 1e-3, 1.0, 1e3, 1e9)));

TEST(Robustness, HugePopulationReachesBottleneckThroughput) {
  const auto net = cyclic(100000, 1.0, 5.0);
  const auto sol = solve_amva(net);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.throughput[0], 1.0 / 5.0, 1e-6);
}

TEST(Robustness, ZeroServiceStationIsTransparent) {
  // A station with zero service time adds no residence and no queue.
  const auto net = cyclic(5, 10.0, 0.0);
  const auto sol = solve_amva(net);
  EXPECT_NEAR(sol.throughput[0], 5.0 / (5.0 * 10.0), 0.02);
  EXPECT_NEAR(sol.queue_length(0, 1), 0.0, 1e-9);
}

TEST(Robustness, ManyClassesManyStationsConverges) {
  // A 32-class, 64-station network (MmsModel-scale) with mixed demands.
  const std::size_t C = 32, M = 64;
  std::vector<Station> stations;
  for (std::size_t m = 0; m < M; ++m) {
    stations.push_back({"s", StationKind::kQueueing});
    stations.back().name += std::to_string(m);
  }
  ClosedNetwork net(std::move(stations), C);
  for (std::size_t c = 0; c < C; ++c) {
    net.set_population(c, 4);
    for (std::size_t m = 0; m < M; ++m) {
      // Each class visits a pseudo-random quarter of the stations.
      if ((c * 7 + m * 13) % 4 == 0) {
        net.set_visit_ratio(c, m, 1.0);
        net.set_service_time(c, m, 1.0 + static_cast<double>(m % 5));
      }
    }
  }
  const auto sol = solve_amva(net);
  EXPECT_TRUE(sol.converged);
  double total = 0.0;
  for (std::size_t m = 0; m < M; ++m) total += sol.station_queue(m);
  EXPECT_NEAR(total, 4.0 * C, 1e-4);
}

TEST(Robustness, LinearizerHandlesExtremeRatios) {
  const auto net = cyclic(10, 1.0, 1e6);
  const auto sol = solve_linearizer(net);
  EXPECT_TRUE(std::isfinite(sol.throughput[0]));
  EXPECT_NEAR(sol.throughput[0], 1.0 / 1e6, 1e-9);
}

}  // namespace
}  // namespace latol::qn
