#include "qn/convolution.hpp"

#include <gtest/gtest.h>

#include "qn/mva_exact.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

ClosedNetwork make_net(long n, const std::vector<double>& demands,
                       const std::vector<StationKind>& kinds) {
  std::vector<Station> stations;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    stations.push_back({"s", kinds[i]});
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

TEST(Convolution, RejectsMultiClass) {
  ClosedNetwork net({{"s", StationKind::kQueueing}}, 2);
  net.set_population(0, 1);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_service_time(0, 0, 1.0);
  EXPECT_THROW(solve_convolution(net), InvalidArgument);
}

TEST(Convolution, MatchesExactMvaOnQueueingNetworks) {
  for (const long n : {1L, 2L, 5L, 12L}) {
    const auto net = make_net(
        n, {5.0, 3.0, 1.0},
        {StationKind::kQueueing, StationKind::kQueueing,
         StationKind::kQueueing});
    const auto conv = solve_convolution(net).measures;
    const auto exact = solve_mva_exact(net);
    EXPECT_NEAR(conv.throughput[0], exact.throughput[0], 1e-10) << "N=" << n;
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_NEAR(conv.queue_length(0, m), exact.queue_length(0, m), 1e-8);
      EXPECT_NEAR(conv.utilization[m], exact.utilization[m], 1e-10);
    }
  }
}

TEST(Convolution, MatchesExactMvaWithDelayStation) {
  const auto net = make_net(7, {40.0, 2.0, 3.0},
                            {StationKind::kDelay, StationKind::kQueueing,
                             StationKind::kQueueing});
  const auto conv = solve_convolution(net).measures;
  const auto exact = solve_mva_exact(net);
  EXPECT_NEAR(conv.throughput[0], exact.throughput[0], 1e-10);
  for (std::size_t m = 0; m < 3; ++m)
    EXPECT_NEAR(conv.queue_length(0, m), exact.queue_length(0, m), 1e-7);
}

TEST(Convolution, NormalizationConstantsArePositiveAndGrow) {
  const auto net = make_net(6, {2.0, 2.0},
                            {StationKind::kQueueing, StationKind::kQueueing});
  const auto sol = solve_convolution(net);
  ASSERT_EQ(sol.normalization.size(), 7u);
  for (const double g : sol.normalization) EXPECT_GT(g, 0.0);
}

TEST(Convolution, LargePopulationDoesNotOverflow) {
  // Unscaled G(n) with demand 10 would reach 10^500; the internal rescale
  // must keep everything finite.
  const auto net = make_net(500, {10.0, 9.0},
                            {StationKind::kQueueing, StationKind::kQueueing});
  const auto sol = solve_convolution(net);
  EXPECT_TRUE(std::isfinite(sol.measures.throughput[0]));
  // Bottleneck law at huge population: throughput -> 1 / D_max.
  EXPECT_NEAR(sol.measures.throughput[0], 1.0 / 10.0, 1e-6);
}

TEST(Convolution, VisitRatiosScaleConsistently) {
  // Doubling a visit ratio while halving service leaves demand unchanged;
  // throughput (per cycle) must be identical.
  auto a = make_net(4, {6.0, 3.0},
                    {StationKind::kQueueing, StationKind::kQueueing});
  auto b = a;
  b.set_visit_ratio(0, 1, 2.0);
  b.set_service_time(0, 1, 1.5);
  EXPECT_NEAR(solve_convolution(a).measures.throughput[0],
              solve_convolution(b).measures.throughput[0], 1e-10);
}

TEST(Convolution, ZeroPopulationYieldsZeroThroughput) {
  auto net = make_net(1, {1.0}, {StationKind::kQueueing});
  net.set_population(0, 0);
  EXPECT_THROW(solve_convolution(net), InvalidArgument);  // validate()
}

}  // namespace
}  // namespace latol::qn
