#include "topo/traffic.hpp"

#include "topo/torus.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "util/error.hpp"

namespace latol::topo {
namespace {

TEST(GeometricAverageDistance, MatchesPaperConstant) {
  // 4x4 torus, p_sw = 0.5: the paper states d_avg = 1.733.
  EXPECT_NEAR(geometric_average_distance(4, 0.5), 1.7333, 1e-4);
}

TEST(GeometricAverageDistance, ApproachesClosedFormLimit) {
  // d_max -> infinity: d_avg -> 1 / (1 - p_sw).
  EXPECT_NEAR(geometric_average_distance(200, 0.5), 2.0, 1e-6);
  EXPECT_NEAR(geometric_average_distance(200, 0.2), 1.25, 1e-6);
}

TEST(GeometricAverageDistance, MatchesDistributionOnVertexTransitiveTopologies) {
  // The closed form is the oracle for RemoteAccessDistribution's
  // distance-class tabulation wherever every node sees the same profile.
  const std::pair<TopologyKind, int> machines[] = {
      {TopologyKind::kTorus2D, 4}, {TopologyKind::kTorus2D, 5},
      {TopologyKind::kTorus2D, 8}, {TopologyKind::kRing, 16},
      {TopologyKind::kHypercube, 5}};
  for (const auto& [kind, side] : machines) {
    const auto topology = make_topology(kind, side);
    ASSERT_TRUE(topology->is_vertex_transitive());
    for (const double p_sw : {0.2, 0.5, 0.8}) {
      TrafficConfig cfg;
      cfg.p_sw = p_sw;
      const RemoteAccessDistribution dist(*topology, cfg);
      const double expected =
          geometric_average_distance(topology->max_distance(), p_sw);
      EXPECT_NEAR(dist.average_distance(), expected, 1e-12 * expected)
          << topology_kind_name(kind) << ' ' << side << " p_sw=" << p_sw;
    }
  }
}

TEST(GeometricAverageDistance, ValidatesInputs) {
  EXPECT_THROW((void)geometric_average_distance(0, 0.5), InvalidArgument);
  EXPECT_THROW((void)geometric_average_distance(4, 0.0), InvalidArgument);
  EXPECT_THROW((void)geometric_average_distance(4, 1.5), InvalidArgument);
}

class TrafficPatterns
    : public ::testing::TestWithParam<std::tuple<int, AccessPattern>> {};

TEST_P(TrafficPatterns, ProbabilitiesSumToOne) {
  const auto [side, pattern] = GetParam();
  const Torus2D torus(side);
  TrafficConfig cfg;
  cfg.pattern = pattern;
  const RemoteAccessDistribution dist(torus, cfg);
  for (const int src : {0, torus.num_nodes() / 2}) {
    double total = 0.0;
    for (int dst = 0; dst < torus.num_nodes(); ++dst)
      total += dist.probability(src, dst);
    EXPECT_NEAR(total, 1.0, 1e-12) << "src=" << src;
    EXPECT_EQ(dist.probability(src, src), 0.0);
  }
}

TEST_P(TrafficPatterns, AverageDistanceConsistentWithProbabilities) {
  const auto [side, pattern] = GetParam();
  const Torus2D torus(side);
  TrafficConfig cfg;
  cfg.pattern = pattern;
  const RemoteAccessDistribution dist(torus, cfg);
  double davg = 0.0;
  for (int dst = 0; dst < torus.num_nodes(); ++dst)
    davg += dist.probability(0, dst) * torus.distance(0, dst);
  EXPECT_NEAR(davg, dist.average_distance(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SidesAndPatterns, TrafficPatterns,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 10),
                       ::testing::Values(AccessPattern::kGeometric,
                                         AccessPattern::kUniform)));

TEST(Traffic, PaperDefaultAverageDistance) {
  const Torus2D torus(4);
  TrafficConfig cfg;  // geometric, p_sw = 0.5, distance-class
  const RemoteAccessDistribution dist(torus, cfg);
  EXPECT_NEAR(dist.average_distance(), 1.7333, 1e-4);
}

TEST(Traffic, PerModuleModeGivesDifferentAverage) {
  const Torus2D torus(4);
  TrafficConfig cfg;
  cfg.mode = GeometricMode::kPerModule;
  const RemoteAccessDistribution dist(torus, cfg);
  // Weighting classes by N_h: (2 + 3 + 1.5 + .25) / (2 + 1.5 + .5 + .0625).
  EXPECT_NEAR(dist.average_distance(), 6.75 / 4.0625, 1e-12);
}

TEST(Traffic, UniformAverageDistanceOn4x4) {
  const Torus2D torus(4);
  TrafficConfig cfg;
  cfg.pattern = AccessPattern::kUniform;
  const RemoteAccessDistribution dist(torus, cfg);
  // sum h*N_h / (P-1) = (4 + 12 + 12 + 4) / 15.
  EXPECT_NEAR(dist.average_distance(), 32.0 / 15.0, 1e-12);
}

TEST(Traffic, UniformGrowsWithMachineGeometricSaturates) {
  TrafficConfig geo;
  TrafficConfig uni;
  uni.pattern = AccessPattern::kUniform;
  double prev_uniform = 0.0;
  for (const int k : {4, 6, 8, 10}) {
    const Torus2D torus(k);
    const double du = RemoteAccessDistribution(torus, uni).average_distance();
    const double dg = RemoteAccessDistribution(torus, geo).average_distance();
    EXPECT_GT(du, prev_uniform);
    prev_uniform = du;
    EXPECT_LT(dg, 2.0 + 1e-9);  // geometric limit 1/(1-p_sw) = 2
  }
  // Paper §7: uniform d_avg reaches ~5 at k = 10.
  const Torus2D torus(10);
  EXPECT_NEAR(RemoteAccessDistribution(torus, uni).average_distance(), 5.05,
              0.1);
}

TEST(Traffic, StrongerLocalityShortensDistance) {
  const Torus2D torus(8);
  TrafficConfig tight;
  tight.p_sw = 0.2;
  TrafficConfig loose;
  loose.p_sw = 0.9;
  EXPECT_LT(RemoteAccessDistribution(torus, tight).average_distance(),
            RemoteAccessDistribution(torus, loose).average_distance());
}

TEST(Traffic, LowLocalityFavorsNearbyModules) {
  const Torus2D torus(6);
  TrafficConfig cfg;
  cfg.p_sw = 0.3;
  const RemoteAccessDistribution dist(torus, cfg);
  const int near = torus.node_at(1, 0);
  const int far = torus.node_at(3, 3);
  EXPECT_GT(dist.probability(0, near), dist.probability(0, far));
}

TEST(Traffic, DistanceClassProbabilitiesExposed) {
  const Torus2D torus(4);
  const RemoteAccessDistribution dist(torus, TrafficConfig{});
  const auto& cls = dist.distance_class_probability();
  ASSERT_EQ(cls.size(), 5u);
  EXPECT_EQ(cls[0], 0.0);
  double total = 0.0;
  for (const double p : cls) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Geometric: each class has half the probability of the previous.
  EXPECT_NEAR(cls[2] / cls[1], 0.5, 1e-12);
  EXPECT_NEAR(cls[3] / cls[2], 0.5, 1e-12);
}

TEST(TrafficHotspot, ProbabilitiesStillSumToOne) {
  const Torus2D torus(4);
  TrafficConfig cfg;
  cfg.hotspot_node = 5;
  cfg.hotspot_fraction = 0.4;
  const RemoteAccessDistribution dist(torus, cfg);
  for (const int src : {0, 5, 12}) {
    double total = 0.0;
    for (int dst = 0; dst < torus.num_nodes(); ++dst)
      total += dist.probability(src, dst);
    EXPECT_NEAR(total, 1.0, 1e-12) << "src=" << src;
  }
}

TEST(TrafficHotspot, RedirectsMassToHotspot) {
  const Torus2D torus(4);
  TrafficConfig base;
  TrafficConfig hot = base;
  hot.hotspot_node = 5;
  hot.hotspot_fraction = 0.4;
  const RemoteAccessDistribution b(torus, base);
  const RemoteAccessDistribution h(torus, hot);
  EXPECT_GT(h.probability(0, 5), b.probability(0, 5) + 0.3);
  // Every non-hotspot destination loses proportionally.
  EXPECT_NEAR(h.probability(0, 1), 0.6 * b.probability(0, 1), 1e-12);
  // The hotspot node's own traffic is unchanged.
  EXPECT_NEAR(h.probability(5, 1), b.probability(5, 1), 1e-12);
  EXPECT_TRUE(h.has_hotspot());
  EXPECT_FALSE(b.has_hotspot());
}

TEST(TrafficHotspot, PerSourceAverageDistanceVaries) {
  const Torus2D torus(4);
  TrafficConfig cfg;
  cfg.hotspot_node = 0;
  cfg.hotspot_fraction = 0.8;
  const RemoteAccessDistribution dist(torus, cfg);
  // A neighbour of the hotspot travels less than the far corner.
  const int near = torus.node_at(1, 0);
  const int far = torus.node_at(2, 2);
  EXPECT_LT(dist.average_distance_from(near),
            dist.average_distance_from(far));
  // Aggregate d_avg is the node mean.
  double mean = 0.0;
  for (int n = 0; n < torus.num_nodes(); ++n)
    mean += dist.average_distance_from(n);
  EXPECT_NEAR(dist.average_distance(), mean / torus.num_nodes(), 1e-12);
}

TEST(TrafficHotspot, ValidatesParameters) {
  const Torus2D torus(4);
  TrafficConfig cfg;
  cfg.hotspot_node = 99;
  cfg.hotspot_fraction = 0.5;
  EXPECT_THROW(RemoteAccessDistribution(torus, cfg), InvalidArgument);
  cfg.hotspot_node = 3;
  cfg.hotspot_fraction = 1.5;
  EXPECT_THROW(RemoteAccessDistribution(torus, cfg), InvalidArgument);
}

TEST(Traffic, RejectsOneNodeMachine) {
  const Torus2D torus(1);
  EXPECT_THROW(RemoteAccessDistribution(torus, TrafficConfig{}),
               InvalidArgument);
}

}  // namespace
}  // namespace latol::topo
