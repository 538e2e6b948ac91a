#include "topo/torus.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/error.hpp"

namespace latol::topo {
namespace {

TEST(Torus, RejectsNonPositiveSide) {
  EXPECT_THROW(Torus2D(0), InvalidArgument);
  EXPECT_THROW(Torus2D(-3), InvalidArgument);
}

TEST(Torus, CoordinateRoundTrip) {
  const Torus2D t(4);
  for (int n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(t.node_at(t.x_of(n), t.y_of(n)), n);
  EXPECT_THROW((void)t.node_at(4, 0), InvalidArgument);
  EXPECT_THROW((void)t.x_of(16), InvalidArgument);
}

TEST(Torus, DistanceIsAMetric) {
  const Torus2D t(5);
  for (int a = 0; a < t.num_nodes(); ++a) {
    EXPECT_EQ(t.distance(a, a), 0);
    for (int b = 0; b < t.num_nodes(); ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      EXPECT_GE(t.distance(a, b), a == b ? 0 : 1);
      for (int c = 0; c < t.num_nodes(); ++c)
        EXPECT_LE(t.distance(a, c), t.distance(a, b) + t.distance(b, c));
    }
  }
}

TEST(Torus, MaxDistanceFormula) {
  EXPECT_EQ(Torus2D(2).max_distance(), 2);
  EXPECT_EQ(Torus2D(3).max_distance(), 2);
  EXPECT_EQ(Torus2D(4).max_distance(), 4);
  EXPECT_EQ(Torus2D(5).max_distance(), 4);
  EXPECT_EQ(Torus2D(10).max_distance(), 10);
}

TEST(Torus, DistanceProfileMatchesPaperMachine) {
  // 4x4 torus: 1, 4, 6, 4, 1 nodes at distances 0..4.
  const Torus2D t(4);
  const auto& profile = t.distance_profile();
  ASSERT_EQ(profile.size(), 5u);
  EXPECT_EQ(profile[0], 1);
  EXPECT_EQ(profile[1], 4);
  EXPECT_EQ(profile[2], 6);
  EXPECT_EQ(profile[3], 4);
  EXPECT_EQ(profile[4], 1);
}

class TorusSides : public ::testing::TestWithParam<int> {};

TEST_P(TorusSides, ProfileSumsToNodeCount) {
  const Torus2D t(GetParam());
  int total = 0;
  for (const int n : t.distance_profile()) total += n;
  EXPECT_EQ(total, t.num_nodes());
}

TEST_P(TorusSides, ProfileIsVertexTransitive) {
  const Torus2D t(GetParam());
  for (int from = 0; from < t.num_nodes(); ++from) {
    EXPECT_EQ(t.distance_profile_from(from), t.distance_profile())
        << "from=" << from;
  }
}

TEST_P(TorusSides, PathLengthEqualsDistance) {
  const Torus2D t(GetParam());
  for (int a = 0; a < t.num_nodes(); ++a) {
    for (int b = 0; b < t.num_nodes(); ++b) {
      const auto path = t.path(a, b);
      EXPECT_EQ(static_cast<int>(path.size()), t.distance(a, b));
      if (a != b) {
        EXPECT_EQ(path.back(), b);
      }
    }
  }
}

TEST_P(TorusSides, InboundVisitWeightsSumToDistance) {
  const Torus2D t(GetParam());
  for (int a = 0; a < t.num_nodes(); ++a) {
    for (int b = 0; b < t.num_nodes(); ++b) {
      double total = 0.0;
      InboundVisits visits;
      t.inbound_visits(a, b, visits);
      for (const auto& [node, w] : visits) {
        EXPECT_NE(node, a) << "source never re-entered";
        total += w;
      }
      EXPECT_NEAR(total, t.distance(a, b), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, TorusSides, ::testing::Values(2, 3, 4, 5, 8));

TEST(Torus, HalfRingTieSplitsFiftyFifty) {
  // On a 4-ring, offset 2 has two minimal directions. From (0,0) to (2,0)
  // the first hop is node (1,0) with weight .5 and node (3,0) with .5.
  const Torus2D t(4);
  InboundVisits visits;
  t.inbound_visits(t.node_at(0, 0), t.node_at(2, 0), visits);
  std::map<int, double> acc;
  for (const auto& [node, w] : visits) acc[node] += w;
  EXPECT_NEAR(acc[t.node_at(1, 0)], 0.5, 1e-12);
  EXPECT_NEAR(acc[t.node_at(3, 0)], 0.5, 1e-12);
  EXPECT_NEAR(acc[t.node_at(2, 0)], 1.0, 1e-12);  // destination, both paths
}

TEST(Torus, OddSideHasUniqueMinimalPaths) {
  const Torus2D t(5);
  for (int b = 1; b < t.num_nodes(); ++b) {
    InboundVisits visits;
    t.inbound_visits(0, b, visits);
    for (const auto& [node, w] : visits)
      EXPECT_NEAR(w, 1.0, 1e-12) << "no ties expected on odd side";
  }
}

TEST(Torus, PathTieBreakDirectionsDiffer) {
  const Torus2D t(4);
  const auto plus = t.path(0, 2, /*x_tie_positive=*/true, true);
  const auto minus = t.path(0, 2, /*x_tie_positive=*/false, true);
  ASSERT_EQ(plus.size(), 2u);
  ASSERT_EQ(minus.size(), 2u);
  EXPECT_NE(plus[0], minus[0]);
  EXPECT_EQ(plus.back(), minus.back());
}

TEST(Torus, DimensionOrderRoutesXFirst) {
  const Torus2D t(5);
  const auto path = t.path(t.node_at(0, 0), t.node_at(1, 1));
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], t.node_at(1, 0));  // X hop first
  EXPECT_EQ(path[1], t.node_at(1, 1));
}

TEST(Torus, SingleNodeTorusIsDegenerate) {
  const Torus2D t(1);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.max_distance(), 0);
  EXPECT_TRUE(t.path(0, 0).empty());
  InboundVisits visits;
  t.inbound_visits(0, 0, visits);
  EXPECT_TRUE(visits.empty());
}

}  // namespace
}  // namespace latol::topo
