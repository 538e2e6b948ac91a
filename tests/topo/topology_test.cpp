// Property suite over all topology families via the Topology interface.
#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/ring.hpp"
#include "topo/torus.hpp"
#include "topo/traffic.hpp"
#include "util/error.hpp"

namespace latol::topo {
namespace {

struct TopoCase {
  TopologyKind kind;
  int side;
};

/// `torus2d_3`: the test name and the printed parameter, stable across
/// builds, so `ctest -R` selects one case.
void PrintTo(const TopoCase& c, std::ostream* os) {
  *os << topology_kind_name(c.kind) << '_' << c.side;
}

class AllTopologies : public ::testing::TestWithParam<TopoCase> {
 protected:
  std::unique_ptr<Topology> topo() const {
    return make_topology(GetParam().kind, GetParam().side);
  }
};

TEST_P(AllTopologies, DistanceIsAMetric) {
  const auto t = topo();
  for (int a = 0; a < t->num_nodes(); ++a) {
    EXPECT_EQ(t->distance(a, a), 0);
    for (int b = 0; b < t->num_nodes(); ++b) {
      EXPECT_EQ(t->distance(a, b), t->distance(b, a));
      for (int c = 0; c < t->num_nodes(); ++c)
        EXPECT_LE(t->distance(a, c), t->distance(a, b) + t->distance(b, c));
    }
  }
}

TEST_P(AllTopologies, MaxDistanceIsAchievedAndNeverExceeded) {
  const auto t = topo();
  int seen_max = 0;
  for (int a = 0; a < t->num_nodes(); ++a) {
    for (int b = 0; b < t->num_nodes(); ++b) {
      EXPECT_LE(t->distance(a, b), t->max_distance());
      seen_max = std::max(seen_max, t->distance(a, b));
    }
  }
  EXPECT_EQ(seen_max, t->max_distance());
}

TEST_P(AllTopologies, RoutesAreMinimalAndEndAtDestination) {
  const auto t = topo();
  for (int a = 0; a < t->num_nodes(); ++a) {
    for (int b = 0; b < t->num_nodes(); ++b) {
      for (const bool tie : {true, false}) {
        const auto r = t->route(a, b, tie, tie);
        EXPECT_EQ(static_cast<int>(r.size()), t->distance(a, b));
        if (a != b) {
          EXPECT_EQ(r.back(), b);
          // Consecutive nodes are one hop apart.
          int prev = a;
          for (const int node : r) {
            EXPECT_EQ(t->distance(prev, node), 1);
            prev = node;
          }
        }
      }
    }
  }
}

TEST_P(AllTopologies, InboundVisitWeightsSumToDistance) {
  const auto t = topo();
  for (int a = 0; a < t->num_nodes(); ++a) {
    for (int b = 0; b < t->num_nodes(); ++b) {
      double total = 0.0;
      InboundVisits visits;
      t->inbound_visits(a, b, visits);
      for (const auto& [node, w] : visits) {
        EXPECT_NE(node, a);
        EXPECT_GT(w, 0.0);
        total += w;
      }
      EXPECT_NEAR(total, t->distance(a, b), 1e-12);
    }
  }
}

TEST_P(AllTopologies, InboundVisitsAppendEachMinimalRouteInOrder) {
  // The walk appends after what the buffer holds: every distinct route
  // (tie choices x-major, positive first), weighted 1 / routes.
  const auto t = topo();
  for (int a = 0; a < t->num_nodes(); ++a) {
    for (int b = 0; b < t->num_nodes(); ++b) {
      std::vector<std::vector<int>> routes;
      for (const bool tie_a : {true, false}) {
        for (const bool tie_b : {true, false}) {
          auto r = t->route(a, b, tie_a, tie_b);
          if (std::find(routes.begin(), routes.end(), r) == routes.end())
            routes.push_back(std::move(r));
        }
      }
      InboundVisits expected = {{-1, -1.0}};
      for (const auto& r : routes) {
        for (const int node : r)
          expected.emplace_back(node, 1.0 / static_cast<double>(routes.size()));
      }
      InboundVisits visits = {{-1, -1.0}};
      t->inbound_visits(a, b, visits);
      EXPECT_EQ(visits, expected) << t->name() << ' ' << a << "->" << b;
    }
  }
}

TEST_P(AllTopologies, ProfileFromEveryNodeSumsToNodeCount) {
  const auto t = topo();
  for (int n = 0; n < t->num_nodes(); ++n) {
    int total = 0;
    for (const int c : t->distance_profile_from(n)) total += c;
    EXPECT_EQ(total, t->num_nodes());
  }
}

TEST_P(AllTopologies, VertexTransitivityFlagIsHonest) {
  const auto t = topo();
  if (!t->is_vertex_transitive()) return;
  const auto reference = t->distance_profile_from(0);
  for (int n = 1; n < t->num_nodes(); ++n)
    EXPECT_EQ(t->distance_profile_from(n), reference) << "node " << n;
}

TEST_P(AllTopologies, TrafficProbabilitiesSumToOne) {
  const auto t = topo();
  if (t->num_nodes() < 2) return;
  for (const AccessPattern pattern :
       {AccessPattern::kGeometric, AccessPattern::kUniform}) {
    TrafficConfig cfg;
    cfg.pattern = pattern;
    const RemoteAccessDistribution dist(*t, cfg);
    for (int src = 0; src < t->num_nodes(); ++src) {
      double total = 0.0;
      for (int dst = 0; dst < t->num_nodes(); ++dst)
        total += dist.probability(src, dst);
      EXPECT_NEAR(total, 1.0, 1e-12) << t->name() << " src=" << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllTopologies,
    ::testing::Values(TopoCase{TopologyKind::kTorus2D, 3},
                      TopoCase{TopologyKind::kTorus2D, 4},
                      TopoCase{TopologyKind::kMesh2D, 3},
                      TopoCase{TopologyKind::kMesh2D, 4},
                      TopoCase{TopologyKind::kRing, 5},
                      TopoCase{TopologyKind::kRing, 6},
                      TopoCase{TopologyKind::kHypercube, 3},
                      TopoCase{TopologyKind::kHypercube, 4}),
    ::testing::PrintToStringParamName());

TEST(Mesh2D, DistancesHaveNoWraparound) {
  const Mesh2D mesh(4);
  // Opposite corners: 3 + 3 hops (a torus would need only 2 + 2).
  EXPECT_EQ(mesh.distance(0, 15), 6);
  EXPECT_EQ(mesh.max_distance(), 6);
  EXPECT_FALSE(mesh.is_vertex_transitive());
}

TEST(Mesh2D, CornerSeesLongerAverageDistanceThanCenter) {
  const Mesh2D mesh(5);
  TrafficConfig uniform;
  uniform.pattern = AccessPattern::kUniform;
  const RemoteAccessDistribution dist(mesh, uniform);
  const int corner = 0;
  const int center = 12;  // (2,2) on 5x5
  EXPECT_GT(dist.average_distance_from(corner),
            dist.average_distance_from(center));
}

TEST(Ring, DistancesWrapAround) {
  const Ring ring(6);
  EXPECT_EQ(ring.distance(0, 5), 1);
  EXPECT_EQ(ring.distance(0, 3), 3);
  EXPECT_EQ(ring.max_distance(), 3);
  EXPECT_TRUE(ring.is_vertex_transitive());
}

TEST(Ring, HalfRingTieSplits) {
  const Ring ring(6);
  double w_first_cw = 0.0, w_first_ccw = 0.0;
  InboundVisits visits;
  ring.inbound_visits(0, 3, visits);
  for (const auto& [node, w] : visits) {
    if (node == 1) w_first_cw += w;
    if (node == 5) w_first_ccw += w;
  }
  EXPECT_NEAR(w_first_cw, 0.5, 1e-12);
  EXPECT_NEAR(w_first_ccw, 0.5, 1e-12);
}

TEST(Hypercube, DistanceIsHammingWeight) {
  const Hypercube cube(4);
  EXPECT_EQ(cube.num_nodes(), 16);
  EXPECT_EQ(cube.distance(0b0000, 0b1111), 4);
  EXPECT_EQ(cube.distance(0b0101, 0b0110), 2);
  EXPECT_EQ(cube.max_distance(), 4);
}

TEST(Hypercube, EcubeRoutingFixesBitsLowToHigh) {
  const Hypercube cube(3);
  const auto r = cube.route(0b000, 0b101, true, true);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 0b001);
  EXPECT_EQ(r[1], 0b101);
}

TEST(TopologyFactory, BuildsEveryKindWithMatchingName) {
  EXPECT_EQ(make_topology(TopologyKind::kTorus2D, 4)->name(), "torus2d(4)");
  EXPECT_EQ(make_topology(TopologyKind::kMesh2D, 4)->name(), "mesh2d(4)");
  EXPECT_EQ(make_topology(TopologyKind::kRing, 8)->name(), "ring(8)");
  EXPECT_EQ(make_topology(TopologyKind::kHypercube, 3)->name(),
            "hypercube(3)");
  EXPECT_STREQ(topology_kind_name(TopologyKind::kMesh2D), "mesh2d");
}

TEST(TopologyFactory, ValidatesSizes) {
  EXPECT_THROW(make_topology(TopologyKind::kMesh2D, 0), InvalidArgument);
  EXPECT_THROW(make_topology(TopologyKind::kRing, 0), InvalidArgument);
  EXPECT_THROW(make_topology(TopologyKind::kHypercube, -1), InvalidArgument);
}

}  // namespace
}  // namespace latol::topo
