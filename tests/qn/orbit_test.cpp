// The station-orbit map (DESIGN.md §10): a symmetry reduction solved by
// the AMVA kernels alone. The identity map must leave every solve bitwise
// unchanged, a reduction must reach the full network's fixed point, and
// every solver that does not read the map must refuse a mapped network.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qn/convolution.hpp"
#include "qn/ctmc.hpp"
#include "qn/mva_approx.hpp"
#include "qn/mva_exact.hpp"
#include "qn/mva_linearizer.hpp"
#include "qn/network.hpp"
#include "qn/open/fesc.hpp"
#include "qn/open/mixed.hpp"
#include "qn/robust.hpp"
#include "qn/routing.hpp"
#include "qn/workspace.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

/// A ring of `nodes` nodes, each with a CPU (station 2j) and a disk
/// (2j + 1). Class c lives on node c: it visits its CPU once, its own
/// disk 0.6 times and the next node's disk 0.4 times per cycle. With
/// `reduced`, only class 0 is listed, standing for all `nodes` classes,
/// and the stations fold into two orbits (CPUs, disks); rotations carry
/// every class onto class 0.
ClosedNetwork ring_network(std::size_t nodes, bool reduced, long population) {
  std::vector<Station> stations;
  for (std::size_t j = 0; j < nodes; ++j) {
    stations.push_back({"cpu", StationKind::kQueueing, 1});
    stations.push_back({"disk", StationKind::kQueueing, 1});
  }
  ClosedNetwork net(stations, reduced ? 1 : nodes);
  for (std::size_t c = 0; c < net.num_classes(); ++c) {
    net.set_population(c, population);
    for (std::size_t m = 0; m < net.num_stations(); ++m) {
      net.set_service_time(c, m, m % 2 == 0 ? 1.0 : 1.5);
    }
    net.set_visit_ratio(c, 2 * c, 1.0);
    net.set_visit_ratio(c, 2 * c + 1, 0.6);
    net.set_visit_ratio(c, (2 * c + 3) % net.num_stations(), 0.4);
  }
  if (reduced) {
    std::vector<std::uint32_t> orbit(net.num_stations());
    for (std::size_t m = 0; m < orbit.size(); ++m) orbit[m] = m % 2;
    net.set_station_orbits(orbit, {static_cast<long>(nodes)});
  }
  return net;
}

/// A star: a hub (node 0) and `leaves` leaf nodes, each node with a CPU
/// (station 2j) and a disk (2j + 1). The hub's class (population 3)
/// visits its CPU, its own disk 0.5 times and every leaf's disk 0.5 /
/// `leaves` times; leaf j's class (population 2) visits its CPU, its own
/// disk 0.5 times, the hub's disk 0.3 times and the next leaf's disk 0.2
/// times. Rotating the leaves fixes the hub, so with `reduced` the
/// network lists the hub's class (an orbit of 1) and leaf 1's (an orbit
/// of `leaves`), with four station orbits: the hub's CPU, the hub's
/// disk, the leaves' CPUs and the leaves' disks.
ClosedNetwork star_network(std::size_t leaves, bool reduced) {
  const std::size_t nodes = leaves + 1;
  std::vector<Station> stations;
  for (std::size_t j = 0; j < nodes; ++j) {
    stations.push_back({"cpu", StationKind::kQueueing, 1});
    stations.push_back({"disk", StationKind::kQueueing, 1});
  }
  ClosedNetwork net(stations, reduced ? 2 : nodes);
  for (std::size_t c = 0; c < net.num_classes(); ++c) {
    for (std::size_t m = 0; m < net.num_stations(); ++m) {
      net.set_service_time(c, m, m % 2 == 0 ? 1.0 : 1.5);
    }
    net.set_visit_ratio(c, 2 * c, 1.0);
    net.set_visit_ratio(c, 2 * c + 1, 0.5);
    if (c == 0) {
      net.set_population(c, 3);
      for (std::size_t j = 1; j < nodes; ++j) {
        net.set_visit_ratio(c, 2 * j + 1, 0.5 / static_cast<double>(leaves));
      }
    } else {
      net.set_population(c, 2);
      net.set_visit_ratio(c, 1, 0.3);
      net.set_visit_ratio(c, 2 * (c % leaves + 1) + 1, 0.2);
    }
  }
  if (reduced) {
    std::vector<std::uint32_t> orbit{0, 1};
    for (std::size_t j = 1; j < nodes; ++j) {
      orbit.push_back(2);
      orbit.push_back(3);
    }
    net.set_station_orbits(orbit, {1, static_cast<long>(leaves)});
  }
  return net;
}

void expect_bitwise(const MvaSolution& a, const MvaSolution& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.utilization, b.utilization);
  for (std::size_t c = 0; c < a.queue_length.rows(); ++c) {
    for (std::size_t m = 0; m < a.queue_length.cols(); ++m) {
      EXPECT_EQ(a.queue_length(c, m), b.queue_length(c, m));
      EXPECT_EQ(a.waiting(c, m), b.waiting(c, m));
    }
  }
}

void expect_relative(double got, double want, double rel) {
  EXPECT_LE(std::fabs(got - want), rel * std::fabs(want))
      << got << " vs " << want;
}

TEST(StationOrbits, DefaultsToTheIdentityAndRejectsMalformedMaps) {
  ClosedNetwork net = ring_network(2, false, 1);
  EXPECT_FALSE(net.has_orbits());
  EXPECT_EQ(net.num_orbits(), net.num_stations());
  for (std::size_t m = 0; m < net.num_stations(); ++m) {
    EXPECT_EQ(net.station_orbit(m), m);
  }
  EXPECT_THROW(net.set_station_orbits({0, 1, 0}), InvalidArgument);
  EXPECT_THROW(net.set_station_orbits({0, 2, 0, 2}), InvalidArgument);
  EXPECT_THROW(net.set_station_orbits({1, 1, 1, 1}), InvalidArgument);
  EXPECT_THROW(net.set_station_orbits({0, 4, 0, 1}), InvalidArgument);
  net.set_station_orbits({0, 1, 0, 1});
  EXPECT_EQ(net.num_orbits(), 2u);
  EXPECT_EQ(net.station_orbit(2), 0u);
}

TEST(StationOrbits, IdentityMapIsBitwiseTheUnmappedSolve) {
  const ClosedNetwork plain = ring_network(4, false, 3);
  ClosedNetwork mapped = plain;
  std::vector<std::uint32_t> identity(mapped.num_stations());
  for (std::size_t m = 0; m < identity.size(); ++m) identity[m] = m;
  mapped.set_station_orbits(identity);
  expect_bitwise(solve_amva(mapped, {}), solve_amva(plain, {}));
  EXPECT_EQ(fixed_point_residual(mapped, solve_amva(mapped, {})),
            fixed_point_residual(plain, solve_amva(plain, {})));
}

TEST(StationOrbits, ReductionReachesTheFullFixedPoint) {
  for (const std::size_t nodes : {2u, 3u, 5u}) {
    SCOPED_TRACE(nodes);
    const ClosedNetwork full_net = ring_network(nodes, false, 4);
    const ClosedNetwork reduced_net = ring_network(nodes, true, 4);
    const MvaSolution full = solve_amva(full_net, {});
    const MvaSolution reduced = solve_amva(reduced_net, {});
    ASSERT_TRUE(reduced.converged);
    ASSERT_EQ(reduced.throughput.size(), 1u);
    expect_relative(reduced.throughput[0], full.throughput[0], 1e-9);
    for (std::size_t m = 0; m < full_net.num_stations(); ++m) {
      // Class 0's own queues, and every station's utilization (the
      // orbit's total, which symmetry makes every member's).
      EXPECT_NEAR(reduced.queue_length(0, m), full.queue_length(0, m), 1e-9);
      expect_relative(reduced.utilization[m], full.utilization[m], 1e-9);
    }
    EXPECT_LT(fixed_point_residual(reduced_net, reduced), 1e-9);
    const InvariantReport inv = check_invariants(reduced_net, reduced);
    EXPECT_TRUE(inv.warnings.empty());
  }
}

TEST(StationOrbits, ClassOrbitsOfDifferentSizesReachTheExpandedFixedPoint) {
  AmvaOptions tight;
  tight.tolerance = 1e-15;
  tight.max_iterations = 100000;
  for (const std::size_t leaves : {2u, 3u, 5u}) {
    SCOPED_TRACE(leaves);
    const ClosedNetwork full_net = star_network(leaves, false);
    const ClosedNetwork reduced_net = star_network(leaves, true);
    ClosedNetwork malformed = reduced_net;
    EXPECT_THROW(malformed.set_station_orbits(
                     std::vector<std::uint32_t>(malformed.num_stations(), 0),
                     {1}),
                 InvalidArgument);
    EXPECT_THROW(malformed.set_station_orbits(
                     std::vector<std::uint32_t>(malformed.num_stations(), 0),
                     {1, 0}),
                 InvalidArgument);
    EXPECT_EQ(reduced_net.orbit_weight(0, 1), 1.0);  // hub at its disk
    EXPECT_EQ(reduced_net.orbit_weight(0, 3), 1.0 / static_cast<double>(leaves));
    EXPECT_EQ(reduced_net.orbit_weight(1, 1), static_cast<double>(leaves));
    EXPECT_EQ(reduced_net.orbit_weight(1, 3), 1.0);
    const MvaSolution full = solve_amva(full_net, tight);
    const MvaSolution reduced = solve_amva(reduced_net, tight);
    ASSERT_TRUE(reduced.converged);
    ASSERT_EQ(reduced.throughput.size(), 2u);
    // The hub's class is class 0 of both; leaf 1's is class 1 of both.
    for (std::size_t c = 0; c < 2; ++c) {
      expect_relative(reduced.throughput[c], full.throughput[c], 1e-12);
      for (std::size_t m = 0; m < full_net.num_stations(); ++m) {
        EXPECT_NEAR(reduced.queue_length(c, m), full.queue_length(c, m),
                    1e-12);
        EXPECT_NEAR(reduced.waiting(c, m), full.waiting(c, m),
                    1e-12 * full.waiting(c, m));
      }
    }
    for (std::size_t m = 0; m < full_net.num_stations(); ++m) {
      expect_relative(reduced.utilization[m], full.utilization[m], 1e-12);
    }
    EXPECT_LT(fixed_point_residual(reduced_net, reduced), 1e-12);
    const InvariantReport inv = check_invariants(reduced_net, reduced);
    EXPECT_LT(inv.littles_law_error, 1e-12);
    EXPECT_LT(inv.flow_balance_error, 1e-12);
  }
}

TEST(StationOrbits, ClassZerosReductionAndTheIdentityBindUnitWeights) {
  SolverWorkspace ws;
  for (const bool reduced : {false, true}) {
    ws.bind(ring_network(5, reduced, 2));
    ASSERT_EQ(ws.weight.size(), ws.num_slots());
    for (const double w : ws.weight) EXPECT_EQ(w, 1.0);
  }
}

TEST(StationOrbits, SolversThatIgnoreTheMapRejectIt) {
  const ClosedNetwork net = ring_network(3, true, 2);
  EXPECT_THROW((void)solve_linearizer(net, {}), InvalidArgument);
  EXPECT_THROW((void)solve_mva_exact(net), InvalidArgument);
  EXPECT_THROW((void)solve_convolution(net), InvalidArgument);
  EXPECT_THROW((void)bounds_solution(net), InvalidArgument);
  EXPECT_THROW((void)build_fesc(net, 2), InvalidArgument);
  const std::vector<bool> half{true, true, true, false, false, false};
  EXPECT_THROW((void)solve_two_level(net, half), InvalidArgument);
  RoutedClosedNetwork routed;
  routed.routing = {util::Matrix(6, 6, 1.0 / 6.0)};
  routed.reference_station = {0};
  EXPECT_THROW((void)solve_ctmc(net, routed), InvalidArgument);
  std::vector<Station> stations;
  for (std::size_t m = 0; m < net.num_stations(); ++m)
    stations.push_back(net.station(m));
  const OpenNetwork open(stations, 1);
  EXPECT_THROW((void)solve_mixed(net, open, {}), InvalidArgument);

  // Through the chain, each such link fails as an invalid network.
  RobustOptions options;
  options.chain = {SolverKind::kLinearizer, SolverKind::kExactMva,
                   SolverKind::kBounds};
  const SolveReport report = robust_solve(net, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(*report.error, SolverErrorCode::kInvalidNetwork);
  for (const SolveAttempt& a : report.attempts) {
    EXPECT_EQ(a.error, SolverErrorCode::kInvalidNetwork) << a.detail;
  }
}

TEST(StationOrbits, FailedReducedAmvaDegradesOnTheExpandedNetwork) {
  const ClosedNetwork reduced = ring_network(3, true, 2);
  RobustOptions options;
  options.amva.max_iterations = 1;  // the reduced AMVA runs out of budget
  int expansions = 0;
  options.expand = [&expansions] {
    ++expansions;
    return ring_network(3, false, 2);
  };
  const SolveReport report = robust_solve(reduced, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(expansions, 1);
  EXPECT_EQ(report.solver, SolverKind::kLinearizer);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.attempts.front().error, SolverErrorCode::kIterationBudget);
  ASSERT_TRUE(report.expanded.has_value());
  EXPECT_EQ(report.solution.throughput.size(), 3u);

  // The same chain on the full network answers with the same numbers.
  RobustOptions full_options;
  full_options.amva.max_iterations = 1;
  const SolveReport full = robust_solve(*report.expanded, full_options);
  expect_bitwise(report.solution, full.solution);
  EXPECT_EQ(report.residual, full.residual);

  // A converging reduced AMVA never builds the expansion.
  options.amva.max_iterations = 200000;
  const SolveReport solved = robust_solve(reduced, options);
  EXPECT_EQ(solved.solver, SolverKind::kAmva);
  EXPECT_FALSE(solved.expanded.has_value());
  EXPECT_EQ(expansions, 1);
}

}  // namespace
}  // namespace latol::qn
