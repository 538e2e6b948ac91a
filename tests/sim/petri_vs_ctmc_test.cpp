// Cross-substrate validation: the STPN simulator against the exact CTMC
// solver on the same small closed queueing networks. This closes the
// triangle — analytical solvers, event simulator, and Petri engine all
// describe the same stochastic process.
#include <gtest/gtest.h>

#include "qn/ctmc.hpp"
#include "sim/petri.hpp"

namespace latol::sim {
namespace {

/// Closed cyclic network of two single-server exponential stations,
/// expressed both as a CQN (for the CTMC) and as an STPN.
struct DualModel {
  qn::ClosedNetwork net;
  qn::RoutedClosedNetwork routed;
  StochasticPetriNet petri;
  PlaceId place_a, place_b;
  TransitionId serve_a, serve_b;
};

DualModel build(long n, double sa, double sb) {
  qn::ClosedNetwork net({{"a", qn::StationKind::kQueueing, 1},
                         {"b", qn::StationKind::kQueueing, 1}},
                        1);
  net.set_population(0, n);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(0, 1, 1.0);
  net.set_service_time(0, 0, sa);
  net.set_service_time(0, 1, sb);
  qn::RoutedClosedNetwork routed;
  util::Matrix p(2, 2);
  p(0, 1) = 1.0;
  p(1, 0) = 1.0;
  routed.routing = {p};
  routed.reference_station = {0};

  DualModel dm{std::move(net), std::move(routed), {}, 0, 0, 0, 0};
  dm.place_a = dm.petri.add_place("a", n);
  dm.place_b = dm.petri.add_place("b", 0);
  dm.serve_a =
      dm.petri.add_transition("va", TransitionTiming::kExponential, sa);
  dm.petri.add_input(dm.serve_a, dm.place_a);
  dm.petri.add_output(dm.serve_a, dm.place_b);
  dm.serve_b =
      dm.petri.add_transition("vb", TransitionTiming::kExponential, sb);
  dm.petri.add_input(dm.serve_b, dm.place_b);
  dm.petri.add_output(dm.serve_b, dm.place_a);
  return dm;
}

class PetriVsCtmc : public ::testing::TestWithParam<std::tuple<long, double>> {
};

TEST_P(PetriVsCtmc, ThroughputAndQueueLengthsAgree) {
  const auto [n, sb] = GetParam();
  DualModel dm = build(n, 4.0, sb);
  const auto truth = qn::solve_ctmc(dm.net, dm.routed);

  const CompiledPetriNet compiled(dm.petri);
  PetriSimulator sim(compiled, 20260707);
  const PetriStats stats = sim.run(300000.0, 30000.0);

  EXPECT_NEAR(stats.firing_rate[dm.serve_a], truth.throughput[0],
              0.03 * truth.throughput[0])
      << "n=" << n << " sb=" << sb;
  EXPECT_NEAR(stats.mean_tokens[dm.place_a], truth.queue_length(0, 0),
              0.05 * static_cast<double>(n))
      << "n=" << n << " sb=" << sb;
  EXPECT_NEAR(stats.mean_tokens[dm.place_b], truth.queue_length(0, 1),
              0.05 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Populations, PetriVsCtmc,
    ::testing::Combine(::testing::Values(1L, 3L, 6L),
                       ::testing::Values(2.0, 4.0, 12.0)));

}  // namespace
}  // namespace latol::sim
