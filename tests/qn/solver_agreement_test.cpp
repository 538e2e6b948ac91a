// Cross-solver property suite: exact MVA, convolution, CTMC, and AMVA are
// four independent implementations of the same product-form theory; they
// must agree (exactly for the first three, within a few percent for AMVA)
// on every network in a parameterized family. Any divergence localizes an
// implementation bug, which is exactly what happened to the original
// paper's authors when they validated AMVA against a Petri-net simulator.
#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <sstream>
#include <string>

#include "qn/bounds.hpp"
#include "qn/convolution.hpp"
#include "qn/ctmc.hpp"
#include "qn/mva_approx.hpp"
#include "qn/mva_exact.hpp"

namespace latol::qn {
namespace {

struct NetCase {
  long population;
  std::vector<double> demands;
};

/// Prints `pop5_m3` (population, station count). CMake appends the printed
/// parameter to each ctest name, and gtest's fallback would print the raw
/// struct bytes, heap pointer included, which differ between builds.
void PrintTo(const NetCase& c, std::ostream* os) {
  *os << "pop" << c.population << "_m" << c.demands.size();
}

std::vector<NetCase> random_cases() {
  std::mt19937_64 gen(20260707);
  std::uniform_real_distribution<double> demand(0.2, 12.0);
  std::vector<NetCase> cases;
  for (int i = 0; i < 12; ++i) {
    NetCase c;
    c.population = 1 + static_cast<long>(gen() % 6);
    const std::size_t m = 2 + gen() % 3;
    for (std::size_t s = 0; s < m; ++s) c.demands.push_back(demand(gen));
    cases.push_back(std::move(c));
  }
  return cases;
}

class SolverAgreement : public ::testing::TestWithParam<NetCase> {
 protected:
  static ClosedNetwork build(const NetCase& c) {
    std::vector<Station> stations;
    for (std::size_t i = 0; i < c.demands.size(); ++i) {
      stations.push_back({"s", StationKind::kQueueing});
      stations.back().name += std::to_string(i);
    }
    ClosedNetwork net(std::move(stations), 1);
    net.set_population(0, c.population);
    for (std::size_t i = 0; i < c.demands.size(); ++i) {
      net.set_visit_ratio(0, i, 1.0);
      net.set_service_time(0, i, c.demands[i]);
    }
    return net;
  }

  static RoutedClosedNetwork ring(std::size_t m) {
    RoutedClosedNetwork routed;
    util::Matrix p(m, m);
    for (std::size_t i = 0; i < m; ++i) p(i, (i + 1) % m) = 1.0;
    routed.routing = {p};
    routed.reference_station = {0};
    return routed;
  }
};

TEST_P(SolverAgreement, ExactMvaEqualsConvolution) {
  const auto net = build(GetParam());
  const auto mva = solve_mva_exact(net);
  const auto conv = solve_convolution(net).measures;
  EXPECT_NEAR(mva.throughput[0], conv.throughput[0],
              1e-9 * mva.throughput[0]);
  for (std::size_t m = 0; m < net.num_stations(); ++m)
    EXPECT_NEAR(mva.queue_length(0, m), conv.queue_length(0, m), 1e-7);
}

TEST_P(SolverAgreement, ExactMvaEqualsCtmc) {
  const auto net = build(GetParam());
  const auto mva = solve_mva_exact(net);
  const auto ctmc = solve_ctmc(net, ring(net.num_stations()));
  EXPECT_NEAR(mva.throughput[0], ctmc.throughput[0],
              1e-7 * mva.throughput[0]);
}

TEST_P(SolverAgreement, AmvaWithinSixPercentOfExact) {
  const auto net = build(GetParam());
  const auto mva = solve_mva_exact(net);
  const auto amva = solve_amva(net);
  ASSERT_TRUE(amva.converged);
  EXPECT_NEAR(amva.throughput[0], mva.throughput[0],
              0.06 * mva.throughput[0]);
}

TEST_P(SolverAgreement, AllSolversRespectBounds) {
  const auto net = build(GetParam());
  const double upper = asymptotic_throughput_bound(net, 0);
  const double lower = pessimistic_throughput_bound(net, 0);
  for (const double lambda :
       {solve_mva_exact(net).throughput[0],
        solve_convolution(net).measures.throughput[0],
        solve_amva(net).throughput[0]}) {
    EXPECT_LE(lambda, upper + 1e-9);
    EXPECT_GE(lambda, lower - 1e-9);
  }
}

TEST_P(SolverAgreement, UtilizationLawHolds) {
  // U_m = lambda * D_m at every station, for every solver.
  const auto net = build(GetParam());
  for (const auto& sol : {solve_mva_exact(net), solve_amva(net)}) {
    for (std::size_t m = 0; m < net.num_stations(); ++m)
      EXPECT_NEAR(sol.utilization[m], sol.throughput[0] * net.demand(0, m),
                  1e-9);
  }
}

/// `net3_pop5_m3`: the case index keeps the names unique.
std::string net_case_name(const ::testing::TestParamInfo<NetCase>& info) {
  std::ostringstream name;
  name << "net" << info.index << '_';
  PrintTo(info.param, &name);
  return name.str();
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, SolverAgreement,
                         ::testing::ValuesIn(random_cases()), net_case_name);

// ---------------------------------------------------------------------------
// Multi-class family: AMVA vs exact MVA on two-class shared-station
// networks of varying asymmetry.

struct MultiCase {
  long n0, n1;
  double r0, r1, mem;
};

/// Prints `n1x5_r10x10_mem5`: both populations, both runlengths, memory
/// demand (whole numbers in every case below, so it is also a valid test
/// name).
void PrintTo(const MultiCase& c, std::ostream* os) {
  *os << 'n' << c.n0 << 'x' << c.n1 << "_r" << c.r0 << 'x' << c.r1 << "_mem"
      << c.mem;
}

class MultiClassAgreement : public ::testing::TestWithParam<MultiCase> {};

TEST_P(MultiClassAgreement, AmvaTracksExact) {
  const auto& c = GetParam();
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    2);
  net.set_population(0, c.n0);
  net.set_population(1, c.n1);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(1, 1, 1.0);
  net.set_visit_ratio(0, 2, 1.0);
  net.set_visit_ratio(1, 2, 1.0);
  net.set_service_time(0, 0, c.r0);
  net.set_service_time(1, 1, c.r1);
  net.set_service_time(0, 2, c.mem);
  net.set_service_time(1, 2, c.mem);

  const auto exact = solve_mva_exact(net);
  const auto amva = solve_amva(net);
  // Bard-Schweitzer error grows with asymmetry at small populations; 15%
  // is the documented worst case for this family (most points are <5%).
  for (std::size_t cls = 0; cls < 2; ++cls) {
    EXPECT_NEAR(amva.throughput[cls], exact.throughput[cls],
                0.15 * exact.throughput[cls])
        << "class " << cls;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AsymmetricPairs, MultiClassAgreement,
    ::testing::Values(MultiCase{2, 2, 10, 10, 5}, MultiCase{1, 5, 10, 10, 5},
                      MultiCase{4, 4, 10, 2, 5}, MultiCase{3, 3, 1, 1, 10},
                      MultiCase{6, 2, 8, 3, 4}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace latol::qn
