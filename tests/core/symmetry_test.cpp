// Proof obligations of class 0's symmetry reduction (DESIGN.md §2.3):
//  (a) on a torus, ring or hypercube without a hotspot, node translations
//      carry every class row of build_network() onto row 0, which is what
//      makes a station type's total the sum of class 0's queues over it;
//  (b) on random symmetric machines the reduced analyze() reaches the full
//      network's AMVA fixed point;
//  (c) machines the reduction does not cover, and every network ideal,
//      come out bitwise as the full-network path gives them;
// and a failed reduced AMVA degrades exactly as a failed full one does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <utility>

#include "core/mms_model.hpp"
#include "core/tolerance.hpp"
#include "qn/mva_approx.hpp"
#include "qn/robust.hpp"

namespace latol::core {
namespace {

using topo::AccessPattern;
using topo::GeometricMode;
using topo::TopologyKind;

/// The node translation that carries node 0 to node `c`.
std::function<int(int)> translation(const MmsConfig& cfg, int c) {
  const int k = cfg.k;
  switch (cfg.topology) {
    case TopologyKind::kTorus2D:
      return [k, c](int n) {
        return (n % k + c % k) % k + k * ((n / k + c / k) % k);
      };
    case TopologyKind::kRing:
      return [k, c](int n) { return (n + c) % k; };
    case TopologyKind::kHypercube:
      return [c](int n) { return n ^ c; };
    case TopologyKind::kMesh2D:
      break;
  }
  ADD_FAILURE() << "no translation group";
  return [](int n) { return n; };
}

/// Every row of `cfg`'s full network is row 0 translated.
void expect_rows_are_translates(const MmsConfig& cfg) {
  const MmsModel model(cfg);
  const qn::ClosedNetwork net = model.build_network();
  const int P = model.topology().num_nodes();
  for (int c = 1; c < P; ++c) {
    const auto tau = translation(cfg, c);
    const auto cls = static_cast<std::size_t>(c);
    EXPECT_EQ(net.population(cls), net.population(0));
    for (int n = 0; n < P; ++n) {
      const std::size_t from = MmsModel::stations(n).processor;
      const std::size_t to = MmsModel::stations(tau(n)).processor;
      for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_NEAR(net.visit_ratio(cls, to + t), net.visit_ratio(0, from + t),
                    1e-13)
            << "class " << c << " node " << n << " type " << t;
        EXPECT_EQ(net.service_time(cls, to + t), net.service_time(0, from + t));
      }
    }
  }
}

TEST(SymmetryReduction, ClassRowsAreTranslatesOfRowZero) {
  struct Family {
    TopologyKind kind;
    int lo, hi;
  };
  const Family families[] = {{TopologyKind::kTorus2D, 2, 6},
                             {TopologyKind::kRing, 2, 12},
                             {TopologyKind::kHypercube, 1, 5}};
  struct Pattern {
    AccessPattern pattern;
    GeometricMode mode;
  };
  const Pattern patterns[] = {
      {AccessPattern::kGeometric, GeometricMode::kDistanceClass},
      {AccessPattern::kGeometric, GeometricMode::kPerModule},
      {AccessPattern::kUniform, GeometricMode::kDistanceClass}};
  for (const Family& f : families) {
    for (int k = f.lo; k <= f.hi; ++k) {
      for (const Pattern& p : patterns) {
        MmsConfig cfg = MmsConfig::paper_defaults();
        cfg.topology = f.kind;
        cfg.k = k;
        cfg.p_remote = 0.4;
        cfg.traffic.pattern = p.pattern;
        cfg.traffic.mode = p.mode;
        SCOPED_TRACE(testing::Message()
                     << topo::topology_kind_name(f.kind) << " k=" << k
                     << " pattern=" << static_cast<int>(p.pattern)
                     << " mode=" << static_cast<int>(p.mode));
        expect_rows_are_translates(cfg);
      }
    }
  }
}

/// A random machine: `kind` with a random size, workload and architecture
/// drawn over the model's whole range. p_remote is 0 one time in eight.
MmsConfig random_machine(std::mt19937_64& rng, TopologyKind kind) {
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  MmsConfig cfg;
  cfg.topology = kind;
  switch (kind) {
    case TopologyKind::kTorus2D:
    case TopologyKind::kMesh2D:
      cfg.k = pick(2, 6);
      break;
    case TopologyKind::kRing:
      cfg.k = pick(2, 12);
      break;
    case TopologyKind::kHypercube:
      cfg.k = pick(1, 5);
      break;
  }
  cfg.threads_per_processor = pick(1, 8);
  cfg.p_remote = pick(0, 7) == 0 ? 0.0 : uniform(0.01, 0.9);
  cfg.memory_ports = pick(1, 3);
  cfg.pipelined_switches = pick(0, 1) == 1;
  cfg.count_source_outbound = pick(0, 1) == 1;
  cfg.runlength = uniform(2.0, 40.0);
  cfg.context_switch = uniform(0.1, 5.0);
  cfg.memory_latency = uniform(1.0, 30.0);
  cfg.switch_delay = uniform(1.0, 20.0);
  cfg.traffic.pattern =
      pick(0, 1) == 0 ? AccessPattern::kGeometric : AccessPattern::kUniform;
  cfg.traffic.mode = pick(0, 1) == 0 ? GeometricMode::kDistanceClass
                                     : GeometricMode::kPerModule;
  cfg.traffic.p_sw = uniform(0.2, 0.9);
  return cfg;
}

/// extract_performance on a plain qn::solve_amva of the full network.
MmsPerformance plain_solve(const MmsConfig& cfg) {
  const MmsModel model(cfg);
  const qn::ClosedNetwork net = model.build_network();
  const qn::MvaSolution sol = qn::solve_amva(net, {});
  EXPECT_TRUE(sol.converged);
  return extract_performance(model, net, sol);
}

/// The eight measures of `got` and `want` agree to `rel` relative (0
/// asks for bitwise equality).
void expect_measures(const MmsPerformance& got, const MmsPerformance& want,
                     double rel) {
  const std::pair<const char*, double MmsPerformance::*> measures[] = {
      {"U_p", &MmsPerformance::processor_utilization},
      {"lambda", &MmsPerformance::access_rate},
      {"lambda_net", &MmsPerformance::message_rate},
      {"S_obs", &MmsPerformance::network_latency},
      {"L_obs", &MmsPerformance::memory_latency},
      {"U_mem", &MmsPerformance::memory_utilization},
      {"U_switch", &MmsPerformance::switch_utilization},
      {"d_avg", &MmsPerformance::average_distance},
  };
  for (const auto& [name, member] : measures) {
    if (rel == 0.0) {
      EXPECT_EQ(got.*member, want.*member) << name;
    } else {
      EXPECT_LE(std::fabs(got.*member - want.*member),
                rel * std::fabs(want.*member))
          << name << " " << got.*member << " vs " << want.*member;
    }
  }
}

/// Every field of two analyses, bitwise.
void expect_same_analysis(const MmsPerformance& got,
                          const MmsPerformance& want) {
  expect_measures(got, want, 0.0);
  EXPECT_EQ(got.open_latency, want.open_latency);
  EXPECT_EQ(got.open_utilization, want.open_utilization);
  EXPECT_EQ(got.solver_iterations, want.solver_iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.solver, want.solver);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.littles_law_error, want.littles_law_error);
  EXPECT_EQ(got.flow_balance_error, want.flow_balance_error);
}

const TopologyKind kSymmetric[] = {TopologyKind::kTorus2D, TopologyKind::kRing,
                                   TopologyKind::kHypercube};

TEST(SymmetryReduction, RandomSymmetricMachinesMatchThePlainFullSolve) {
  std::mt19937_64 rng(20261019);
  for (int draw = 0; draw < 60; ++draw) {
    const MmsConfig cfg = random_machine(rng, kSymmetric[draw % 3]);
    SCOPED_TRACE(testing::Message()
                 << "draw " << draw << ": "
                 << topo::topology_kind_name(cfg.topology) << " k=" << cfg.k
                 << " n_t=" << cfg.threads_per_processor
                 << " p_remote=" << cfg.p_remote);
    const MmsPerformance reduced = analyze(cfg);
    EXPECT_EQ(reduced.solver, qn::SolverKind::kAmva);
    EXPECT_FALSE(reduced.degraded);
    expect_measures(reduced, plain_solve(cfg), 1e-9);
  }
}

TEST(SymmetryReduction, UncoveredMachinesAndNetworkIdealsAreBitwiseFull) {
  std::mt19937_64 rng(7);
  const TopologyKind all[] = {TopologyKind::kMesh2D, TopologyKind::kTorus2D,
                              TopologyKind::kRing, TopologyKind::kHypercube};
  for (int draw = 0; draw < 48; ++draw) {
    MmsConfig cfg = random_machine(rng, all[draw % 4]);
    // Meshes as drawn; the symmetric families with a hotspot or with
    // background open arrivals, which the reduction leaves alone.
    if (cfg.topology != TopologyKind::kMesh2D) {
      cfg.p_remote = std::max(cfg.p_remote, 0.05);
      if (draw % 8 < 4) {
        cfg.traffic.hotspot_node = draw % cfg.num_processors();
        cfg.traffic.hotspot_fraction = 0.05 + 0.1 * (draw % 4);
      } else {
        cfg.open_arrival_rate = 0.0005;
      }
    }
    SCOPED_TRACE(testing::Message()
                 << "draw " << draw << ": "
                 << topo::topology_kind_name(cfg.topology) << " k=" << cfg.k
                 << " p_remote=" << cfg.p_remote << " hotspot "
                 << cfg.traffic.hotspot_fraction << " open "
                 << cfg.open_arrival_rate);
    expect_same_analysis(analyze(cfg), analyze_detailed(cfg).perf);
    if (cfg.open_arrival_rate == 0.0) {
      expect_measures(analyze(cfg), plain_solve(cfg), 0.0);
    }
    const MmsConfig ideal = ideal_config(cfg, Subsystem::kNetwork,
                                         IdealMethod::kModifyWorkload);
    expect_same_analysis(analyze(ideal), analyze_detailed(ideal).perf);
  }
  // Every network ideal of the symmetric draws too.
  for (int draw = 0; draw < 30; ++draw) {
    const MmsConfig ideal =
        ideal_config(random_machine(rng, kSymmetric[draw % 3]),
                     Subsystem::kNetwork, IdealMethod::kModifyWorkload);
    expect_same_analysis(analyze(ideal), analyze_detailed(ideal).perf);
    expect_measures(analyze(ideal), plain_solve(ideal), 0.0);
  }
}

TEST(SymmetryReduction, FailedReducedAmvaFallsBackThroughTheFullChain) {
  MmsConfig torus = MmsConfig::paper_defaults();
  // R != L: at R = L the all-local ideal's first iterate is its fixed point.
  torus.runlength = 7.0;
  const MmsConfig ideal =
      ideal_config(torus, Subsystem::kNetwork, IdealMethod::kModifyWorkload);
  for (const MmsConfig& cfg : {torus, ideal}) {
    qn::RobustOptions ropts;
    ropts.amva.max_iterations = 1;
    for (const bool linearizer_fails : {false, true}) {
      SCOPED_TRACE(testing::Message() << "p_remote=" << cfg.p_remote
                                      << " linearizer fails "
                                      << linearizer_fails);
      if (linearizer_fails) ropts.linearizer.max_core_iterations = 1;
      const RobustAnalysis reduced = analyze_robust(cfg, ropts);
      const DetailedAnalysis full = analyze_detailed(cfg, ropts);
      EXPECT_EQ(reduced.report.solver, linearizer_fails
                                           ? qn::SolverKind::kBounds
                                           : qn::SolverKind::kLinearizer);
      EXPECT_TRUE(reduced.perf.degraded);
      expect_same_analysis(reduced.perf, full.perf);
      ASSERT_EQ(reduced.report.attempts.size(), full.report.attempts.size());
      for (std::size_t i = 0; i < full.report.attempts.size(); ++i) {
        EXPECT_EQ(reduced.report.attempts[i].solver,
                  full.report.attempts[i].solver);
        EXPECT_EQ(reduced.report.attempts[i].error,
                  full.report.attempts[i].error);
        EXPECT_EQ(reduced.report.attempts[i].iterations,
                  full.report.attempts[i].iterations);
      }
      EXPECT_EQ(reduced.report.solution.throughput.size(),
                static_cast<std::size_t>(cfg.num_processors()));
    }
  }
}

}  // namespace
}  // namespace latol::core
