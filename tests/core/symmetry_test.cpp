// Proof obligations of the symmetry reductions (DESIGN.md §2.3):
//  (a) on a torus, ring or hypercube without a hotspot, node translations
//      carry every class row of build_network() onto row 0, which is what
//      makes a station type's total the sum of class 0's queues over it;
//  (b) on random symmetric machines the reduced analyze() reaches the full
//      network's AMVA fixed point;
//  (c) on meshes and tori with a hotspot, every D4 element the finder
//      keeps carries every row onto its image, a brute-force scan of D4
//      finds the same orbits, and the reduced analyze() reaches the full
//      fixed point with one class per orbit;
//  (d) machines no reduction covers, and every network ideal, come out
//      bitwise as the full-network path gives them;
// and a failed reduced AMVA degrades exactly as a failed full one does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

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

/// The eight elements of D4 as maps of coordinates relative to a centre.
using D4Map = std::pair<int, int> (*)(int, int);
const D4Map kD4[] = {
    [](int a, int b) { return std::pair{a, b}; },
    [](int a, int b) { return std::pair{-b, a}; },
    [](int a, int b) { return std::pair{-a, -b}; },
    [](int a, int b) { return std::pair{b, -a}; },
    [](int a, int b) { return std::pair{-a, b}; },
    [](int a, int b) { return std::pair{a, -b}; },
    [](int a, int b) { return std::pair{b, a}; },
    [](int a, int b) { return std::pair{-b, -a}; },
};

/// Element `e` of D4 as a node permutation: about the mesh centre, or
/// about the hotspot on a torus.
std::vector<std::size_t> d4_permutation(const MmsConfig& cfg, int e) {
  const int k = cfg.k;
  const bool mesh = cfg.topology == TopologyKind::kMesh2D;
  const int hx = mesh ? 0 : cfg.traffic.hotspot_node % k;
  const int hy = mesh ? 0 : cfg.traffic.hotspot_node / k;
  std::vector<std::size_t> image(static_cast<std::size_t>(k * k));
  for (int n = 0; n < k * k; ++n) {
    const int x = n % k;
    const int y = n / k;
    if (mesh) {  // doubled coordinates about ((k-1)/2, (k-1)/2)
      const auto [a, b] = kD4[e](2 * x - (k - 1), 2 * y - (k - 1));
      image[static_cast<std::size_t>(n)] =
          static_cast<std::size_t>((b + k - 1) / 2 * k + (a + k - 1) / 2);
    } else {
      const auto [a, b] = kD4[e](x - hx, y - hy);
      image[static_cast<std::size_t>(n)] = static_cast<std::size_t>(
          ((hy + b) % k + k) % k * k + ((hx + a) % k + k) % k);
    }
  }
  return image;
}

/// True when node permutation `g` carries every class row of `net` onto
/// its image: v(g(c), g(m)) = v(c, m) for every station type, within
/// 1e-12 relative.
bool preserves_rows(const qn::ClosedNetwork& net,
                    const std::vector<std::size_t>& g) {
  const std::size_t P = g.size();
  for (std::size_t c = 0; c < P; ++c) {
    for (std::size_t n = 0; n < P; ++n) {
      for (std::size_t t = 0; t < 4; ++t) {
        const double a = net.visit_ratio(c, 4 * n + t);
        const double b = net.visit_ratio(g[c], 4 * g[n] + t);
        if (std::fabs(a - b) > 1e-12 * std::max(a, b)) return false;
      }
    }
  }
  return true;
}

/// Orbit ids of the group `elements` generate, numbered in order of each
/// orbit's smallest node, by repeated relaxation to the orbit minimum.
std::vector<std::uint32_t> brute_force_orbits(
    std::size_t P, const std::vector<std::vector<std::size_t>>& elements) {
  std::vector<std::size_t> low(P);
  for (std::size_t n = 0; n < P; ++n) low[n] = n;
  for (bool changed = true; changed;) {
    changed = false;
    for (const std::vector<std::size_t>& g : elements) {
      for (std::size_t n = 0; n < P; ++n) {
        const std::size_t m = std::min(low[n], low[g[n]]);
        changed |= low[n] != m || low[g[n]] != m;
        low[n] = low[g[n]] = m;
      }
    }
  }
  std::vector<std::uint32_t> of(P);
  std::vector<std::uint32_t> id_of_low(P, 0);
  std::uint32_t next = 0;
  for (std::size_t n = 0; n < P; ++n) {
    if (low[n] == n) id_of_low[n] = next++;
    of[n] = id_of_low[low[n]];
  }
  return of;
}

/// A mesh (no hotspot, or `hotspot` >= 0 at `fraction`) or a torus with a
/// hotspot, at p_remote 0.3.
MmsConfig point_group_machine(TopologyKind kind, int k, int hotspot,
                              double fraction, AccessPattern pattern) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.topology = kind;
  cfg.k = k;
  cfg.p_remote = 0.3;
  cfg.traffic.pattern = pattern;
  cfg.traffic.hotspot_node = hotspot;
  cfg.traffic.hotspot_fraction = hotspot >= 0 ? fraction : 0.0;
  return cfg;
}

TEST(SymmetryReduction, PointGroupFinderKeepsExactlyTheRowPreservingElements) {
  int machines = 0;
  for (int k = 2; k <= 8; ++k) {
    const int P = k * k;
    // Every hotspot node for k <= 4, a sample beyond.
    std::vector<int> spots;
    for (int n = 0; n < P; ++n) {
      if (k <= 4 || n % (k + 3) == 0 || n == P - 1) spots.push_back(n);
    }
    std::vector<MmsConfig> cfgs;
    const auto pattern = [&cfgs] {
      return cfgs.size() % 2 == 0 ? AccessPattern::kGeometric
                                  : AccessPattern::kUniform;
    };
    cfgs.push_back(point_group_machine(TopologyKind::kMesh2D, k, -1, 0.0,
                                       pattern()));
    for (const int h : spots) {
      cfgs.push_back(
          point_group_machine(TopologyKind::kMesh2D, k, h, 0.2, pattern()));
      cfgs.push_back(
          point_group_machine(TopologyKind::kTorus2D, k, h, 0.2, pattern()));
    }
    for (const MmsConfig& cfg : cfgs) {
      SCOPED_TRACE(testing::Message()
                   << topo::topology_kind_name(cfg.topology) << " k=" << k
                   << " hotspot " << cfg.traffic.hotspot_node);
      ++machines;
      const MmsModel model(cfg);
      const NodeOrbits found = point_group_orbits(model);
      const qn::ClosedNetwork net = model.build_network();
      for (const std::vector<std::size_t>& g : found.elements) {
        EXPECT_TRUE(preserves_rows(net, g));
      }
      // Brute force: every D4 permutation that preserves the rows.
      std::vector<std::vector<std::size_t>> group{d4_permutation(cfg, 0)};
      for (int e = 1; e < 8; ++e) {
        std::vector<std::size_t> g = d4_permutation(cfg, e);
        if (std::find(group.begin(), group.end(), g) == group.end() &&
            preserves_rows(net, g)) {
          group.push_back(std::move(g));
        }
      }
      EXPECT_EQ(found.group, group.size());
      EXPECT_EQ(found.of,
                brute_force_orbits(static_cast<std::size_t>(P), group));
      ASSERT_EQ(found.rep.size(), found.size.size());
      for (std::size_t o = 0; o < found.rep.size(); ++o) {
        EXPECT_EQ(found.of[found.rep[o]], o);
        EXPECT_EQ(found.size[o],
                  std::count(found.of.begin(), found.of.end(), o));
      }
    }
  }
  EXPECT_GT(machines, 100);
}

TEST(SymmetryReduction, PointGroupOrbitCountsOnTheBenchmarkMachines) {
  // 8x8 and 12x12: the mesh, and the torus with a hotspot at node 0.
  const std::pair<int, std::pair<std::size_t, std::size_t>> counts[] = {
      {8, {10, 15}}, {12, {21, 28}}};
  for (const auto& [k, want] : counts) {
    const MmsModel mesh(point_group_machine(TopologyKind::kMesh2D, k, -1, 0.0,
                                            AccessPattern::kGeometric));
    EXPECT_EQ(point_group_orbits(mesh).rep.size(), want.first);
    const MmsModel torus(point_group_machine(TopologyKind::kTorus2D, k, 0, 0.2,
                                             AccessPattern::kGeometric));
    EXPECT_EQ(point_group_orbits(torus).rep.size(), want.second);
    EXPECT_EQ(point_group_orbits(torus).group, 8u);
  }
}

TEST(SymmetryReduction, MeshesAndHotspotToriMatchTheFullSolve) {
  std::mt19937_64 rng(20261020);
  for (int draw = 0; draw < 48; ++draw) {
    const bool mesh = draw % 2 == 0;
    MmsConfig cfg = random_machine(
        rng, mesh ? TopologyKind::kMesh2D : TopologyKind::kTorus2D);
    cfg.p_remote = std::max(cfg.p_remote, 0.05);
    const int k = cfg.k;
    const int h = std::uniform_int_distribution<int>(0, k - 1)(rng);
    // Tori: hotspots at node 0, on the diagonal, and off it. Meshes: no
    // hotspot, one on the diagonal (the transpose fixes it), or one in
    // the middle column (the x mirror fixes it when k is odd; for even k
    // the group may be trivial).
    int hotspot = -1;
    switch (draw / 2 % 4) {
      case 0:
        hotspot = mesh ? -1 : 0;
        break;
      case 1:
        hotspot = h * k + h;
        break;
      case 2:
        hotspot = mesh ? h * k + (k - 1) / 2 : h * k + (h + 1) % k;
        break;
      case 3:
        hotspot = mesh ? -1 : (h + 2) % k * k + h;
        break;
    }
    if (hotspot >= 0) {
      cfg.traffic.hotspot_node = hotspot;
      cfg.traffic.hotspot_fraction = 0.05 + 0.1 * (draw % 4);
    }
    SCOPED_TRACE(testing::Message()
                 << "draw " << draw << ": "
                 << topo::topology_kind_name(cfg.topology) << " k=" << k
                 << " p_remote=" << cfg.p_remote << " hotspot " << hotspot
                 << " @ " << cfg.traffic.hotspot_fraction);
    const RobustAnalysis reduced = analyze_robust(cfg);
    EXPECT_EQ(reduced.perf.solver, qn::SolverKind::kAmva);
    EXPECT_FALSE(reduced.perf.degraded);
    expect_measures(reduced.perf, plain_solve(cfg), 1e-9);
    // One class per node orbit, and fewer than P whenever the group is
    // not trivial.
    const NodeOrbits orbits = point_group_orbits(MmsModel(cfg));
    const std::size_t classes = reduced.report.solution.throughput.size();
    EXPECT_EQ(classes, orbits.group > 1
                           ? orbits.rep.size()
                           : static_cast<std::size_t>(cfg.num_processors()));
    if (k >= 2 && (!mesh || hotspot < 0)) {
      EXPECT_GT(orbits.group, 1u);
      EXPECT_LT(classes, static_cast<std::size_t>(cfg.num_processors()));
    }
  }
}

TEST(SymmetryReduction, UncoveredMachinesAndNetworkIdealsAreBitwiseFull) {
  std::mt19937_64 rng(7);
  const TopologyKind all[] = {TopologyKind::kMesh2D, TopologyKind::kTorus2D,
                              TopologyKind::kRing, TopologyKind::kHypercube};
  for (int draw = 0; draw < 48; ++draw) {
    MmsConfig cfg = random_machine(rng, all[draw % 4]);
    // Open arrivals on every family; a hotspot on rings and hypercubes,
    // which propose no group; and on a mesh of side >= 4 a hotspot at
    // node 1, which no element of D4 about the centre fixes. Meshes
    // without a hotspot and tori with one reduce (see
    // MeshesAndHotspotToriMatchTheFullSolve).
    cfg.p_remote = std::max(cfg.p_remote, 0.05);
    const bool hotspot = draw % 8 < 4 && cfg.topology != TopologyKind::kTorus2D;
    if (hotspot) {
      if (cfg.topology == TopologyKind::kMesh2D) cfg.k = std::max(cfg.k, 4);
      cfg.traffic.hotspot_node = cfg.topology == TopologyKind::kMesh2D
                                     ? 1
                                     : draw % cfg.num_processors();
      cfg.traffic.hotspot_fraction = 0.05 + 0.1 * (draw % 4);
    } else {
      cfg.open_arrival_rate = 0.0005;
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
  // Every network ideal of the symmetric draws and of meshes too.
  for (int draw = 0; draw < 40; ++draw) {
    const MmsConfig ideal = ideal_config(
        random_machine(rng, draw % 4 == 3 ? TopologyKind::kMesh2D
                                          : kSymmetric[draw % 4]),
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
  MmsConfig mesh = torus;
  mesh.topology = TopologyKind::kMesh2D;
  MmsConfig hotspot = torus;
  hotspot.traffic.hotspot_node = 5;
  hotspot.traffic.hotspot_fraction = 0.2;
  for (const MmsConfig& cfg : {torus, ideal, mesh, hotspot}) {
    qn::RobustOptions ropts;
    ropts.amva.max_iterations = 1;
    for (const bool linearizer_fails : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << topo::topology_kind_name(cfg.topology)
                   << " p_remote=" << cfg.p_remote << " hotspot "
                   << cfg.traffic.hotspot_node << " linearizer fails "
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
