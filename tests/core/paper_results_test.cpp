// Integration suite pinning the paper's published quantitative claims.
// Each test names the paper section/table/figure it reproduces. Tolerances
// are deliberately loose enough to survive solver-tuning changes but tight
// enough that a modeling mistake (wrong visit ratio, wrong routing, wrong
// normalization) breaks them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/latol.hpp"

namespace latol::core {
namespace {

// --- Goldens ---------------------------------------------------------------
//
// The grids below pin every reproduced number to 1e-9 relative, so an
// algorithm change that moves results in the last bits (class 0's
// symmetry reduction, for one) keeps the reproduction pinned without byte
// identity. Iteration counts and residuals are left out: they describe
// the path, not the answer.

struct Golden {
  const char* grid;
  topo::TopologyKind topology;
  int k;
  topo::AccessPattern pattern;
  int threads;
  double runlength;
  double memory_latency;
  double p_remote;
  double up, lambda, lambda_net, s_obs, l_obs, tol_network, tol_memory;
};

constexpr auto kTorus = topo::TopologyKind::kTorus2D;
constexpr auto kRing = topo::TopologyKind::kRing;
constexpr auto kCube = topo::TopologyKind::kHypercube;
constexpr auto kGeo = topo::AccessPattern::kGeometric;
constexpr auto kUni = topo::AccessPattern::kUniform;

constexpr Golden kGoldens[] = {
#include "paper_goldens.inc"
};

void expect_golden(const char* what, double got, double want) {
  EXPECT_LE(std::fabs(got - want), 1e-9 * std::fabs(want))
      << what << " = " << got << ", golden " << want;
}

/// Checks every golden row of `grid`; returns how many there were.
int check_goldens(const char* grid) {
  int rows = 0;
  for (const Golden& g : kGoldens) {
    if (std::strcmp(g.grid, grid) != 0) continue;
    ++rows;
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.topology = g.topology;
    cfg.k = g.k;
    cfg.traffic.pattern = g.pattern;
    cfg.threads_per_processor = g.threads;
    cfg.runlength = g.runlength;
    cfg.memory_latency = g.memory_latency;
    cfg.p_remote = g.p_remote;
    SCOPED_TRACE(testing::Message()
                 << grid << " " << topo::topology_kind_name(g.topology)
                 << " k=" << g.k << " pattern=" << static_cast<int>(g.pattern)
                 << " n_t=" << g.threads << " R=" << g.runlength
                 << " L=" << g.memory_latency << " p_remote=" << g.p_remote);
    const ToleranceResult net = tolerance_index(cfg, Subsystem::kNetwork);
    const ToleranceResult mem = tolerance_index(cfg, Subsystem::kMemory);
    const MmsPerformance& a = net.actual;
    expect_golden("U_p", a.processor_utilization, g.up);
    expect_golden("lambda", a.access_rate, g.lambda);
    expect_golden("lambda_net", a.message_rate, g.lambda_net);
    expect_golden("S_obs", a.network_latency, g.s_obs);
    expect_golden("L_obs", a.memory_latency, g.l_obs);
    expect_golden("tol_network", net.index, g.tol_network);
    expect_golden("tol_memory", mem.index, g.tol_memory);
  }
  return rows;
}

TEST(PaperGoldens, Fig04WorkloadGrid) { EXPECT_EQ(check_goldens("fig04"), 56); }

TEST(PaperGoldens, Table3PartitioningGrid) {
  EXPECT_EQ(check_goldens("table3"), 12);
}

TEST(PaperGoldens, Fig08MemoryToleranceGrid) {
  EXPECT_EQ(check_goldens("fig08"), 72);
}

TEST(PaperGoldens, Fig09MachineSizeGrid) {
  EXPECT_EQ(check_goldens("fig09"), 140);
}

TEST(PaperGoldens, ScalingFamilySizes) {
  EXPECT_EQ(check_goldens("scaling"), 21);
}

// --- Asymmetric goldens ------------------------------------------------------
//
// Meshes and hotspot machines, pinned like the paper grids (1e-9
// relative) so their symmetry-group reduction can move the last bits.

struct AsymmetricGolden {
  const char* grid;
  topo::TopologyKind topology;
  int k;
  topo::AccessPattern pattern;
  int threads;
  double p_remote;
  int hotspot_node;
  double hotspot_fraction;
  double up, lambda, lambda_net, s_obs, l_obs, tol_network, tol_memory;
};

constexpr auto kMesh = topo::TopologyKind::kMesh2D;

constexpr AsymmetricGolden kAsymmetricGoldens[] = {
#include "asymmetric_goldens.inc"
};

/// Checks every asymmetric golden row of `grid`; returns how many there
/// were.
int check_asymmetric_goldens(const char* grid) {
  int rows = 0;
  for (const AsymmetricGolden& g : kAsymmetricGoldens) {
    if (std::strcmp(g.grid, grid) != 0) continue;
    ++rows;
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.topology = g.topology;
    cfg.k = g.k;
    cfg.traffic.pattern = g.pattern;
    cfg.threads_per_processor = g.threads;
    cfg.p_remote = g.p_remote;
    cfg.traffic.hotspot_node = g.hotspot_node;
    cfg.traffic.hotspot_fraction = g.hotspot_fraction;
    SCOPED_TRACE(testing::Message()
                 << grid << " " << topo::topology_kind_name(g.topology)
                 << " k=" << g.k << " pattern=" << static_cast<int>(g.pattern)
                 << " n_t=" << g.threads << " p_remote=" << g.p_remote
                 << " hotspot " << g.hotspot_node << " @ "
                 << g.hotspot_fraction);
    const ToleranceResult net = tolerance_index(cfg, Subsystem::kNetwork);
    const ToleranceResult mem = tolerance_index(cfg, Subsystem::kMemory);
    const MmsPerformance& a = net.actual;
    expect_golden("U_p", a.processor_utilization, g.up);
    expect_golden("lambda", a.access_rate, g.lambda);
    expect_golden("lambda_net", a.message_rate, g.lambda_net);
    expect_golden("S_obs", a.network_latency, g.s_obs);
    expect_golden("L_obs", a.memory_latency, g.l_obs);
    expect_golden("tol_network", net.index, g.tol_network);
    expect_golden("tol_memory", mem.index, g.tol_memory);
  }
  return rows;
}

TEST(AsymmetricGoldens, Meshes) { EXPECT_EQ(check_asymmetric_goldens("mesh"), 44); }

TEST(AsymmetricGoldens, ToriWithAHotspotAtNodeZero) {
  EXPECT_EQ(check_asymmetric_goldens("hotspot0"), 39);
}

TEST(AsymmetricGoldens, ToriWithAHotspotOnTheDiagonal) {
  EXPECT_EQ(check_asymmetric_goldens("hotspot_diagonal"), 10);
}

TEST(AsymmetricGoldens, ToriWithAHotspotOffTheDiagonal) {
  EXPECT_EQ(check_asymmetric_goldens("hotspot_off_diagonal"), 10);
}

TEST(AsymmetricGoldens, MeshHotspotsThatSomeReflectionFixes) {
  EXPECT_EQ(check_asymmetric_goldens("mesh_hotspot_fixed"), 10);
}

TEST(AsymmetricGoldens, MeshHotspotsThatNoReflectionFixes) {
  EXPECT_EQ(check_asymmetric_goldens("mesh_hotspot_free"), 6);
}

// --- §5 / Table 2 -----------------------------------------------------------

TEST(PaperResults, Table2NetworkToleranceAtDefaults) {
  // R=10, n_t=8, p_remote=0.2: the paper reports tol_network = 0.929 and
  // S_obs ~= 53.
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const ToleranceResult t = tolerance_index(cfg, Subsystem::kNetwork);
  EXPECT_NEAR(t.index, 0.929, 0.03);
  EXPECT_NEAR(t.actual.network_latency, 53.0, 4.0);
  EXPECT_EQ(t.zone(), ToleranceZone::kTolerated);
}

TEST(PaperResults, Table2SameLatencyDifferentTolerance) {
  // "n_t = 8 tolerates an S_obs of 53 time units, but n_t = 3 does not":
  // workload characteristics, not the latency value, decide tolerance.
  MmsConfig big = MmsConfig::paper_defaults();   // n_t = 8, p = 0.2
  MmsConfig small = MmsConfig::paper_defaults();
  small.threads_per_processor = 3;
  small.p_remote = 0.4;  // fewer threads, more remote traffic
  const ToleranceResult t_big = tolerance_index(big, Subsystem::kNetwork);
  const ToleranceResult t_small = tolerance_index(small, Subsystem::kNetwork);
  // Comparable observed latencies...
  EXPECT_NEAR(t_big.actual.network_latency, t_small.actual.network_latency,
              12.0);
  // ...but clearly different tolerance zones.
  EXPECT_EQ(t_big.zone(), ToleranceZone::kTolerated);
  EXPECT_NE(t_small.zone(), ToleranceZone::kTolerated);
}

// --- §5 / Figures 4-5 -------------------------------------------------------

TEST(PaperResults, Fig4MessageRateSaturatesAtEqFourValue) {
  // lambda_net flattens once p_remote passes ~0.3 (R = 10), approaching
  // the Eq. 4 cap from below (a finite thread population keeps the
  // switches a little under 100% busy, so ~85-90% of the cap at n_t = 8).
  MmsConfig cfg = MmsConfig::paper_defaults();
  const double cap = bottleneck_analysis(cfg).lambda_net_sat;
  cfg.p_remote = 0.5;
  const double at_half = analyze(cfg).message_rate;
  cfg.p_remote = 0.8;
  const double at_eight = analyze(cfg).message_rate;
  EXPECT_LE(at_half, cap);
  EXPECT_LE(at_eight, cap);
  EXPECT_GT(at_half, 0.78 * cap);
  // Saturated: nearly flat in p_remote.
  EXPECT_NEAR(at_half, at_eight, 0.05 * cap);
  // More threads push the rate closer to the closed-form cap.
  cfg.threads_per_processor = 32;
  EXPECT_GT(analyze(cfg).message_rate, 0.93 * cap);
}

TEST(PaperResults, Fig4UtilizationZonesInPRemote) {
  // U_p stays high below the Eq. 5 critical point, drops between the
  // critical point and saturation, and is lowest beyond saturation.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.threads_per_processor = 4;
  cfg.p_remote = 0.05;
  const double low = analyze(cfg).processor_utilization;
  cfg.p_remote = 0.25;
  const double mid = analyze(cfg).processor_utilization;
  cfg.p_remote = 0.6;
  const double high = analyze(cfg).processor_utilization;
  EXPECT_GT(low, 0.75);
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, high);
  EXPECT_LT(high, 0.5);
}

TEST(PaperResults, Fig4NetworkLatencyGrowsLinearlyWithThreads) {
  // At saturation S_obs grows ~linearly in n_t (more messages waiting).
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.p_remote = 0.5;
  std::vector<double> sobs;
  for (const int n : {2, 4, 6, 8}) {
    cfg.threads_per_processor = n;
    sobs.push_back(analyze(cfg).network_latency);
  }
  const double d1 = sobs[1] - sobs[0];
  const double d2 = sobs[2] - sobs[1];
  const double d3 = sobs[3] - sobs[2];
  EXPECT_GT(d1, 0.0);
  // Successive increments within 35% of each other = roughly linear.
  EXPECT_NEAR(d2, d1, 0.35 * d1);
  EXPECT_NEAR(d3, d2, 0.35 * d2);
}

TEST(PaperResults, Fig5HigherRunlengthToleratesHigherPRemote) {
  // R = 20 tolerates p_remote values up to ~0.6 (vs ~0.3 at R = 10).
  MmsConfig r10 = MmsConfig::paper_defaults();
  r10.p_remote = 0.4;
  MmsConfig r20 = r10;
  r20.runlength = 20.0;
  const double t10 = tolerance_index(r10, Subsystem::kNetwork).index;
  const double t20 = tolerance_index(r20, Subsystem::kNetwork).index;
  EXPECT_LT(t10, 0.8);
  EXPECT_GT(t20, t10 + 0.1);
}

TEST(PaperResults, MostGainsByFiveToEightThreads) {
  // "a use of 5 to 8 threads results in most of the performance gains".
  MmsConfig cfg = MmsConfig::paper_defaults();
  auto up = [&](int n) {
    cfg.threads_per_processor = n;
    return analyze(cfg).processor_utilization;
  };
  const double u1 = up(1), u5 = up(5), u8 = up(8), u16 = up(16);
  EXPECT_GT(u5 - u1, 4.0 * (u8 - u5));  // early gains dominate
  // >= 80% of the n_t = 16 gain is already realized by n_t = 8.
  EXPECT_GT((u8 - u1) / (u16 - u1), 0.8);
}

// --- §6 / Figure 8, Table 4 -------------------------------------------------

TEST(PaperResults, Fig8MemoryToleranceSaturatesForLongRunlengths) {
  // tol_memory ~= 1 for R >= 2L and n_t >= 6.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.runlength = 2.0 * cfg.memory_latency;
  cfg.threads_per_processor = 6;
  EXPECT_GT(tolerance_index(cfg, Subsystem::kMemory).index, 0.93);
}

TEST(PaperResults, Table4DoublingMemoryLatencyHurtsShortRunlengths) {
  // L: 10 -> 20 at R = 10 substantially lowers tol_memory and U_p.
  MmsConfig l10 = MmsConfig::paper_defaults();
  MmsConfig l20 = l10;
  l20.memory_latency = 20.0;
  const ToleranceResult t10 = tolerance_index(l10, Subsystem::kMemory);
  const ToleranceResult t20 = tolerance_index(l20, Subsystem::kMemory);
  EXPECT_LT(t20.index, t10.index - 0.1);
  EXPECT_LT(t20.actual.processor_utilization,
            t10.actual.processor_utilization);
}

TEST(PaperResults, HighToleranceOfOneSubsystemIsNotEnough) {
  // §6 point 1: U_p is high only when BOTH latencies are tolerated. Build
  // a point where memory is tolerated but the network is not.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.p_remote = 0.6;  // deep network saturation
  const double tol_mem = tolerance_index(cfg, Subsystem::kMemory).index;
  const double tol_net = tolerance_index(cfg, Subsystem::kNetwork).index;
  const double up = analyze(cfg).processor_utilization;
  EXPECT_GT(tol_mem, 0.8);
  EXPECT_LT(tol_net, 0.5);
  EXPECT_LT(up, 0.5);
}

// --- §7 / Figures 9-10 ------------------------------------------------------

TEST(PaperResults, Fig9GeometricBeatsUniformOnLargeMachines) {
  MmsConfig geo = MmsConfig::paper_defaults();
  geo.k = 10;
  MmsConfig uni = geo;
  uni.traffic.pattern = topo::AccessPattern::kUniform;
  const double t_geo = tolerance_index(geo, Subsystem::kNetwork).index;
  const double t_uni = tolerance_index(uni, Subsystem::kNetwork).index;
  EXPECT_GT(t_geo, t_uni + 0.2);
}

TEST(PaperResults, Fig9ToleranceApproachesOneUnderGoodLocality) {
  // §7 observation 3 claims tol_network up to ~1.05 for geometric traffic
  // on k >= 6 at R = 10 — i.e. the finite-delay network *beating* the
  // ideal. An exactly-implemented product-form model cannot produce that
  // crossover (closed PF networks are monotone in service demands), and
  // ours doesn't: the reproduced effect is tol_network -> 1 from below as
  // n_t grows, with the memory-contention-relief mechanism the paper
  // describes showing up in L_obs instead (next test). Documented as a
  // reproduction deviation in EXPERIMENTS.md.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.k = 8;
  cfg.threads_per_processor = 20;
  const double tol = tolerance_index(cfg, Subsystem::kNetwork).index;
  EXPECT_GT(tol, 0.95);
  EXPECT_LE(tol, 1.0 + 1e-6);
  // Monotone in n_t toward 1.
  cfg.threads_per_processor = 8;
  EXPECT_LT(tolerance_index(cfg, Subsystem::kNetwork).index, tol);
}

TEST(PaperResults, Fig9ThreadRequirementIndependentOfMachineSize) {
  // "n_t to tolerate the network latency does not change with the size of
  // the system": tolerance at n_t = 8 is near-saturated for every k.
  for (const int k : {2, 4, 8}) {
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.k = k;
    cfg.threads_per_processor = 8;
    const double t8 = tolerance_index(cfg, Subsystem::kNetwork).index;
    cfg.threads_per_processor = 16;
    const double t16 = tolerance_index(cfg, Subsystem::kNetwork).index;
    EXPECT_LT(t16 - t8, 0.06) << "k=" << k;
  }
}

TEST(PaperResults, Fig10GeometricThroughputScalesAlmostLinearly) {
  // System throughput P * U_p for geometric traffic grows ~linearly in P;
  // uniform falls far behind by k = 10.
  auto throughput = [](int k, topo::AccessPattern pattern) {
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.k = k;
    cfg.traffic.pattern = pattern;
    return cfg.num_processors() * analyze(cfg).processor_utilization;
  };
  const double geo4 = throughput(4, topo::AccessPattern::kGeometric);
  const double geo8 = throughput(8, topo::AccessPattern::kGeometric);
  const double uni8 = throughput(8, topo::AccessPattern::kUniform);
  EXPECT_NEAR(geo8 / geo4, 4.0, 0.5);  // ~linear in P
  EXPECT_LT(uni8, 0.7 * geo8);
}

TEST(PaperResults, Fig10FiniteNetworkRelievesMemoryContention) {
  // The mechanism behind the paper's §7 claim: with S = 0 remote requests
  // slam the memories; finite switch delays hold customers in the network
  // pipeline and lower the observed memory latency. We reproduce the
  // L_obs relief; in an exact product-form treatment the relief never
  // fully pays back the added switch residence, so U_p stays (slightly)
  // below the ideal network's — see EXPERIMENTS.md for the deviation note.
  MmsConfig finite = MmsConfig::paper_defaults();
  finite.k = 8;
  MmsConfig ideal = finite;
  ideal.switch_delay = 0.0;
  const MmsPerformance pf = analyze(finite);
  const MmsPerformance pi = analyze(ideal);
  EXPECT_LT(pf.memory_latency, pi.memory_latency);
  EXPECT_LT(pf.processor_utilization, pi.processor_utilization);
  EXPECT_GT(pf.processor_utilization, 0.90 * pi.processor_utilization);
}

}  // namespace
}  // namespace latol::core
