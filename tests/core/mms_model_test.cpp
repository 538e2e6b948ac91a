#include "core/mms_model.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "qn/mva_approx.hpp"
#include "core/bottleneck.hpp"
#include "qn/mva_exact.hpp"
#include "util/error.hpp"

namespace latol::core {
namespace {

TEST(MmsModel, NetworkHasFourStationsPerNodeAndOneClassPerProcessor) {
  const MmsModel model(MmsConfig::paper_defaults());
  const auto net = model.build_network();
  EXPECT_EQ(net.num_stations(), 64u);
  EXPECT_EQ(net.num_classes(), 16u);
  for (std::size_t c = 0; c < 16; ++c) EXPECT_EQ(net.population(c), 8);
}

TEST(MmsModel, ReferenceVisitRatioIsOne) {
  const MmsModel model(MmsConfig::paper_defaults());
  const auto net = model.build_network();
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(
        net.visit_ratio(static_cast<std::size_t>(i),
                        MmsModel::stations(i).processor),
        1.0);
    // A thread never runs on a foreign processor.
    for (int j = 0; j < 16; ++j) {
      if (j == i) continue;
      EXPECT_EQ(net.visit_ratio(static_cast<std::size_t>(i),
                                MmsModel::stations(j).processor),
                0.0);
    }
  }
}

TEST(MmsModel, EveryCycleMakesExactlyOneMemoryAccess) {
  const MmsModel model(MmsConfig::paper_defaults());
  const auto net = model.build_network();
  for (std::size_t c = 0; c < 16; ++c) {
    double mem_visits = 0.0;
    for (int n = 0; n < 16; ++n)
      mem_visits += net.visit_ratio(c, MmsModel::stations(n).memory);
    EXPECT_NEAR(mem_visits, 1.0, 1e-12);
  }
}

TEST(MmsModel, OutboundVisitsAreTwiceTheRemoteProbability) {
  // Request leaves via the home outbound switch, response via the remote
  // one: total outbound visits per cycle = 2 p_remote.
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const MmsModel model(cfg);
  const auto net = model.build_network();
  for (std::size_t c = 0; c < 16; ++c) {
    double out_visits = 0.0;
    for (int n = 0; n < 16; ++n)
      out_visits += net.visit_ratio(c, MmsModel::stations(n).outbound);
    EXPECT_NEAR(out_visits, 2.0 * cfg.p_remote, 1e-12);
  }
}

TEST(MmsModel, InboundVisitsMatchAverageDistance) {
  // Each leg of a round trip crosses one inbound switch per hop: total
  // inbound visits per cycle = 2 p_remote d_avg.
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const MmsModel model(cfg);
  const auto net = model.build_network();
  for (std::size_t c = 0; c < 16; ++c) {
    double in_visits = 0.0;
    for (int n = 0; n < 16; ++n)
      in_visits += net.visit_ratio(c, MmsModel::stations(n).inbound);
    EXPECT_NEAR(in_visits, 2.0 * cfg.p_remote * model.average_distance(),
                1e-12);
  }
}

TEST(MmsModel, LocalMemoryVisitRatioIsOneMinusPRemote) {
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const MmsModel model(cfg);
  const auto net = model.build_network();
  EXPECT_NEAR(net.visit_ratio(0, MmsModel::stations(0).memory),
              1.0 - cfg.p_remote, 1e-12);
}

TEST(MmsModel, NetworkIsProductForm) {
  EXPECT_TRUE(MmsModel(MmsConfig::paper_defaults())
                  .build_network()
                  .is_product_form());
}

TEST(MmsModel, AllLocalWorkloadUsesNoSwitches) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.p_remote = 0.0;
  const MmsModel model(cfg);
  const auto net = model.build_network();
  for (int n = 0; n < 16; ++n) {
    EXPECT_EQ(net.visit_ratio(0, MmsModel::stations(n).inbound), 0.0);
    EXPECT_EQ(net.visit_ratio(0, MmsModel::stations(n).outbound), 0.0);
  }
  EXPECT_DOUBLE_EQ(net.visit_ratio(0, MmsModel::stations(0).memory), 1.0);
}

TEST(MmsModel, AnalyzeIsSymmetricAcrossClasses) {
  const auto detail = analyze_detailed(MmsConfig::paper_defaults());
  for (std::size_t c = 1; c < 16; ++c) {
    EXPECT_NEAR(detail.report.solution.throughput[c],
                detail.report.solution.throughput[0], 1e-6);
  }
}

TEST(MmsModel, PerformanceIdentitiesHold) {
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const MmsPerformance perf = analyze(cfg);
  EXPECT_TRUE(perf.converged);
  EXPECT_NEAR(perf.processor_utilization, perf.access_rate * cfg.runlength,
              1e-12);
  EXPECT_NEAR(perf.message_rate, perf.access_rate * cfg.p_remote, 1e-12);
  EXPECT_GT(perf.network_latency, 0.0);
  EXPECT_GE(perf.memory_latency, cfg.memory_latency);
  EXPECT_NEAR(perf.average_distance, 1.7333, 1e-3);
}

TEST(MmsModel, UnloadedLatenciesMatchServiceTimes) {
  // A single thread and (nearly) no remote traffic: latencies approach the
  // raw service times.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.threads_per_processor = 1;
  cfg.p_remote = 0.0;
  const MmsPerformance perf = analyze(cfg);
  EXPECT_NEAR(perf.memory_latency, cfg.memory_latency, 1e-9);
  // Cycle = R + L: utilization R/(R+L) = 0.5.
  EXPECT_NEAR(perf.processor_utilization, 0.5, 1e-9);
}

TEST(MmsModel, NetworkLatencyApproachesUnloadedValueAtLowLoad) {
  // One thread per processor, tiny p_remote: S_obs -> (d_avg + 1) S.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.threads_per_processor = 1;
  cfg.p_remote = 0.01;
  const MmsPerformance perf = analyze(cfg);
  EXPECT_NEAR(perf.network_latency, (1.7333 + 1.0) * cfg.switch_delay, 1.5);
}

TEST(MmsModel, MemoryUtilizationEqualsAccessRateTimesLatency) {
  // Every memory receives total rate lambda (local + remote combined) by
  // symmetry, so rho_mem = lambda * L.
  const MmsConfig cfg = MmsConfig::paper_defaults();
  const MmsPerformance perf = analyze(cfg);
  EXPECT_NEAR(perf.memory_utilization, perf.access_rate * cfg.memory_latency,
              1e-6);
}

TEST(MmsModel, SingleNodeMachineWorks) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.k = 1;
  cfg.p_remote = 0.0;
  const MmsPerformance perf = analyze(cfg);
  EXPECT_GT(perf.processor_utilization, 0.0);
  EXPECT_EQ(perf.network_latency, 0.0);
  EXPECT_EQ(perf.average_distance, 0.0);
}

TEST(MmsModel, AmvaTracksExactMvaOnSmallMachine) {
  // 2x2 torus, 2 threads per processor: the full multi-class MMS network
  // (16 stations, 4 classes) is small enough for exact MVA. This is the
  // strongest end-to-end check of the analytical pipeline: visit ratios,
  // routing, and the AMVA approximation all at once.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.k = 2;
  cfg.threads_per_processor = 2;
  for (const double p : {0.1, 0.3, 0.6}) {
    cfg.p_remote = p;
    const MmsModel model(cfg);
    const auto net = model.build_network();
    const auto exact = qn::solve_mva_exact(net);
    const auto amva = qn::solve_amva(net);
    for (std::size_t c = 0; c < net.num_classes(); ++c) {
      EXPECT_NEAR(amva.throughput[c], exact.throughput[c],
                  0.05 * exact.throughput[c])
          << "p_remote=" << p << " class=" << c;
    }
  }
}

TEST(MmsModel, HotspotConcentratesMemoryLoad) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.traffic.hotspot_node = 0;
  cfg.traffic.hotspot_fraction = 0.6;
  const auto detail = analyze_detailed(cfg);
  // The hotspot memory is the most utilized station of its kind.
  const double hot_util =
      detail.report.solution.utilization[MmsModel::stations(0).memory];
  for (int n = 1; n < 16; ++n) {
    EXPECT_GT(hot_util,
              detail.report.solution.utilization[MmsModel::stations(n).memory]);
  }
}

TEST(MmsModel, PerNodePerformanceDiffersUnderHotspot) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.traffic.hotspot_node = 0;
  cfg.traffic.hotspot_fraction = 0.8;
  const auto per_node = analyze_per_node(cfg);
  ASSERT_EQ(per_node.size(), 16u);
  // Far nodes (distance 4 from the hotspot) do worse than its neighbours.
  double min_up = 2.0, max_up = 0.0;
  for (const auto& perf : per_node) {
    min_up = std::min(min_up, perf.processor_utilization);
    max_up = std::max(max_up, perf.processor_utilization);
  }
  EXPECT_GT(max_up - min_up, 0.005);
}

TEST(MmsModel, PerNodePerformanceIdenticalWithoutHotspot) {
  const auto per_node = analyze_per_node(MmsConfig::paper_defaults());
  for (const auto& perf : per_node) {
    EXPECT_NEAR(perf.processor_utilization,
                per_node.front().processor_utilization, 1e-6);
  }
}

TEST(MmsModel, AllTopologiesProduceValidNetworks) {
  struct Case {
    topo::TopologyKind kind;
    int side;
    int processors;
  };
  for (const Case c : {Case{topo::TopologyKind::kTorus2D, 4, 16},
                       Case{topo::TopologyKind::kMesh2D, 4, 16},
                       Case{topo::TopologyKind::kRing, 16, 16},
                       Case{topo::TopologyKind::kHypercube, 4, 16}}) {
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.topology = c.kind;
    cfg.k = c.side;
    EXPECT_EQ(cfg.num_processors(), c.processors);
    const MmsModel model(cfg);
    const auto net = model.build_network();
    EXPECT_TRUE(net.is_product_form());
    // Conservation: one memory access per cycle regardless of topology.
    double mem_visits = 0.0;
    for (int n = 0; n < c.processors; ++n)
      mem_visits += net.visit_ratio(0, MmsModel::stations(n).memory);
    EXPECT_NEAR(mem_visits, 1.0, 1e-12)
        << topo::topology_kind_name(c.kind);
    const MmsPerformance perf = analyze(cfg);
    EXPECT_TRUE(perf.converged);
    EXPECT_GT(perf.processor_utilization, 0.0);
    EXPECT_LE(perf.processor_utilization, 1.0);
  }
}

TEST(MmsModel, ClassVisitsFromFreshModelMatchNetworkRowsBitwise) {
  // class_visits(i) on a fresh model builds traffic row i alone; the
  // network builds every row. The visit ratios agree to the bit.
  struct Case {
    topo::TopologyKind kind;
    int side;
    topo::AccessPattern pattern;
    int hotspot_node;
  };
  for (const Case c :
       {Case{topo::TopologyKind::kTorus2D, 4, topo::AccessPattern::kGeometric,
             -1},
        Case{topo::TopologyKind::kTorus2D, 5, topo::AccessPattern::kUniform,
             -1},
        Case{topo::TopologyKind::kRing, 6, topo::AccessPattern::kGeometric,
             -1},
        Case{topo::TopologyKind::kHypercube, 3,
             topo::AccessPattern::kUniform, -1},
        Case{topo::TopologyKind::kMesh2D, 3, topo::AccessPattern::kGeometric,
             2}}) {
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.topology = c.kind;
    cfg.k = c.side;
    cfg.traffic.pattern = c.pattern;
    if (c.hotspot_node >= 0) {
      cfg.traffic.hotspot_node = c.hotspot_node;
      cfg.traffic.hotspot_fraction = 0.25;
    }
    const qn::ClosedNetwork net = MmsModel(cfg).build_network();
    const int P = cfg.num_processors();
    for (const int i : {0, P / 2}) {
      const std::vector<double> v = MmsModel(cfg).class_visits(i);
      ASSERT_EQ(v.size(), net.num_stations());
      for (std::size_t m = 0; m < v.size(); ++m) {
        const double row = net.visit_ratio(static_cast<std::size_t>(i), m);
        EXPECT_EQ(std::memcmp(&v[m], &row, sizeof(double)), 0)
            << topo::topology_kind_name(c.kind) << " class " << i
            << " station " << m;
      }
    }
  }
}

TEST(MmsModel, DenserTopologiesTolerateBetterAtSameSize) {
  // 16 nodes each: hypercube (d_avg smallest) > torus > mesh > ring for
  // uniform traffic, because average distance orders that way.
  auto up = [](topo::TopologyKind kind, int side) {
    MmsConfig cfg = MmsConfig::paper_defaults();
    cfg.topology = kind;
    cfg.k = side;
    cfg.traffic.pattern = topo::AccessPattern::kUniform;
    cfg.p_remote = 0.4;  // make the network matter
    return analyze(cfg).processor_utilization;
  };
  const double cube = up(topo::TopologyKind::kHypercube, 4);
  const double torus = up(topo::TopologyKind::kTorus2D, 4);
  const double ring = up(topo::TopologyKind::kRing, 16);
  EXPECT_GT(cube, torus);
  EXPECT_GT(torus, ring);
}

TEST(MmsModel, MeshCornersSufferMoreThanCenters) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.topology = topo::TopologyKind::kMesh2D;
  cfg.k = 5;
  cfg.traffic.pattern = topo::AccessPattern::kUniform;
  cfg.p_remote = 0.4;
  const auto per_node = analyze_per_node(cfg);
  const int corner = 0;
  const int center = 12;  // (2,2)
  // Corner traffic travels farther, so corner threads wait longer... but
  // central switches also carry more through-traffic. The robust claim is
  // that per-node performance is NOT uniform on a mesh.
  EXPECT_GT(std::abs(per_node[corner].processor_utilization -
                     per_node[center].processor_utilization),
            1e-4);
}

TEST(MmsModel, LinearizerOptionTracksSimulationBetter) {
  // Schweitzer at the defaults gives ~0.819; Linearizer ~0.843 (which long
  // DES runs confirm). The option must select the better solver.
  const MmsConfig cfg = MmsConfig::paper_defaults();
  AnalysisOptions lin;
  lin.method = SolveMethod::kLinearizer;
  const double schw = analyze(cfg).processor_utilization;
  const double fine = analyze(cfg, lin).processor_utilization;
  EXPECT_NEAR(schw, 0.819, 0.01);
  EXPECT_NEAR(fine, 0.843, 0.01);
}

TEST(MmsModel, MemoryPortsRelieveTheMemoryBottleneck) {
  // Fine-grain workload (R = 4 << L): memory-bound. Extra ports raise U_p.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.runlength = 4.0;
  const double one = analyze(cfg).processor_utilization;
  cfg.memory_ports = 2;
  const double two = analyze(cfg).processor_utilization;
  cfg.memory_ports = 4;
  const double four = analyze(cfg).processor_utilization;
  EXPECT_GT(two, one * 1.1);
  EXPECT_GT(four, two);
}

TEST(MmsModel, PipelinedSwitchesRemoveNetworkQueueing) {
  // With delay-station switches the observed network latency is exactly
  // the unloaded (d_avg + 1) S regardless of load.
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.p_remote = 0.5;  // heavy network load
  cfg.pipelined_switches = true;
  const MmsPerformance perf = analyze(cfg);
  const BottleneckAnalysis bn = bottleneck_analysis(cfg);
  EXPECT_NEAR(perf.network_latency, bn.unloaded_one_way, 1e-6);
  // ...and beats the queueing-switch machine.
  cfg.pipelined_switches = false;
  EXPECT_GT(perf.processor_utilization,
            analyze(cfg).processor_utilization);
}

TEST(MmsModel, TrafficAccessorThrowsOnOneNode) {
  MmsConfig cfg = MmsConfig::paper_defaults();
  cfg.k = 1;
  cfg.p_remote = 0.0;
  const MmsModel model(cfg);
  EXPECT_THROW((void)model.traffic(), InvalidArgument);
}

}  // namespace
}  // namespace latol::core
