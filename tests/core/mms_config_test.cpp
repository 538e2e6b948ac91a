#include "core/mms_config.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"

namespace latol::core {
namespace {

TEST(MmsConfig, PaperDefaultsMatchTableOne) {
  const MmsConfig c = MmsConfig::paper_defaults();
  EXPECT_EQ(c.k, 4);
  EXPECT_EQ(c.num_processors(), 16);
  EXPECT_EQ(c.threads_per_processor, 8);
  EXPECT_DOUBLE_EQ(c.runlength, 10.0);
  EXPECT_DOUBLE_EQ(c.context_switch, 0.0);
  EXPECT_DOUBLE_EQ(c.p_remote, 0.2);
  EXPECT_DOUBLE_EQ(c.memory_latency, 10.0);
  EXPECT_DOUBLE_EQ(c.switch_delay, 10.0);
  EXPECT_EQ(c.traffic.pattern, topo::AccessPattern::kGeometric);
  EXPECT_DOUBLE_EQ(c.traffic.p_sw, 0.5);
  EXPECT_NO_THROW(c.validate());
}

TEST(MmsConfig, ValidationCatchesBadValues) {
  const MmsConfig base = MmsConfig::paper_defaults();

  MmsConfig c = base;
  c.k = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.runlength = 0.0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.memory_latency = -1.0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.switch_delay = -0.5;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.p_remote = 1.2;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.threads_per_processor = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.traffic.p_sw = 0.0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.context_switch = -1.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(MmsConfig, ValidationCatchesNonFiniteValues) {
  // NaN parameters must die at validate(), not surface later as a solver
  // kNumerical error with the root cause lost.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const MmsConfig base = MmsConfig::paper_defaults();

  for (const double bad : {kNan, kInf}) {
    MmsConfig c = base;
    c.runlength = bad;
    EXPECT_THROW(c.validate(), InvalidArgument);

    c = base;
    c.memory_latency = bad;
    EXPECT_THROW(c.validate(), InvalidArgument);

    c = base;
    c.switch_delay = bad;
    EXPECT_THROW(c.validate(), InvalidArgument);

    c = base;
    c.context_switch = bad;
    EXPECT_THROW(c.validate(), InvalidArgument);
  }

  MmsConfig c = base;
  c.p_remote = kNan;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base;
  c.traffic.p_sw = kNan;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(MmsConfig, ExtensionDefaultsArePaperFaithful) {
  const MmsConfig c = MmsConfig::paper_defaults();
  EXPECT_EQ(c.topology, topo::TopologyKind::kTorus2D);
  EXPECT_EQ(c.memory_ports, 1);
  EXPECT_FALSE(c.pipelined_switches);
  EXPECT_TRUE(c.count_source_outbound);
  EXPECT_EQ(c.traffic.hotspot_node, -1);
}

TEST(MmsConfig, ProcessorCountPerTopology) {
  MmsConfig c = MmsConfig::paper_defaults();
  c.k = 4;
  c.topology = topo::TopologyKind::kTorus2D;
  EXPECT_EQ(c.num_processors(), 16);
  c.topology = topo::TopologyKind::kMesh2D;
  EXPECT_EQ(c.num_processors(), 16);
  c.topology = topo::TopologyKind::kRing;
  EXPECT_EQ(c.num_processors(), 4);
  c.topology = topo::TopologyKind::kHypercube;
  EXPECT_EQ(c.num_processors(), 16);
}

TEST(MmsConfig, ValidatesExtensionKnobs) {
  MmsConfig c = MmsConfig::paper_defaults();
  c.memory_ports = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = MmsConfig::paper_defaults();
  c.topology = topo::TopologyKind::kHypercube;
  c.k = 13;  // above the 2^12 cap
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(MmsConfig, SingleNodeNeedsAllLocalAccesses) {
  MmsConfig c = MmsConfig::paper_defaults();
  c.k = 1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.p_remote = 0.0;
  EXPECT_NO_THROW(c.validate());
}

TEST(MmsConfig, HotspotNodeMustBeOnTheMachine) {
  MmsConfig c = MmsConfig::paper_defaults();  // 4x4 torus: nodes 0..15
  c.traffic.hotspot_fraction = 0.2;
  c.traffic.hotspot_node = 15;
  EXPECT_NO_THROW(c.validate());
  c.traffic.hotspot_node = 16;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.traffic.hotspot_node = 99;
  EXPECT_THROW(c.validate(), InvalidArgument);
  // A redirected fraction needs a target node.
  c.traffic.hotspot_node = -1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  // The bound is the machine's processor count, whatever the topology.
  c.topology = topo::TopologyKind::kRing;
  c.k = 99;
  c.traffic.hotspot_node = 98;
  EXPECT_NO_THROW(c.validate());
  c.k = 98;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(MmsConfig, HotspotFractionIsAProbability) {
  MmsConfig c = MmsConfig::paper_defaults();
  c.traffic.hotspot_node = 0;
  for (const double ok : {0.0, 0.5, 1.0}) {
    c.traffic.hotspot_fraction = ok;
    EXPECT_NO_THROW(c.validate()) << ok;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-0.1, 1.5, nan}) {
    c.traffic.hotspot_fraction = bad;
    EXPECT_THROW(c.validate(), InvalidArgument) << bad;
  }
  // The defaults (node -1, fraction 0) switch the hotspot off.
  EXPECT_NO_THROW(MmsConfig::paper_defaults().validate());
}

TEST(MmsConfig, ZeroDelaysAreLegalIdealSystems) {
  MmsConfig c = MmsConfig::paper_defaults();
  c.switch_delay = 0.0;
  EXPECT_NO_THROW(c.validate());
  c.memory_latency = 0.0;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace latol::core
