#include "core/mms_config.hpp"

#include <cmath>

#include "util/error.hpp"

namespace latol::core {

int MmsConfig::num_processors() const {
  switch (topology) {
    case topo::TopologyKind::kTorus2D:
    case topo::TopologyKind::kMesh2D:
      return k * k;
    case topo::TopologyKind::kRing:
      return k;
    case topo::TopologyKind::kHypercube:
      return 1 << k;
  }
  return 0;
}

void MmsConfig::validate() const {
  switch (topology) {
    case topo::TopologyKind::kTorus2D:
    case topo::TopologyKind::kMesh2D:
      LATOL_REQUIRE(k >= 1 && k <= 64, "side k=" << k);
      break;
    case topo::TopologyKind::kRing:
      LATOL_REQUIRE(k >= 1 && k <= 4096, "ring size k=" << k);
      break;
    case topo::TopologyKind::kHypercube:
      LATOL_REQUIRE(k >= 0 && k <= 12, "hypercube dimension k=" << k);
      break;
  }
  // Time parameters must be finite as well as in range: an infinite
  // latency would flow through the model as inf/NaN and only surface much
  // later as a solver kNumerical failure with the root cause lost.
  LATOL_REQUIRE(memory_latency >= 0.0 && std::isfinite(memory_latency),
                "L=" << memory_latency);
  LATOL_REQUIRE(switch_delay >= 0.0 && std::isfinite(switch_delay),
                "S=" << switch_delay);
  LATOL_REQUIRE(memory_ports >= 1, "memory_ports=" << memory_ports);
  LATOL_REQUIRE(threads_per_processor >= 1,
                "n_t=" << threads_per_processor);
  LATOL_REQUIRE(runlength > 0.0 && std::isfinite(runlength),
                "R=" << runlength);
  LATOL_REQUIRE(context_switch >= 0.0 && std::isfinite(context_switch),
                "C=" << context_switch);
  LATOL_REQUIRE(p_remote >= 0.0 && p_remote <= 1.0,
                "p_remote=" << p_remote);
  LATOL_REQUIRE(p_remote == 0.0 || num_processors() >= 2,
                "remote accesses (p_remote="
                    << p_remote << ") need at least 2 processing elements");
  LATOL_REQUIRE(open_arrival_rate >= 0.0 && std::isfinite(open_arrival_rate),
                "open_arrival_rate=" << open_arrival_rate);
  LATOL_REQUIRE(open_arrival_rate == 0.0 || num_processors() >= 2,
                "open arrivals (open_arrival_rate="
                    << open_arrival_rate
                    << ") are remote requests and need at least 2 "
                       "processing elements");
  if (traffic.pattern == topo::AccessPattern::kGeometric) {
    LATOL_REQUIRE(traffic.p_sw > 0.0 && traffic.p_sw <= 1.0,
                  "p_sw=" << traffic.p_sw);
  }
  if (traffic.hotspot_node >= 0 || traffic.hotspot_fraction != 0.0) {
    LATOL_REQUIRE(traffic.hotspot_node >= 0 &&
                      traffic.hotspot_node < num_processors(),
                  "hotspot_node=" << traffic.hotspot_node << " on "
                                  << num_processors() << " nodes");
    LATOL_REQUIRE(
        traffic.hotspot_fraction >= 0.0 && traffic.hotspot_fraction <= 1.0,
        "hotspot_fraction=" << traffic.hotspot_fraction);
  }
}

MmsConfig MmsConfig::paper_defaults() { return {}; }

}  // namespace latol::core
