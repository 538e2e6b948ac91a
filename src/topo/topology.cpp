#include "topo/topology.hpp"

#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/ring.hpp"
#include "topo/torus.hpp"
#include "util/error.hpp"

namespace latol::topo {

std::vector<int> Topology::distance_profile_from(int from) const {
  std::vector<int> profile(static_cast<std::size_t>(max_distance()) + 1, 0);
  for (int n = 0; n < num_nodes(); ++n)
    ++profile[static_cast<std::size_t>(distance(from, n))];
  return profile;
}

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTorus2D:
      return "torus2d";
    case TopologyKind::kMesh2D:
      return "mesh2d";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kHypercube:
      return "hypercube";
  }
  return "?";
}

std::unique_ptr<Topology> make_topology(TopologyKind kind, int side) {
  switch (kind) {
    case TopologyKind::kTorus2D:
      return std::make_unique<Torus2D>(side);
    case TopologyKind::kMesh2D:
      return std::make_unique<Mesh2D>(side);
    case TopologyKind::kRing:
      return std::make_unique<Ring>(side);
    case TopologyKind::kHypercube:
      return std::make_unique<Hypercube>(side);
  }
  LATOL_REQUIRE(false, "unknown topology kind");
  return nullptr;  // unreachable
}

}  // namespace latol::topo
