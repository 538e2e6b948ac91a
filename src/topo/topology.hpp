// Abstract interconnection topology.
//
// The paper analyzes a 2-D torus, but nothing in the framework depends on
// that choice: the CQN only needs hop distances and the inbound-switch
// visits of routed messages. This interface lets the same model run on
// the interconnects of the paper's era — 2-D torus (Cray T3D), 2-D mesh
// (Intel Paragon), ring, and hypercube (nCUBE) — and lets benches compare
// how topology changes latency tolerance.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace latol::topo {

/// Expected inbound-switch traversals of routed messages: (node, weight)
/// pairs, as Topology::inbound_visits appends them.
using InboundVisits = std::vector<std::pair<int, double>>;

/// A static point-to-point interconnect with deterministic minimal
/// routing (ties, where they exist, split evenly in expectation).
class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int num_nodes() const = 0;

  /// Minimal hop distance between two nodes.
  [[nodiscard]] virtual int distance(int a, int b) const = 0;

  /// Largest distance between any pair of nodes.
  [[nodiscard]] virtual int max_distance() const = 0;

  /// Appends the expected inbound-switch traversals of a message src ->
  /// dst to `out`: (node, weight) pairs over the nodes entered
  /// (intermediates + destination), route by route in routing order, with
  /// weights summing to distance(src, dst); nothing when src == dst. The
  /// caller owns the buffer, so walking many routes allocates once.
  virtual void inbound_visits(int src, int dst, InboundVisits& out) const = 0;

  /// One concrete minimal route src -> dst (sequence of nodes entered).
  /// `tie_a` / `tie_b` select directions where the routing has binary
  /// ties; topologies without ties ignore them.
  [[nodiscard]] virtual std::vector<int> route(int src, int dst,
                                               bool tie_a = true,
                                               bool tie_b = true) const = 0;

  /// True when every node sees the same distance profile (torus, ring,
  /// hypercube); false for e.g. a mesh, whose corners differ from its
  /// center. Affects how traffic distributions are tabulated.
  [[nodiscard]] virtual bool is_vertex_transitive() const = 0;

  /// Distance histogram as seen from `from` (index = distance).
  [[nodiscard]] std::vector<int> distance_profile_from(int from) const;
};

/// Supported topology families.
enum class TopologyKind {
  kTorus2D,    // the paper's machine
  kMesh2D,     // no wraparound links
  kRing,       // 1-D torus
  kHypercube,  // side is log2(nodes)
};

/// Human-readable name of `kind`: "torus2d", "mesh2d", "ring" or
/// "hypercube".
[[nodiscard]] const char* topology_kind_name(TopologyKind kind);

/// Factory: build a topology of `kind` with `side` nodes per dimension
/// (ring: side = node count; hypercube: side = dimension, 2^side nodes).
[[nodiscard]] std::unique_ptr<Topology> make_topology(TopologyKind kind,
                                                      int side);

}  // namespace latol::topo
