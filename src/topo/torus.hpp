// 2-D torus topology (the paper's interconnection network, Fig. 1).
//
// k x k nodes, each linked to four neighbours with wraparound. Messages
// use dimension-order (X then Y) minimal routing; when k is even and the
// offset along a dimension is exactly k/2 both directions are minimal and
// the route splits 50/50 between them, preserving network symmetry.
#pragma once

#include <cstddef>
#include <vector>

#include "topo/topology.hpp"

namespace latol::topo {

/// Immutable k x k torus with hop-distance and routing queries. Node ids
/// are row-major: node = y * k + x.
class Torus2D final : public Topology {
 public:
  /// Build a torus with `side` >= 1 nodes per dimension.
  explicit Torus2D(int side);

  [[nodiscard]] std::string name() const override {
    return "torus2d(" + std::to_string(side_) + ")";
  }
  [[nodiscard]] bool is_vertex_transitive() const override { return true; }
  [[nodiscard]] std::vector<int> route(int src, int dst, bool tie_a,
                                       bool tie_b) const override {
    return path(src, dst, tie_a, tie_b);
  }

  [[nodiscard]] int side() const { return side_; }
  [[nodiscard]] int num_nodes() const override { return side_ * side_; }

  [[nodiscard]] int x_of(int node) const;
  [[nodiscard]] int y_of(int node) const;
  [[nodiscard]] int node_at(int x, int y) const;

  /// Minimal hop distance between two nodes (sum of per-dimension ring
  /// distances).
  [[nodiscard]] int distance(int a, int b) const override;

  /// Largest distance between any pair: 2 * floor(side / 2).
  [[nodiscard]] int max_distance() const override;

  /// Number of nodes at each distance h = 0..max_distance() from any node
  /// (identical for every node by vertex transitivity).
  [[nodiscard]] const std::vector<int>& distance_profile() const {
    return distance_profile_;
  }

  /// Appends the inbound-switch visits of a message routed src -> dst to
  /// `out`: for each node entered along the way (intermediate hops and
  /// the destination itself) the expected number of traversals,
  /// accounting for the 50/50 split on half-ring ties. Weights sum to
  /// distance(src, dst); nothing is appended when src == dst.
  void inbound_visits(int src, int dst, InboundVisits& out) const override;

  /// One concrete dimension-order path src -> dst: the sequence of nodes
  /// entered (length = distance(src, dst), last element = dst). Half-ring
  /// ties are resolved by `x_tie_positive` / `y_tie_positive`, letting
  /// simulators either fix a canonical direction or flip a fair coin per
  /// message (which matches the analytical 50/50 split in expectation).
  [[nodiscard]] std::vector<int> path(int src, int dst,
                                      bool x_tie_positive = true,
                                      bool y_tie_positive = true) const;

 private:
  int side_;
  std::vector<int> distance_profile_;
};

}  // namespace latol::topo
