// 2-D mesh (no wraparound): the Intel Paragon-style interconnect. Unlike
// the torus it is not vertex transitive — corner nodes see longer average
// distances than center nodes — which is exactly what the topology
// ablation bench probes.
#pragma once

#include "topo/topology.hpp"

namespace latol::topo {

/// k x k mesh with dimension-order (X then Y) routing. Minimal routes are
/// unique, so the tie arguments of route() are ignored.
class Mesh2D final : public Topology {
 public:
  explicit Mesh2D(int side);

  [[nodiscard]] std::string name() const override {
    return "mesh2d(" + std::to_string(side_) + ")";
  }
  [[nodiscard]] int num_nodes() const override { return side_ * side_; }
  [[nodiscard]] int distance(int a, int b) const override;
  [[nodiscard]] int max_distance() const override {
    return 2 * (side_ - 1);
  }
  [[nodiscard]] bool is_vertex_transitive() const override {
    return side_ <= 2;  // a 1x1 or 2x2 mesh happens to be symmetric
  }
  void inbound_visits(int src, int dst, InboundVisits& out) const override;
  [[nodiscard]] std::vector<int> route(int src, int dst, bool tie_a,
                                       bool tie_b) const override;

  [[nodiscard]] int side() const { return side_; }

 private:
  [[nodiscard]] int x_of(int node) const { return node % side_; }
  [[nodiscard]] int y_of(int node) const { return node / side_; }

  int side_;
};

}  // namespace latol::topo
