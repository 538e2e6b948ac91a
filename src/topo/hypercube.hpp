// Binary hypercube (nCUBE/CM-style): 2^d nodes, e-cube minimal routing.
#pragma once

#include "topo/topology.hpp"

namespace latol::topo {

/// d-dimensional hypercube with e-cube routing (correct address bits from
/// least to most significant). Minimal routes are unique under e-cube, so
/// the tie arguments are ignored.
class Hypercube final : public Topology {
 public:
  /// `dimension` in [0, 20]; the machine has 2^dimension nodes.
  explicit Hypercube(int dimension);

  [[nodiscard]] std::string name() const override {
    return "hypercube(" + std::to_string(dimension_) + ")";
  }
  [[nodiscard]] int num_nodes() const override { return 1 << dimension_; }
  [[nodiscard]] int distance(int a, int b) const override;
  [[nodiscard]] int max_distance() const override { return dimension_; }
  [[nodiscard]] bool is_vertex_transitive() const override { return true; }
  void inbound_visits(int src, int dst, InboundVisits& out) const override;
  [[nodiscard]] std::vector<int> route(int src, int dst, bool tie_a,
                                       bool tie_b) const override;

  [[nodiscard]] int dimension() const { return dimension_; }

 private:
  int dimension_;
};

}  // namespace latol::topo
