// Unidirectional-distance ring (1-D torus): the simplest interconnect in
// the family, useful both as a degenerate test case and as the model of
// slotted-ring machines.
#pragma once

#include "topo/topology.hpp"

namespace latol::topo {

/// Ring of `nodes` nodes with bidirectional minimal routing; the
/// half-ring tie (even node counts) splits 50/50 like the torus.
class Ring final : public Topology {
 public:
  explicit Ring(int nodes);

  [[nodiscard]] std::string name() const override {
    return "ring(" + std::to_string(nodes_) + ")";
  }
  [[nodiscard]] int num_nodes() const override { return nodes_; }
  [[nodiscard]] int distance(int a, int b) const override;
  [[nodiscard]] int max_distance() const override { return nodes_ / 2; }
  [[nodiscard]] bool is_vertex_transitive() const override { return true; }
  void inbound_visits(int src, int dst, InboundVisits& out) const override;
  [[nodiscard]] std::vector<int> route(int src, int dst, bool tie_a,
                                       bool tie_b) const override;

 private:
  int nodes_;
};

}  // namespace latol::topo
