#include "topo/mesh.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace latol::topo {

Mesh2D::Mesh2D(int side) : side_(side) {
  LATOL_REQUIRE(side >= 1, "mesh side must be >= 1, got " << side);
}

int Mesh2D::distance(int a, int b) const {
  LATOL_REQUIRE(a >= 0 && a < num_nodes() && b >= 0 && b < num_nodes(),
                "nodes " << a << ',' << b);
  return std::abs(x_of(a) - x_of(b)) + std::abs(y_of(a) - y_of(b));
}

namespace {

/// Calls `enter(node)` for each node entered on the X-then-Y route
/// src -> dst of a side x side mesh.
template <class Enter>
void walk_route(int side, int src, int dst, const Enter& enter) {
  LATOL_REQUIRE(src >= 0 && src < side * side && dst >= 0 &&
                    dst < side * side,
                "nodes " << src << ',' << dst);
  int x = src % side, y = src / side;
  const int dx = dst % side, dy = dst / side;
  while (x != dx) {
    x += (dx > x) ? 1 : -1;
    enter(y * side + x);
  }
  while (y != dy) {
    y += (dy > y) ? 1 : -1;
    enter(y * side + x);
  }
}

}  // namespace

std::vector<int> Mesh2D::route(int src, int dst, bool, bool) const {
  std::vector<int> nodes;
  walk_route(side_, src, dst, [&](int node) { nodes.push_back(node); });
  return nodes;
}

void Mesh2D::inbound_visits(int src, int dst, InboundVisits& out) const {
  walk_route(side_, src, dst, [&](int node) { out.emplace_back(node, 1.0); });
}

}  // namespace latol::topo
