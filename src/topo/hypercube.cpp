#include "topo/hypercube.hpp"

#include <bit>

#include "util/error.hpp"

namespace latol::topo {

Hypercube::Hypercube(int dimension) : dimension_(dimension) {
  LATOL_REQUIRE(dimension >= 0 && dimension <= 20,
                "hypercube dimension " << dimension);
}

int Hypercube::distance(int a, int b) const {
  LATOL_REQUIRE(a >= 0 && a < num_nodes() && b >= 0 && b < num_nodes(),
                "nodes " << a << ',' << b);
  return std::popcount(static_cast<unsigned>(a ^ b));
}

namespace {

/// Calls `enter(node)` for each node entered on the e-cube route
/// src -> dst of a hypercube with `nodes` nodes.
template <class Enter>
void walk_route(int nodes, int src, int dst, const Enter& enter) {
  LATOL_REQUIRE(src >= 0 && src < nodes && dst >= 0 && dst < nodes,
                "nodes " << src << ',' << dst);
  int at = src;
  for (int mask = 1; mask < nodes; mask <<= 1) {
    if ((at & mask) != (dst & mask)) {
      at ^= mask;
      enter(at);
    }
  }
}

}  // namespace

std::vector<int> Hypercube::route(int src, int dst, bool, bool) const {
  std::vector<int> nodes;
  walk_route(num_nodes(), src, dst, [&](int node) { nodes.push_back(node); });
  return nodes;
}

void Hypercube::inbound_visits(int src, int dst, InboundVisits& out) const {
  walk_route(num_nodes(), src, dst,
             [&](int node) { out.emplace_back(node, 1.0); });
}

}  // namespace latol::topo
