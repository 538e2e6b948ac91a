#include "topo/ring.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace latol::topo {

Ring::Ring(int nodes) : nodes_(nodes) {
  LATOL_REQUIRE(nodes >= 1, "ring needs >= 1 node, got " << nodes);
}

int Ring::distance(int a, int b) const {
  LATOL_REQUIRE(a >= 0 && a < nodes_ && b >= 0 && b < nodes_,
                "nodes " << a << ',' << b);
  const int d = std::abs(a - b);
  return std::min(d, nodes_ - d);
}

namespace {

/// The minimal step (+1 or -1) from src towards dst on a ring of n nodes,
/// or 0 on a half-ring tie, where both directions are minimal.
int minimal_step(int src, int dst, int n) {
  const int forward = ((dst - src) % n + n) % n;
  const int backward = n - forward;
  if (forward == backward) return 0;
  return forward < backward ? +1 : -1;
}

/// Calls `enter(node)` for each node entered stepping `step` from src to
/// dst on a ring of n nodes.
template <class Enter>
void walk(int n, int src, int dst, int step, const Enter& enter) {
  for (int at = src; at != dst;) {
    at = ((at + step) % n + n) % n;
    enter(at);
  }
}

}  // namespace

std::vector<int> Ring::route(int src, int dst, bool tie_a, bool) const {
  LATOL_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                "nodes " << src << ',' << dst);
  std::vector<int> nodes;
  const int step = minimal_step(src, dst, nodes_);
  walk(nodes_, src, dst, step != 0 ? step : (tie_a ? +1 : -1),
       [&](int node) { nodes.push_back(node); });
  return nodes;
}

void Ring::inbound_visits(int src, int dst, InboundVisits& out) const {
  LATOL_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                "nodes " << src << ',' << dst);
  const auto append = [&](int step, double weight) {
    walk(nodes_, src, dst, step,
         [&](int node) { out.emplace_back(node, weight); });
  };
  const int step = minimal_step(src, dst, nodes_);
  if (step != 0) {
    append(step, 1.0);
  } else {  // half-ring tie: split both ways
    append(+1, 0.5);
    append(-1, 0.5);
  }
}

}  // namespace latol::topo
