#include "topo/torus.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace latol::topo {

namespace {

/// Ring distance between positions a and b on a ring of size k.
int ring_distance(int a, int b, int k) {
  const int d = std::abs(a - b);
  return std::min(d, k - d);
}

/// The minimal steps along one ring of size k from `from` to `to`: one
/// step of weight 1 (a zero step when they coincide, so a product of
/// weights is unchanged), or, on a half-ring tie, +1 and -1 at 0.5 each.
struct RingDirections {
  int count = 1;
  int step[2] = {0, 0};
  double weight[2] = {1.0, 1.0};
};

RingDirections ring_directions(int from, int to, int k) {
  RingDirections dirs;
  if (from == to) return dirs;
  const int forward = ((to - from) % k + k) % k;
  const int backward = k - forward;
  if (forward != backward) {
    dirs.step[0] = forward < backward ? +1 : -1;
  } else {
    dirs = {2, {+1, -1}, {0.5, 0.5}};  // half-ring tie: split both ways
  }
  return dirs;
}

}  // namespace

Torus2D::Torus2D(int side) : side_(side) {
  LATOL_REQUIRE(side >= 1, "torus side must be >= 1, got " << side);
  distance_profile_.assign(static_cast<std::size_t>(max_distance()) + 1, 0);
  for (int n = 0; n < num_nodes(); ++n)
    ++distance_profile_[static_cast<std::size_t>(distance(0, n))];
}

int Torus2D::x_of(int node) const {
  LATOL_REQUIRE(node >= 0 && node < num_nodes(), "node " << node);
  return node % side_;
}

int Torus2D::y_of(int node) const {
  LATOL_REQUIRE(node >= 0 && node < num_nodes(), "node " << node);
  return node / side_;
}

int Torus2D::node_at(int x, int y) const {
  LATOL_REQUIRE(x >= 0 && x < side_ && y >= 0 && y < side_,
                "coordinates (" << x << ',' << y << ") outside " << side_
                                << 'x' << side_);
  return y * side_ + x;
}

int Torus2D::distance(int a, int b) const {
  return ring_distance(x_of(a), x_of(b), side_) +
         ring_distance(y_of(a), y_of(b), side_);
}

int Torus2D::max_distance() const { return 2 * (side_ / 2); }

void Torus2D::inbound_visits(int src, int dst, InboundVisits& out) const {
  if (src == dst) return;
  const int sx = x_of(src), sy = y_of(src);
  const int dx = x_of(dst), dy = y_of(dst);
  const RingDirections xd = ring_directions(sx, dx, side_);
  const RingDirections yd = ring_directions(sy, dy, side_);
  for (int i = 0; i < xd.count; ++i) {
    for (int j = 0; j < yd.count; ++j) {
      const double weight = xd.weight[i] * yd.weight[j];
      int x = sx, y = sy;
      while (x != dx) {
        x = ((x + xd.step[i]) % side_ + side_) % side_;
        out.emplace_back(node_at(x, y), weight);
      }
      while (y != dy) {
        y = ((y + yd.step[j]) % side_ + side_) % side_;
        out.emplace_back(node_at(x, y), weight);
      }
    }
  }
}

std::vector<int> Torus2D::path(int src, int dst, bool x_tie_positive,
                               bool y_tie_positive) const {
  std::vector<int> nodes;
  if (src == dst) return nodes;
  const int sx = x_of(src), sy = y_of(src);
  const int dx = x_of(dst), dy = y_of(dst);

  // A tie takes step[0] (+1) when tie_positive, else step[1] (-1).
  const RingDirections xd = ring_directions(sx, dx, side_);
  const RingDirections yd = ring_directions(sy, dy, side_);
  const int x_step = xd.step[x_tie_positive ? 0 : xd.count - 1];
  const int y_step = yd.step[y_tie_positive ? 0 : yd.count - 1];
  int x = sx, y = sy;
  while (x != dx) {
    x = ((x + x_step) % side_ + side_) % side_;
    nodes.push_back(node_at(x, y));
  }
  while (y != dy) {
    y = ((y + y_step) % side_ + side_) % side_;
    nodes.push_back(node_at(x, y));
  }
  return nodes;
}

}  // namespace latol::topo
