// Remote-access traffic patterns over an interconnect (the paper's
// em_{i,j}).
//
// The paper studies two destination distributions for remote memory
// accesses:
//  - geometric with locality factor p_sw: the probability of touching a
//    module at distance h shrinks by p_sw per hop; small p_sw = strong
//    locality. The paper's d_avg formula (sum_h h p^h / sum_h p^h) assigns
//    p_sw^h/a to the *distance class* h — with equal weight for each of
//    the N_h modules in the class. (Weighting classes by N_h instead is
//    the kPerModule variant; it gives d_avg = 1.66 instead of the paper's
//    1.733 at k = 4, p_sw = 0.5, which is how we know kDistanceClass is
//    the paper's reading.)
//  - uniform over the P-1 remote modules.
//
// Distributions are tabulated per source node, so non-vertex-transitive
// topologies (2-D mesh) and the hotspot extension work uniformly. A
// source's row is built the first time it is asked for, so a caller that
// reads one row (class 0's reduced solve) pays O(P), not O(P^2).
#pragma once

#include <vector>

#include "topo/topology.hpp"

namespace latol::topo {

/// Destination distribution family for remote accesses.
enum class AccessPattern {
  kGeometric,
  kUniform,
};

/// Normalization convention for the geometric pattern (see file comment).
enum class GeometricMode {
  kDistanceClass,  // paper's convention: P(distance = h) proportional to p_sw^h
  kPerModule,      // P(module at distance h) proportional to p_sw^h
};

/// Parameters of a remote-access pattern.
///
/// The optional hotspot models shared data concentrated on one node (an
/// extension beyond the paper's SPMD symmetry): a fraction
/// `hotspot_fraction` of every other node's remote accesses is redirected
/// to `hotspot_node`, the rest follows the base pattern. The hotspot
/// node's own accesses follow the base pattern unchanged.
struct TrafficConfig {
  AccessPattern pattern = AccessPattern::kGeometric;
  double p_sw = 0.5;
  GeometricMode mode = GeometricMode::kDistanceClass;
  int hotspot_node = -1;          ///< -1 disables the hotspot
  double hotspot_fraction = 0.0;  ///< in [0, 1]
};

/// The per-destination probability distribution q(src -> dst) of a remote
/// access, plus derived quantities (d_avg).
///
/// Rows are built on demand: a source's row is computed, and kept, the
/// first time probability() or average_distance_from() asks for it, and
/// nothing P x P is allocated up front. Because the const accessors fill
/// rows, a distribution (like the core::MmsModel that owns one) must not
/// be shared across threads.
class RemoteAccessDistribution {
 public:
  RemoteAccessDistribution(const Topology& topology,
                           const TrafficConfig& config);

  /// Probability that a remote access from `src` targets module `dst`.
  /// Zero when dst == src. Sums to 1 over all dst != src.
  [[nodiscard]] double probability(int src, int dst) const;

  /// Average hops traveled by a remote access (the paper's d_avg), as the
  /// mean over all source nodes; builds every row.
  [[nodiscard]] double average_distance() const;

  /// Average hops for remote accesses issued by one source node.
  [[nodiscard]] double average_distance_from(int src) const;

  /// True when a hotspot redirection is active.
  [[nodiscard]] bool has_hotspot() const {
    return config_.hotspot_node >= 0 && config_.hotspot_fraction > 0.0;
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const TrafficConfig& config() const { return config_; }

 private:
  /// Row `src` of the P x P table, built on first use.
  [[nodiscard]] const std::vector<double>& row(int src) const;

  const Topology& topology_;
  TrafficConfig config_;
  mutable std::vector<std::vector<double>> rows_;  // empty until built
  mutable std::vector<double> davg_from_;  // per-source average distance
};

/// The paper's closed-form d_avg for the geometric distance-class pattern:
/// sum_h h p_sw^h / sum_h p_sw^h over h = 1..d_max. Matches
/// RemoteAccessDistribution::average_distance() on vertex-transitive
/// topologies and exists mainly so tests can pin the 1.733 constant
/// independently of the class above.
[[nodiscard]] double geometric_average_distance(int d_max, double p_sw);

}  // namespace latol::topo
