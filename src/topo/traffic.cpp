#include "topo/traffic.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace latol::topo {

double geometric_average_distance(int d_max, double p_sw) {
  LATOL_REQUIRE(d_max >= 1, "d_max " << d_max);
  LATOL_REQUIRE(p_sw > 0.0 && p_sw <= 1.0, "p_sw " << p_sw);
  double num = 0.0, den = 0.0;
  double ph = 1.0;
  for (int h = 1; h <= d_max; ++h) {
    ph *= p_sw;
    num += static_cast<double>(h) * ph;
    den += ph;
  }
  return num / den;
}

RemoteAccessDistribution::RemoteAccessDistribution(const Topology& topology,
                                                   const TrafficConfig& config)
    : topology_(topology), config_(config) {
  const int P = topology.num_nodes();
  LATOL_REQUIRE(P >= 2, "remote accesses need at least two nodes");
  if (config.pattern == AccessPattern::kGeometric) {
    LATOL_REQUIRE(config.p_sw > 0.0 && config.p_sw <= 1.0,
                  "p_sw " << config.p_sw);
  }
  if (config.hotspot_node >= 0 || config.hotspot_fraction != 0.0) {
    LATOL_REQUIRE(config.hotspot_node >= 0 && config.hotspot_node < P,
                  "hotspot node " << config.hotspot_node);
    LATOL_REQUIRE(
        config.hotspot_fraction >= 0.0 && config.hotspot_fraction <= 1.0,
        "hotspot_fraction " << config.hotspot_fraction);
  }

  rows_.resize(static_cast<std::size_t>(P));
  davg_from_.assign(static_cast<std::size_t>(P), 0.0);
}

double RemoteAccessDistribution::probability(int src, int dst) const {
  const std::vector<double>& r = row(src);
  LATOL_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < r.size(),
                "destination " << dst);
  return r[static_cast<std::size_t>(dst)];
}

double RemoteAccessDistribution::average_distance_from(int src) const {
  (void)row(src);
  return davg_from_[static_cast<std::size_t>(src)];
}

double RemoteAccessDistribution::average_distance() const {
  double d_avg = 0.0;
  for (int src = 0; src < static_cast<int>(rows_.size()); ++src)
    d_avg += average_distance_from(src);
  return d_avg / static_cast<double>(rows_.size());
}

const std::vector<double>& RemoteAccessDistribution::row(int src) const {
  LATOL_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < rows_.size(),
                "source " << src);
  const auto s = static_cast<std::size_t>(src);
  if (!rows_[s].empty()) return rows_[s];

  const int P = topology_.num_nodes();
  const bool per_class = config_.pattern == AccessPattern::kGeometric &&
                         config_.mode == GeometricMode::kDistanceClass;
  const std::vector<int> profile =
      per_class ? topology_.distance_profile_from(src) : std::vector<int>{};
  std::vector<double> prob(static_cast<std::size_t>(P), 0.0);

  // Base (pattern) weights, then per-source normalization.
  double total = 0.0;
  for (int dst = 0; dst < P; ++dst) {
    if (dst == src) continue;
    const int h = topology_.distance(src, dst);
    double w = 1.0;  // uniform
    if (config_.pattern == AccessPattern::kGeometric) {
      w = std::pow(config_.p_sw, h);
      // Distance-class convention: the class carries p_sw^h, shared
      // equally by the N_h(src) modules in it.
      if (per_class) {
        w /= static_cast<double>(profile[static_cast<std::size_t>(h)]);
      }
    }
    prob[static_cast<std::size_t>(dst)] = w;
    total += w;
  }
  LATOL_REQUIRE(total > 0.0, "no reachable destinations from " << src);
  for (double& q : prob) q /= total;

  // Hotspot redirection on top of the base pattern.
  if (has_hotspot() && src != config_.hotspot_node) {
    const double f = config_.hotspot_fraction;
    for (double& q : prob) q *= (1.0 - f);
    prob[static_cast<std::size_t>(config_.hotspot_node)] += f;
  }

  double davg = 0.0;
  for (int dst = 0; dst < P; ++dst)
    davg += prob[static_cast<std::size_t>(dst)] * topology_.distance(src, dst);
  davg_from_[s] = davg;
  rows_[s] = std::move(prob);
  return rows_[s];
}

}  // namespace latol::topo
