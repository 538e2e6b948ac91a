// Multi-class closed queueing network description.
//
// This is the substrate under the paper's analytical framework (§2): a
// product-form ("BCMP") closed network of single-server FCFS stations with
// exponentially distributed service, one closed customer class per
// processor. The description is solver-agnostic: exact MVA, approximate
// MVA (the paper's Fig. 3 algorithm), convolution, and the brute-force
// CTMC solver all consume a ClosedNetwork.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace latol::qn {

/// Station service discipline.
enum class StationKind {
  /// FCFS queue, exponential service, `Station::servers` parallel servers
  /// (1 = the paper's stations). Product form requires the service time
  /// to be class-independent at stations visited by more than one class;
  /// `ClosedNetwork::is_product_form()` checks this. For servers > 1 the
  /// MVA solvers use the Seidmann approximation (service s/m plus a fixed
  /// delay s(m-1)/m); the CTMC solver is exact.
  kQueueing,
  /// Infinite-server (pure delay) station: no queueing, per-class delays
  /// are allowed under product form. Also models pipelined resources
  /// (e.g. wormhole switches) that never serialize traffic.
  kDelay,
};

/// One service center.
struct Station {
  std::string name;
  StationKind kind = StationKind::kQueueing;
  /// Parallel servers for kQueueing (>= 1); ignored for kDelay. A
  /// multiported memory is a kQueueing station with servers = ports.
  int servers = 1;
};

/// A closed, multi-class queueing network with per-class visit ratios and
/// service times. Visit ratios are relative to an arbitrary per-class
/// reference; throughputs reported by the solvers are "cycles per time
/// unit" where one cycle corresponds to visit ratio 1.
class ClosedNetwork {
 public:
  /// `stations` defines the service centers; `num_classes` closed classes
  /// are created with population 0, zero visit ratios, and zero service.
  ClosedNetwork(std::vector<Station> stations, std::size_t num_classes);

  [[nodiscard]] std::size_t num_stations() const { return stations_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return population_.size(); }
  [[nodiscard]] const Station& station(std::size_t m) const;

  /// Closed population of class `c` (threads resident on processor `c` in
  /// the MMS instantiation).
  void set_population(std::size_t c, long n);
  [[nodiscard]] long population(std::size_t c) const;
  [[nodiscard]] long total_population() const;

  /// Mean visits by a class-`c` customer to station `m` per cycle.
  void set_visit_ratio(std::size_t c, std::size_t m, double v);
  [[nodiscard]] double visit_ratio(std::size_t c, std::size_t m) const;

  /// Mean service time of a class-`c` customer at station `m`.
  void set_service_time(std::size_t c, std::size_t m, double s);
  [[nodiscard]] double service_time(std::size_t c, std::size_t m) const;

  /// Service demand D = visit ratio x service time.
  [[nodiscard]] double demand(std::size_t c, std::size_t m) const;

  /// Total demand of class `c` over all stations (the zero-contention
  /// cycle time; the asymptotic-bound denominator).
  [[nodiscard]] double total_demand(std::size_t c) const;

  /// True when every queueing station visited by two or more classes has
  /// identical service times across the classes that visit it — the BCMP
  /// condition under which MVA is exact for this network.
  [[nodiscard]] bool is_product_form(double rel_tol = 1e-12) const;

  /// Orbit maps of a symmetry reduction (DESIGN.md §10): `orbit[m]` names
  /// the orbit of station m, ids dense from 0, and `class_orbit_size[c]`
  /// the number of classes of the full network that listed class c stands
  /// for (empty: 1 each). A network with a map lists one representative
  /// class per class orbit: the queue total a station in orbit s shows
  /// every class is sum_c (|O_c| / |s|) sum_{m in s} q_cm, where |s| is the
  /// orbit's station count. The default, no map, is the identity (every
  /// station its own orbit). Throws InvalidArgument on a size mismatch, a
  /// gap in the ids or a class orbit size below 1.
  void set_station_orbits(std::vector<std::uint32_t> orbit,
                          std::vector<long> class_orbit_size = {});
  [[nodiscard]] bool has_orbits() const { return !orbit_.empty(); }
  /// Orbit of station m; m itself without a map.
  [[nodiscard]] std::size_t station_orbit(std::size_t m) const {
    return orbit_.empty() ? m : orbit_[m];
  }
  [[nodiscard]] std::size_t num_orbits() const {
    return orbit_.empty() ? num_stations() : orbits_;
  }
  /// Weight |O_c| / |s| of class c's queue at station m in its orbit's
  /// total, computed by division when the map is set: exactly 1 without
  /// a map, and whenever a class orbit is as large as the station orbit
  /// (class 0's reduction).
  [[nodiscard]] double orbit_weight(std::size_t c, std::size_t m) const {
    return orbit_.empty() ? 1.0 : weight_[c * orbits_ + orbit_[m]];
  }

  /// Throws InvalidArgument when the network carries an orbit map: every
  /// solver but the AMVA kernels calls this, since it would read a
  /// reduced network as a full one.
  void require_no_orbits(const char* solver) const;

  /// Throws InvalidArgument unless populations are non-negative, at least
  /// one class has customers, and every class with customers has positive
  /// total demand.
  void validate() const;

 private:
  std::vector<Station> stations_;
  std::vector<std::uint32_t> orbit_;  // empty: the identity
  std::size_t orbits_ = 0;
  std::vector<double> weight_;  // classes x orbits; empty without a map
  std::vector<long> population_;
  util::Matrix visits_;   // classes x stations
  util::Matrix service_;  // classes x stations
};

}  // namespace latol::qn
