// Flat solver arena for the MVA family (DESIGN.md §10).
//
// The AMVA/Linearizer hot loops used to re-walk the ClosedNetwork accessor
// surface (out-of-line calls, bounds checks, dense class x station matrices
// full of structural zeros) on every iteration. SolverWorkspace flattens
// one network into contiguous class-major arrays once per solve — and,
// because instances are reused across solves (the solvers keep one per
// thread), across the points of a parameter sweep without reallocating.
//
// Layout: per class c, the stations it actually visits (visit ratio > 0)
// occupy the contiguous slot range [first[c], first[c+1]), in increasing
// station order. Iterating slots in order therefore replays the exact
// station order of the original dense loops, which is what keeps the
// flat kernels byte-identical to the nested-vector implementation they
// replaced (the §10 invariants).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qn/network.hpp"
#include "qn/solution.hpp"

namespace latol::qn {

/// Contiguous class-major scratch arena for the MVA-family solvers.
///
/// `bind()` compacts a ClosedNetwork into the flat views below; the
/// solver kernels then run branch-light passes over dense arrays. All
/// vectors keep their capacity across `bind()` calls, so a workspace
/// reused across the points of a sweep allocates only when the network
/// grows. A workspace is single-threaded scratch: share one per thread
/// (the solvers default to a thread_local instance), never across
/// threads.
class SolverWorkspace {
 public:
  SolverWorkspace() = default;

  /// (Re)bind the workspace to `net`: fills the network views and
  /// resizes the iterate arrays (zero-initialized). The network must
  /// already be validated; `bind` does not re-validate.
  void bind(const ClosedNetwork& net);

  /// Classes of the bound network.
  [[nodiscard]] std::size_t num_classes() const { return classes_; }
  /// Stations of the bound network.
  [[nodiscard]] std::size_t num_stations() const { return stations_; }
  /// Total visited (class, station) slots.
  [[nodiscard]] std::size_t num_slots() const { return station.size(); }

  /// Materialize the dense MvaSolution from the per-slot iterate state
  /// (`waiting`, `queue`, per-class `throughput`): scatters the compact
  /// arrays back into class x station matrices and accumulates weighted
  /// utilization per orbit in class order — per station, exactly as the
  /// dense solvers did, under the identity map — giving every station
  /// its orbit's. `iterations`/`converged` are left at their defaults
  /// for the caller to fill.
  [[nodiscard]] MvaSolution scatter_solution() const;

  /// Seed `queue` from `prior`'s queue lengths when the prior is usable as
  /// a warm start (qn/hints.hpp): it has the bound network's shape and a
  /// finite, non-negative queue length at every slot of every populated
  /// class. Otherwise (nullptr included) returns false and leaves `queue`
  /// untouched — hints are an optimization, never an input contract.
  [[nodiscard]] bool seed_queue(const MvaSolution* prior);

  // --- network views (read-only after bind) ------------------------------

  /// Slot range of class c: slots [first[c], first[c+1]) in increasing
  /// station order. Size classes + 1.
  std::vector<std::size_t> first;
  /// Station index of each slot.
  std::vector<std::uint32_t> station;
  /// Visit ratio v_{c,m} of each slot (> 0 by construction).
  std::vector<double> visit;
  /// Service time s_{c,m} of each slot.
  std::vector<double> service;
  /// Precomputed demand v_{c,m} * s_{c,m} of each slot (the exact same
  /// product ClosedNetwork::demand computes).
  std::vector<double> demand;
  /// Seidmann multi-server terms of each slot, precomputed with the same
  /// expressions the dense kernels used: `seidmann_fixed` is
  /// s*(servers-1)/servers (the fixed pipeline delay), `seidmann_rate`
  /// is s/servers (the sped-up server). For single-server stations they
  /// reduce to 0 and s.
  std::vector<double> seidmann_fixed;
  /// s/servers of each slot; see `seidmann_fixed`.
  std::vector<double> seidmann_rate;
  /// 1 when the slot's station queues (StationKind::kQueueing), 0 for
  /// pure-delay stations.
  std::vector<std::uint8_t> queueing;
  /// Class index of each slot (the inverse of `first`).
  std::vector<std::uint32_t> slot_class;
  /// Orbit of each slot's station (ClosedNetwork::station_orbit): the
  /// index of the `station_total` entry the AMVA kernels read and keep
  /// for the slot. Equal to `station` under the identity map.
  std::vector<std::uint32_t> orbit;
  /// Orbit of each station; size stations.
  std::vector<std::uint32_t> station_orbit;
  /// Weight of each slot's queue in its orbit's total
  /// (ClosedNetwork::orbit_weight, |O_c| / |s|): exactly 1.0 under the
  /// identity map and on class 0's reduction, where multiplying by it
  /// changes no bit.
  std::vector<double> weight;
  /// Station-major transpose: station m's visiting slots are
  /// by_station_slot[by_station_first[m] .. by_station_first[m+1]), in
  /// increasing class order — the order the dense kernels summed classes
  /// at a station, which is what the Linearizer's arrival-queue loop must
  /// replay. Size stations + 1 / num_slots().
  std::vector<std::size_t> by_station_first;
  /// Slot list of the station-major view; see `by_station_first`.
  std::vector<std::size_t> by_station_slot;
  /// Per-class population N_c.
  std::vector<long> population;
  /// Per-class population as double (the kernels' n_c).
  std::vector<double> population_f;
  /// Per-class total demand (ClosedNetwork::total_demand).
  std::vector<double> total_demand;

  // --- iterate state (owned by the running kernel) ------------------------

  /// Per-slot queue-length iterate n_{c,m}.
  std::vector<double> queue;
  /// Per-slot residence-time iterate w_{c,m}.
  std::vector<double> waiting;
  /// Per-orbit total queue length, one entry per orbit (per station
  /// under the identity map): the weighted sum of the listed classes'
  /// queues over the orbit, maintained incrementally by the AMVA
  /// Gauss–Seidel sweep.
  std::vector<double> station_total;
  /// Per-class throughput iterate.
  std::vector<double> throughput;

 private:
  std::size_t classes_ = 0;
  std::size_t stations_ = 0;
};

}  // namespace latol::qn
