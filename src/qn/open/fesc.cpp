#include "qn/open/fesc.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "qn/solver_error.hpp"
#include "util/error.hpp"

namespace latol::qn {

FescTable build_fesc(const ClosedNetwork& sub, long max_population) {
  sub.require_no_orbits("FESC");
  LATOL_REQUIRE(sub.num_classes() == 1,
                "build_fesc needs a single-class subnetwork, got "
                    << sub.num_classes() << " classes");
  LATOL_REQUIRE(max_population >= 1,
                "build_fesc needs max_population >= 1, got "
                    << max_population);
  LATOL_REQUIRE(sub.total_demand(0) > 0.0,
                "build_fesc subnetwork has zero total demand");

  const std::size_t stations = sub.num_stations();
  const auto n_max = static_cast<std::size_t>(max_population);

  FescTable table;
  table.rate.assign(n_max, 0.0);
  table.waiting = util::Matrix(n_max, stations, 0.0);
  table.queue = util::Matrix(n_max, stations, 0.0);

  // Exact single-class MVA over populations 1..N, multi-server stations
  // via the Seidmann transform (fixed delay s(m-1)/m plus a server at
  // s/m), matching the closed solvers so the reduction is exact w.r.t.
  // the same station model.
  std::vector<double> seidmann_fixed(stations, 0.0);
  std::vector<double> seidmann_rate(stations, 0.0);
  for (std::size_t m = 0; m < stations; ++m) {
    const double s = sub.service_time(0, m);
    const auto servers = static_cast<double>(sub.station(m).servers);
    if (sub.station(m).kind == StationKind::kQueueing) {
      seidmann_fixed[m] = s * (servers - 1.0) / servers;
      seidmann_rate[m] = s / servers;
    }
  }

  std::vector<double> queue_prev(stations, 0.0);
  for (std::size_t n = 1; n <= n_max; ++n) {
    double cycle = 0.0;
    for (std::size_t m = 0; m < stations; ++m) {
      const double w =
          sub.station(m).kind == StationKind::kQueueing
              ? seidmann_fixed[m] +
                    seidmann_rate[m] * (1.0 + queue_prev[m])
              : sub.service_time(0, m);
      table.waiting(n - 1, m) = w;
      cycle += sub.visit_ratio(0, m) * w;
    }
    const double x = static_cast<double>(n) / cycle;
    table.rate[n - 1] = x;
    for (std::size_t m = 0; m < stations; ++m) {
      const double q = x * sub.visit_ratio(0, m) * table.waiting(n - 1, m);
      table.queue(n - 1, m) = q;
      queue_prev[m] = q;
    }
  }
  return table;
}

TwoLevelSolution solve_two_level(const ClosedNetwork& net,
                                 const std::vector<bool>& in_subnetwork) {
  LATOL_REQUIRE(net.num_classes() == 1,
                "solve_two_level needs a single-class network, got "
                    << net.num_classes() << " classes");
  LATOL_REQUIRE(in_subnetwork.size() == net.num_stations(),
                "in_subnetwork has " << in_subnetwork.size()
                                     << " flags for " << net.num_stations()
                                     << " stations");
  net.validate();
  net.require_no_orbits("FESC");

  const std::size_t stations = net.num_stations();
  std::vector<std::size_t> sub_idx;
  std::vector<std::size_t> comp_idx;
  for (std::size_t m = 0; m < stations; ++m) {
    (in_subnetwork[m] ? sub_idx : comp_idx).push_back(m);
  }
  LATOL_REQUIRE(!sub_idx.empty(),
                "solve_two_level subnetwork is empty; nothing to collapse");
  LATOL_REQUIRE(!comp_idx.empty(),
                "solve_two_level complement is empty; use a plain solver "
                "for the whole network");

  const long population = net.population(0);

  // Shorted network: the subnetwork alone, original visit ratios, solved
  // for every population it could hold.
  std::vector<Station> sub_stations;
  sub_stations.reserve(sub_idx.size());
  for (const std::size_t m : sub_idx) sub_stations.push_back(net.station(m));
  ClosedNetwork sub(std::move(sub_stations), 1);
  sub.set_population(0, population);
  for (std::size_t i = 0; i < sub_idx.size(); ++i) {
    sub.set_visit_ratio(0, i, net.visit_ratio(0, sub_idx[i]));
    sub.set_service_time(0, i, net.service_time(0, sub_idx[i]));
  }

  TwoLevelSolution out;
  out.fesc = build_fesc(sub, population);
  for (long n = 1; n <= population; ++n) {
    if (!(out.fesc.rate[static_cast<std::size_t>(n) - 1] > 0.0)) {
      throw SolverError(SolverErrorCode::kNumerical,
                        "FESC throughput is not positive at population " +
                            std::to_string(n));
    }
  }

  // High-level model: complement stations as themselves (Seidmann for
  // multi-server) plus one load-dependent station with rate(j) from the
  // table, visit ratio 1. Exact load-dependent MVA with the FESC marginal
  // population probabilities p(j | n).
  const std::size_t comp = comp_idx.size();
  std::vector<double> comp_fixed(comp, 0.0);
  std::vector<double> comp_rate(comp, 0.0);
  std::vector<double> comp_visits(comp, 0.0);
  std::vector<char> comp_queueing(comp, 0);
  for (std::size_t i = 0; i < comp; ++i) {
    const std::size_t m = comp_idx[i];
    const double s = net.service_time(0, m);
    comp_visits[i] = net.visit_ratio(0, m);
    if (net.station(m).kind == StationKind::kQueueing) {
      const auto servers = static_cast<double>(net.station(m).servers);
      comp_fixed[i] = s * (servers - 1.0) / servers;
      comp_rate[i] = s / servers;
      comp_queueing[i] = 1;
    } else {
      comp_fixed[i] = s;
    }
  }

  const auto n_max = static_cast<std::size_t>(population);
  std::vector<double> comp_queue(comp, 0.0);
  std::vector<double> comp_wait(comp, 0.0);
  std::vector<double> p_prev(n_max + 1, 0.0);  // p(j | n-1)
  std::vector<double> p_cur(n_max + 1, 0.0);   // p(j | n)
  p_prev[0] = 1.0;
  double x = 0.0;
  double w_fesc = 0.0;
  for (std::size_t n = 1; n <= n_max; ++n) {
    w_fesc = 0.0;
    for (std::size_t j = 1; j <= n; ++j) {
      w_fesc += static_cast<double>(j) / out.fesc.rate[j - 1] * p_prev[j - 1];
    }
    double cycle = w_fesc;  // FESC visit ratio is 1
    for (std::size_t i = 0; i < comp; ++i) {
      comp_wait[i] =
          comp_queueing[i]
              ? comp_fixed[i] + comp_rate[i] * (1.0 + comp_queue[i])
              : comp_fixed[i];
      cycle += comp_visits[i] * comp_wait[i];
    }
    x = static_cast<double>(n) / cycle;
    for (std::size_t i = 0; i < comp; ++i) {
      comp_queue[i] = x * comp_visits[i] * comp_wait[i];
    }
    double tail = 0.0;
    for (std::size_t j = n; j >= 1; --j) {
      p_cur[j] = x / out.fesc.rate[j - 1] * p_prev[j - 1];
      tail += p_cur[j];
    }
    // Round-off can push the tail a hair past 1; clamp the empty-subnet
    // probability at zero rather than going negative.
    p_cur[0] = tail < 1.0 ? 1.0 - tail : 0.0;
    std::swap(p_prev, p_cur);
    std::fill(p_cur.begin(), p_cur.end(), 0.0);
  }

  out.throughput = x;
  out.marginal.assign(p_prev.begin(), p_prev.end());
  out.waiting.assign(stations, 0.0);
  out.queue.assign(stations, 0.0);
  for (std::size_t i = 0; i < comp; ++i) {
    out.waiting[comp_idx[i]] = comp_wait[i];
    out.queue[comp_idx[i]] = comp_queue[i];
  }
  // Subnetwork detail: condition on the FESC population. Given j customers
  // inside, the subnetwork behaves as its own closed network with j
  // customers (the Norton conditional-distribution property), so station
  // queues are the table's rows weighted by the marginal.
  for (std::size_t i = 0; i < sub_idx.size(); ++i) {
    const std::size_t m = sub_idx[i];
    double q = 0.0;
    for (std::size_t j = 1; j <= n_max; ++j) {
      q += out.marginal[j] * out.fesc.queue(j - 1, i);
    }
    out.queue[m] = q;
    const double flow = x * net.visit_ratio(0, m);
    out.waiting[m] = flow > 0.0 ? q / flow : 0.0;
  }
  return out;
}

}  // namespace latol::qn
