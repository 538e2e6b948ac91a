#include "qn/workspace.hpp"

#include "obs/span.hpp"

namespace latol::qn {

void SolverWorkspace::bind(const ClosedNetwork& net) {
  obs::Span span("qn.workspace.bind", "qn");
  span.arg("stations", static_cast<double>(net.num_stations()));
  span.arg("classes", static_cast<double>(net.num_classes()));
  classes_ = net.num_classes();
  stations_ = net.num_stations();
  const std::size_t C = classes_;
  const std::size_t M = stations_;

  first.assign(C + 1, 0);
  std::size_t slots = 0;
  for (std::size_t c = 0; c < C; ++c) {
    first[c] = slots;
    for (std::size_t m = 0; m < M; ++m) {
      if (net.visit_ratio(c, m) > 0.0) ++slots;
    }
  }
  first[C] = slots;

  station.resize(slots);
  visit.resize(slots);
  service.resize(slots);
  demand.resize(slots);
  seidmann_fixed.resize(slots);
  seidmann_rate.resize(slots);
  queueing.resize(slots);
  slot_class.resize(slots);
  orbit.resize(slots);
  weight.resize(slots);
  station_orbit.resize(M);
  for (std::size_t m = 0; m < M; ++m) {
    station_orbit[m] = static_cast<std::uint32_t>(net.station_orbit(m));
  }
  population.resize(C);
  population_f.resize(C);
  total_demand.resize(C);

  std::size_t slot = 0;
  for (std::size_t c = 0; c < C; ++c) {
    population[c] = net.population(c);
    population_f[c] = static_cast<double>(population[c]);
    total_demand[c] = net.total_demand(c);
    for (std::size_t m = 0; m < M; ++m) {
      const double v = net.visit_ratio(c, m);
      if (v <= 0.0) continue;
      const double s = net.service_time(c, m);
      station[slot] = static_cast<std::uint32_t>(m);
      slot_class[slot] = static_cast<std::uint32_t>(c);
      orbit[slot] = station_orbit[m];
      weight[slot] = net.orbit_weight(c, m);
      visit[slot] = v;
      service[slot] = s;
      demand[slot] = v * s;
      const Station& st = net.station(m);
      if (st.kind == StationKind::kQueueing) {
        // The exact sub-expressions of the dense kernels' Seidmann form
        // `s*(servers-1)/servers + (s/servers)*(1+seen)` — precomputing
        // them does not change a single rounding (DESIGN.md §10).
        const auto servers = static_cast<double>(st.servers);
        seidmann_fixed[slot] = s * (servers - 1.0) / servers;
        seidmann_rate[slot] = s / servers;
        queueing[slot] = 1;
      } else {
        seidmann_fixed[slot] = 0.0;
        seidmann_rate[slot] = s;
        queueing[slot] = 0;
      }
      ++slot;
    }
  }

  // Station-major transpose. Walking slots in class order and appending to
  // each station's cursor leaves every station's list in increasing class
  // order, as the §10 determinism invariant requires.
  by_station_first.assign(M + 1, 0);
  for (std::size_t i = 0; i < slots; ++i) ++by_station_first[station[i] + 1];
  for (std::size_t m = 0; m < M; ++m) {
    by_station_first[m + 1] += by_station_first[m];
  }
  by_station_slot.resize(slots);
  {
    std::vector<std::size_t> cursor(by_station_first.begin(),
                                    by_station_first.end() - 1);
    for (std::size_t i = 0; i < slots; ++i) {
      by_station_slot[cursor[station[i]]++] = i;
    }
  }

  queue.assign(slots, 0.0);
  waiting.assign(slots, 0.0);
  station_total.assign(net.num_orbits(), 0.0);
  throughput.assign(C, 0.0);
}

MvaSolution SolverWorkspace::scatter_solution() const {
  const std::size_t C = classes_;
  const std::size_t M = stations_;
  MvaSolution sol;
  sol.throughput.assign(C, 0.0);
  sol.waiting = util::Matrix(C, M, 0.0);
  sol.queue_length = util::Matrix(C, M, 0.0);
  std::vector<double> orbit_util(station_total.size(), 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    sol.throughput[c] = throughput[c];
    for (std::size_t i = first[c]; i < first[c + 1]; ++i) {
      const std::size_t m = station[i];
      sol.waiting(c, m) = waiting[i];
      sol.queue_length(c, m) = queue[i];
      // Classes accumulate in increasing c for every orbit (the outer
      // loop order), replaying the dense utilization sum exactly.
      orbit_util[orbit[i]] += throughput[c] * demand[i] * weight[i];
    }
  }
  sol.utilization.resize(M);
  for (std::size_t m = 0; m < M; ++m) {
    sol.utilization[m] = orbit_util[station_orbit[m]];
  }
  return sol;
}

}  // namespace latol::qn
