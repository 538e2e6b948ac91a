#include "qn/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace latol::qn {

namespace {

/// All ways to place `n` indistinguishable customers on `m` stations,
/// restricted to stations the class actually visits (mask).
void enumerate_compositions(long n, std::size_t m,
                            const std::vector<bool>& allowed,
                            std::vector<long>& current,
                            std::vector<std::vector<long>>& out) {
  if (current.size() == m - 1) {
    if (n > 0 && !allowed[m - 1]) return;
    current.push_back(n);
    out.push_back(current);
    current.pop_back();
    return;
  }
  const std::size_t idx = current.size();
  const long max_here = allowed[idx] ? n : 0;
  for (long k = 0; k <= max_here; ++k) {
    current.push_back(k);
    enumerate_compositions(n - k, m, allowed, current, out);
    current.pop_back();
  }
}

struct StateSpace {
  // Per class: list of compositions (each a vector of per-station counts).
  std::vector<std::vector<std::vector<long>>> class_states;
  std::vector<std::size_t> stride;  // mixed-radix strides over classes
  std::size_t total = 1;
};

StateSpace build_state_space(const ClosedNetwork& net) {
  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();
  StateSpace ss;
  ss.class_states.resize(C);
  ss.stride.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    std::vector<bool> allowed(M, false);
    for (std::size_t m = 0; m < M; ++m)
      allowed[m] = net.visit_ratio(c, m) > 0.0;
    // Visit ratios may be unset when the caller works purely from routing;
    // treat "all zero" as "all allowed".
    if (std::none_of(allowed.begin(), allowed.end(), [](bool b) { return b; }))
      allowed.assign(M, true);
    std::vector<long> current;
    enumerate_compositions(net.population(c), M, allowed, current,
                           ss.class_states[c]);
    ss.stride[c] = ss.total;
    ss.total *= ss.class_states[c].size();
  }
  return ss;
}

}  // namespace

std::size_t ctmc_state_count(const ClosedNetwork& net) {
  return build_state_space(net).total;
}

MvaSolution solve_ctmc(const ClosedNetwork& net,
                       const RoutedClosedNetwork& routed,
                       const CtmcOptions& options) {
  net.validate();
  net.require_no_orbits("the CTMC solver");
  LATOL_REQUIRE(net.is_product_form(),
                "CTMC solver requires class-independent service at shared "
                "FCFS stations (the count process is otherwise not Markov)");
  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();

  const StateSpace ss = build_state_space(net);
  const std::size_t S = ss.total;
  LATOL_REQUIRE(S <= options.max_states,
                "CTMC has " << S << " states, above max_states="
                            << options.max_states);

  // Decode a global state index into per-station per-class counts.
  std::vector<long> counts(C * M);
  auto decode = [&](std::size_t idx) {
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t n_c = ss.class_states[c].size();
      const std::size_t which = (idx / ss.stride[c]) % n_c;
      const auto& comp = ss.class_states[c][which];
      for (std::size_t m = 0; m < M; ++m) counts[c * M + m] = comp[m];
    }
  };
  // Re-encode after moving one class-c customer from station m to m2.
  auto encode_move = [&](std::size_t idx, std::size_t c, std::size_t m,
                         std::size_t m2) -> std::size_t {
    const std::size_t n_c = ss.class_states[c].size();
    const std::size_t which = (idx / ss.stride[c]) % n_c;
    std::vector<long> comp = ss.class_states[c][which];
    comp[m] -= 1;
    comp[m2] += 1;
    const auto& list = ss.class_states[c];
    const auto it = std::lower_bound(list.begin(), list.end(), comp);
    LATOL_REQUIRE(it != list.end() && *it == comp,
                  "moved composition not found (class " << c << ")");
    const auto new_which = static_cast<std::size_t>(it - list.begin());
    return idx + (new_which - which) * ss.stride[c];
  };

  // Effective service time at a queueing station (class-independent by the
  // product-form check; take it from any class that can visit).
  std::vector<double> station_service(M, 0.0);
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t c = 0; c < C; ++c) {
      if (net.service_time(c, m) > 0.0) {
        station_service[m] = net.service_time(c, m);
        break;
      }
    }
  }

  // Build the dense transposed generator and solve pi Q = 0, sum pi = 1.
  util::Matrix qt(S, S, 0.0);
  std::vector<double> out_rate(S, 0.0);

  // Also accumulate, per state, the rate of class-c departures from its
  // reference station (for throughput) while we have the rates in hand.
  util::Matrix ref_departure_rate(S, C, 0.0);

  for (std::size_t s = 0; s < S; ++s) {
    decode(s);
    for (std::size_t m = 0; m < M; ++m) {
      long n_m = 0;
      for (std::size_t c = 0; c < C; ++c) n_m += counts[c * M + m];
      if (n_m == 0) continue;
      const bool queueing = net.station(m).kind == StationKind::kQueueing;
      for (std::size_t c = 0; c < C; ++c) {
        const long n_cm = counts[c * M + m];
        if (n_cm == 0) continue;
        double rate;
        if (queueing) {
          LATOL_REQUIRE(station_service[m] > 0.0,
                        "zero service at busy station " << m);
          // min(n, servers) busy servers; the departing class is chosen in
          // proportion to its queue share (random-order service, identical
          // stationary counts to FCFS for class-independent exponential).
          const long busy =
              std::min<long>(n_m, net.station(m).servers);
          rate = (static_cast<double>(busy) / station_service[m]) *
                 static_cast<double>(n_cm) / static_cast<double>(n_m);
        } else {
          const double s_cm = net.service_time(c, m);
          LATOL_REQUIRE(s_cm > 0.0, "zero delay at busy station " << m);
          rate = static_cast<double>(n_cm) / s_cm;
        }
        if (m == routed.reference_station[c])
          ref_departure_rate(s, c) += rate;
        for (std::size_t m2 = 0; m2 < M; ++m2) {
          const double p = routed.routing[c](m, m2);
          if (p <= 0.0 || m2 == m) continue;
          const std::size_t s2 = encode_move(s, c, m, m2);
          qt(s2, s) += rate * p;
          out_rate[s] += rate * p;
        }
      }
    }
  }
  for (std::size_t s = 0; s < S; ++s) qt(s, s) -= out_rate[s];
  // Replace the last balance equation with the normalization sum pi = 1.
  std::vector<double> rhs(S, 0.0);
  for (std::size_t s = 0; s < S; ++s) qt(S - 1, s) = 1.0;
  rhs[S - 1] = 1.0;
  const std::vector<double> pi = util::solve_linear_system(std::move(qt), rhs);

  // Derive the MVA-style measures.
  const util::Matrix visits = visits_from_routing(net, routed);
  MvaSolution sol;
  sol.throughput.assign(C, 0.0);
  sol.waiting = util::Matrix(C, M, 0.0);
  sol.queue_length = util::Matrix(C, M, 0.0);
  sol.utilization.assign(M, 0.0);

  for (std::size_t s = 0; s < S; ++s) {
    LATOL_REQUIRE(pi[s] > -1e-8, "negative stationary probability " << pi[s]);
    decode(s);
    for (std::size_t c = 0; c < C; ++c) {
      sol.throughput[c] += pi[s] * ref_departure_rate(s, c);
      for (std::size_t m = 0; m < M; ++m)
        sol.queue_length(c, m) +=
            pi[s] * static_cast<double>(counts[c * M + m]);
    }
    for (std::size_t m = 0; m < M; ++m) {
      if (net.station(m).kind != StationKind::kQueueing) continue;
      long n_m = 0;
      for (std::size_t c = 0; c < C; ++c) n_m += counts[c * M + m];
      if (n_m > 0) sol.utilization[m] += pi[s];
    }
  }
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t m = 0; m < M; ++m) {
      const double flow = sol.throughput[c] * visits(c, m);
      if (flow > 0.0) sol.waiting(c, m) = sol.queue_length(c, m) / flow;
    }
  }
  return sol;
}

}  // namespace latol::qn
