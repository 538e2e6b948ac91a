#include "core/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "qn/network.hpp"
#include "qn/open/fesc.hpp"
#include "qn/robust.hpp"
#include "util/error.hpp"

namespace latol::core {

namespace {

// Station-type totals V_m = sum_c v_{c,m}. On a vertex-transitive topology
// with a shift-invariant traffic pattern every class is a relabeling of
// class 0, so the total at any station of a given type equals the sum of
// class 0's visits over all stations of that type.
struct TypeTotals {
  double processor = 0.0;
  double memory = 0.0;
  double inbound = 0.0;
  double outbound = 0.0;
};

TypeTotals type_totals(const std::vector<double>& v0, int P) {
  TypeTotals t;
  for (int n = 0; n < P; ++n) {
    const PeStations st = MmsModel::stations(n);
    t.processor += v0[st.processor];
    t.memory += v0[st.memory];
    t.inbound += v0[st.inbound];
    t.outbound += v0[st.outbound];
  }
  return t;
}

double total_visits_at(const TypeTotals& totals, const PeStations& st,
                       std::size_t m) {
  if (m == st.processor) return totals.processor;
  if (m == st.memory) return totals.memory;
  if (m == st.inbound) return totals.inbound;
  return totals.outbound;
}

}  // namespace

MmsPerformance analyze_hierarchical(const MmsConfig& config,
                                    const HierarchicalOptions& options) {
  const MmsModel model(config);
  LATOL_REQUIRE(config.topology != topo::TopologyKind::kMesh2D,
                "hierarchical decomposition needs a vertex-transitive "
                "topology; the 2-D mesh is not — use the amva method");
  LATOL_REQUIRE(
      config.traffic.hotspot_node < 0 || config.traffic.hotspot_fraction <= 0.0,
      "hierarchical decomposition assumes node-symmetric traffic; hotspot "
      "configs need the amva method");
  LATOL_REQUIRE(config.open_arrival_rate == 0.0,
                "hierarchical decomposition is closed-only; open arrivals "
                "(open_arrival_rate=" << config.open_arrival_rate
                                      << ") need the amva method");
  LATOL_REQUIRE(options.tolerance > 0.0, "tolerance=" << options.tolerance);
  LATOL_REQUIRE(options.max_iterations >= 1,
                "max_iterations=" << options.max_iterations);
  LATOL_REQUIRE(options.damping > 0.0 && options.damping <= 1.0,
                "damping=" << options.damping);

  const int P = model.topology().num_nodes();
  const std::vector<double> v0 = model.class_visits(0);
  const TypeTotals totals = type_totals(v0, P);
  const PeStations home = MmsModel::stations(0);

  // Per-station service, kind, and servers mirror MmsModel::build_network.
  const qn::StationKind switch_kind = config.pipelined_switches
                                          ? qn::StationKind::kDelay
                                          : qn::StationKind::kQueueing;
  const auto service_of = [&](std::size_t m, const PeStations& st) {
    if (m == st.processor) return config.runlength + config.context_switch;
    if (m == st.memory) return config.memory_latency;
    return config.switch_delay;
  };

  // The reduced single-class model: station 0 is the home processor (the
  // complement), every other station class 0 visits joins the subnetwork
  // that solve_two_level collapses into the FESC.
  struct SubStation {
    std::size_t original;  // index in the 4P-station network
    double visits;         // class-0 visit ratio
    double service;        // uninflated service time
    double background;     // visits owed to the other P-1 classes
    qn::StationKind kind;
    int servers;
  };
  std::vector<SubStation> sub;
  double total_background = 0.0;
  for (std::size_t m = 0; m < v0.size(); ++m) {
    if (m == home.processor || v0[m] <= 0.0) continue;
    const auto node = static_cast<int>(m / 4);
    const PeStations st = MmsModel::stations(node);
    SubStation s;
    s.original = m;
    s.visits = v0[m];
    s.service = service_of(m, st);
    s.background = std::max(0.0, total_visits_at(totals, st, m) - v0[m]);
    s.kind = (m == st.memory) ? qn::StationKind::kQueueing
             : (m == st.processor) ? qn::StationKind::kQueueing
                                   : switch_kind;
    s.servers = (m == st.memory) ? config.memory_ports : 1;
    if (s.kind == qn::StationKind::kQueueing) {
      total_background += s.background * s.service;
    }
    sub.push_back(s);
  }
  LATOL_REQUIRE(!sub.empty(),
                "class 0 visits no station besides its processor");

  const auto build_reduced = [&](double x) {
    std::vector<qn::Station> stations;
    stations.reserve(sub.size() + 1);
    stations.push_back({"P0", qn::StationKind::kQueueing, 1});
    for (const SubStation& s : sub) {
      stations.push_back({"F", s.kind, s.servers});
      stations.back().name += std::to_string(s.original);
    }
    qn::ClosedNetwork net(std::move(stations), 1);
    net.set_population(0, config.threads_per_processor);
    net.set_visit_ratio(0, 0, 1.0);
    net.set_service_time(0, 0, config.runlength + config.context_switch);
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const SubStation& s = sub[i];
      double service = s.service;
      if (s.kind == qn::StationKind::kQueueing && s.background > 0.0) {
        // Contention from the other P-1 symmetric classes, treated as a
        // background stream at per-server utilization rho_bg: the M/M/m
        // inflation 1/(1 - rho_bg), capped short of saturation so a
        // transiently overshooting throughput iterate cannot blow up.
        const double rho_bg = std::min(
            x * s.background * s.service / static_cast<double>(s.servers),
            0.999);
        service = s.service / (1.0 - rho_bg);
      }
      net.set_visit_ratio(0, i + 1, s.visits);
      net.set_service_time(0, i + 1, service);
    }
    return net;
  };

  std::vector<bool> in_subnetwork(sub.size() + 1, true);
  in_subnetwork[0] = false;

  // Damped fixed point on the per-class throughput x. With no background
  // load the reduced model does not depend on x and one solve is exact.
  double x = 0.0;
  double residual = 0.0;
  long iterations = 0;
  bool converged = false;
  qn::TwoLevelSolution sol;
  const long budget = total_background > 0.0 ? options.max_iterations : 1;
  for (long iter = 1; iter <= budget; ++iter) {
    iterations = iter;
    sol = qn::solve_two_level(build_reduced(x), in_subnetwork);
    const double x_new = sol.throughput;
    residual = std::abs(x_new - x) / std::max(x_new, 1e-300);
    x += options.damping * (x_new - x);
    if (residual <= options.tolerance || total_background <= 0.0) {
      converged = true;
      break;
    }
  }

  // Derive the paper's measures from the converged reduced solution,
  // mirroring extract_performance on the full network.
  const double lambda = sol.throughput;
  MmsPerformance perf;
  perf.access_rate = lambda;
  perf.processor_utilization = lambda * config.runlength;
  perf.message_rate = lambda * config.p_remote;
  perf.average_distance = P >= 2 && config.p_remote > 0.0
                              ? model.traffic().average_distance_from(0)
                              : 0.0;

  double memory_residence = 0.0;
  double switch_residence = 0.0;
  double max_switch_util = 0.0;
  for (std::size_t i = 0; i < sub.size(); ++i) {
    const SubStation& s = sub[i];
    const std::size_t m = s.original;
    const auto node = static_cast<int>(m / 4);
    const PeStations st = MmsModel::stations(node);
    const double residence = s.visits * sol.waiting[i + 1];
    if (m == st.memory) {
      memory_residence += residence;
    } else if (m == st.inbound || m == st.outbound) {
      switch_residence += residence;
      // All P classes contribute lambda x visits each; by symmetry the
      // per-station total is lambda x (type total).
      max_switch_util =
          std::max(max_switch_util,
                   lambda * total_visits_at(totals, st, m) * s.service);
    }
  }
  perf.memory_latency = memory_residence;
  perf.network_latency = config.p_remote > 0.0
                             ? switch_residence / (2.0 * config.p_remote)
                             : 0.0;
  perf.memory_utilization = lambda * totals.memory * config.memory_latency /
                            static_cast<double>(config.memory_ports);
  perf.switch_utilization = max_switch_util;
  perf.solver_iterations = iterations;
  perf.converged = converged;
  perf.solver = qn::SolverKind::kFesc;
  perf.degraded = false;
  perf.residual = residual;
  return perf;
}

}  // namespace latol::core
