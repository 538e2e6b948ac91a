#include "core/mms_model.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/hierarchical.hpp"
#include "qn/mva_linearizer.hpp"
#include "qn/open/mixed.hpp"
#include "util/error.hpp"

namespace latol::core {

MmsModel::MmsModel(const MmsConfig& config) : config_(config) {
  config_.validate();
  topology_ = topo::make_topology(config_.topology, config_.k);
  if (topology_->num_nodes() >= 2) {
    traffic_ = std::make_unique<topo::RemoteAccessDistribution>(
        *topology_, config_.traffic);
  }
}

const topo::RemoteAccessDistribution& MmsModel::traffic() const {
  LATOL_REQUIRE(traffic_ != nullptr,
                "traffic distribution undefined for a 1-node machine");
  return *traffic_;
}

double MmsModel::average_distance() const {
  return traffic_ ? traffic_->average_distance() : 0.0;
}

PeStations MmsModel::stations(int node) {
  const auto base = static_cast<std::size_t>(node) * 4;
  return PeStations{base, base + 1, base + 2, base + 3};
}

namespace {

/// The 4P stations shared by the closed network and its open companion.
std::vector<qn::Station> make_station_list(const MmsConfig& config, int P) {
  std::vector<qn::Station> station_list;
  station_list.reserve(static_cast<std::size_t>(P) * 4);
  const qn::StationKind switch_kind = config.pipelined_switches
                                          ? qn::StationKind::kDelay
                                          : qn::StationKind::kQueueing;
  for (int n = 0; n < P; ++n) {
    // Names are appended, not spelled `"P" + std::to_string(n)`: GCC 12
    // at -O3 raises a false -Wrestrict on that operator+ form.
    const std::string id = std::to_string(n);
    const auto named = [&id](const char* prefix) {
      std::string name = prefix;
      name += id;
      return name;
    };
    station_list.push_back({named("P"), qn::StationKind::kQueueing, 1});
    station_list.push_back(
        {named("M"), qn::StationKind::kQueueing, config.memory_ports});
    station_list.push_back({named("I"), switch_kind, 1});
    station_list.push_back({named("O"), switch_kind, 1});
  }
  return station_list;
}

}  // namespace

std::vector<double> MmsModel::class_visits(int i) const {
  const int P = topology_->num_nodes();
  LATOL_REQUIRE(i >= 0 && i < P, "class index " << i);
  std::vector<double> v(static_cast<std::size_t>(P) * 4, 0.0);
  const double p = config_.p_remote;

  const PeStations home = stations(i);
  v[home.processor] = 1.0;
  v[home.memory] = 1.0 - p;
  if (p <= 0.0) {
    v[home.memory] = 1.0;
    return v;
  }

  // Remote accesses: requests leave via the home outbound switch...
  if (config_.count_source_outbound) v[home.outbound] += p;

  for (int dst = 0; dst < P; ++dst) {
    if (dst == i) continue;
    const double q = traffic().probability(i, dst);
    if (q <= 0.0) continue;
    const PeStations there = stations(dst);
    v[there.memory] += p * q;
    // ...responses leave via the destination's outbound switch...
    v[there.outbound] += p * q;
    // ...and both legs traverse one inbound switch per hop.
    for (const auto& [node, w] : topology_->inbound_visits(i, dst)) {
      v[stations(node).inbound] += p * q * w;
    }
    for (const auto& [node, w] : topology_->inbound_visits(dst, i)) {
      v[stations(node).inbound] += p * q * w;
    }
  }
  return v;
}

qn::ClosedNetwork MmsModel::build_network() const {
  const int P = topology_->num_nodes();
  qn::ClosedNetwork net(make_station_list(config_, P),
                        static_cast<std::size_t>(P));

  for (int i = 0; i < P; ++i) {
    const auto c = static_cast<std::size_t>(i);
    net.set_population(c, config_.threads_per_processor);

    // Uniform per-type service times keep the BCMP class-independence
    // condition satisfied by construction.
    for (int n = 0; n < P; ++n) {
      const PeStations st = stations(n);
      net.set_service_time(c, st.processor,
                           config_.runlength + config_.context_switch);
      net.set_service_time(c, st.memory, config_.memory_latency);
      net.set_service_time(c, st.inbound, config_.switch_delay);
      net.set_service_time(c, st.outbound, config_.switch_delay);
    }

    const std::vector<double> v = class_visits(i);
    for (std::size_t m = 0; m < v.size(); ++m) {
      if (v[m] > 0.0) net.set_visit_ratio(c, m, v[m]);
    }
  }
  return net;
}

qn::OpenNetwork MmsModel::build_open_network() const {
  const int P = topology_->num_nodes();
  LATOL_REQUIRE(P >= 2,
                "open arrivals are remote requests and need at least 2 "
                "processing elements");
  qn::OpenNetwork open(make_station_list(config_, P),
                       static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) {
    const auto c = static_cast<std::size_t>(i);
    open.set_arrival_rate(c, config_.open_arrival_rate);
    for (int n = 0; n < P; ++n) {
      const PeStations st = stations(n);
      open.set_service_time(c, st.memory, config_.memory_latency);
      open.set_service_time(c, st.inbound, config_.switch_delay);
      open.set_service_time(c, st.outbound, config_.switch_delay);
    }
    // One-way request: the source outbound switch (always traversed — the
    // simulator sends every open request through it, unconditionally)...
    const PeStations home = stations(i);
    open.set_visit_ratio(c, home.outbound, 1.0);
    for (int dst = 0; dst < P; ++dst) {
      if (dst == i) continue;
      const double q = traffic().probability(i, dst);
      if (q <= 0.0) continue;
      // ...then the destination memory, via one inbound switch per hop.
      const PeStations there = stations(dst);
      open.set_visit_ratio(c, there.memory,
                           open.visit_ratio(c, there.memory) + q);
      for (const auto& [node, w] : topology_->inbound_visits(i, dst)) {
        const std::size_t in = stations(node).inbound;
        open.set_visit_ratio(c, in, open.visit_ratio(c, in) + q * w);
      }
    }
  }
  return open;
}

MmsPerformance extract_performance(const MmsModel& model,
                                   const qn::ClosedNetwork& net,
                                   const qn::MvaSolution& sol, int node) {
  const MmsConfig& cfg = model.config();
  const int P = model.topology().num_nodes();
  LATOL_REQUIRE(node >= 0 && node < P, "node " << node);
  const auto cls = static_cast<std::size_t>(node);
  MmsPerformance perf;
  perf.average_distance = P >= 2 && cfg.p_remote > 0.0
                              ? model.traffic().average_distance_from(node)
                              : 0.0;
  perf.solver_iterations = sol.iterations;
  perf.converged = sol.converged;

  const double lambda = sol.throughput[cls];
  perf.access_rate = lambda;
  perf.processor_utilization = lambda * cfg.runlength;
  perf.message_rate = lambda * cfg.p_remote;

  double switch_residence = 0.0;  // per-cycle time on switches (Eq. 1 numerator)
  double memory_residence = 0.0;  // per-cycle time at memories (= L_obs)
  double max_switch_util = 0.0;
  for (int n = 0; n < P; ++n) {
    const PeStations st = MmsModel::stations(n);
    memory_residence +=
        net.visit_ratio(cls, st.memory) * sol.waiting(cls, st.memory);
    switch_residence +=
        net.visit_ratio(cls, st.inbound) * sol.waiting(cls, st.inbound) +
        net.visit_ratio(cls, st.outbound) * sol.waiting(cls, st.outbound);
    max_switch_util = std::max({max_switch_util, sol.utilization[st.inbound],
                                sol.utilization[st.outbound]});
  }
  perf.memory_latency = memory_residence;  // total memory visit ratio is 1
  perf.network_latency =
      cfg.p_remote > 0.0 ? switch_residence / (2.0 * cfg.p_remote) : 0.0;
  // Per-port utilization so the value stays in [0, 1] for multiported
  // memories (sol.utilization is the mean number of busy servers).
  perf.memory_utilization = sol.utilization[MmsModel::stations(node).memory] /
                            static_cast<double>(cfg.memory_ports);
  perf.switch_utilization = max_switch_util;
  return perf;
}

namespace {

/// Solve `net` through the fallback chain; throws qn::SolverError when
/// even the last link produced nothing (with the default chain that means
/// the network itself is broken — bounds always answer a valid one).
qn::SolveReport robust_solve_or_throw(const qn::ClosedNetwork& net,
                                      const qn::RobustOptions& options) {
  qn::SolveReport report = qn::robust_solve(net, options);
  if (!report.ok()) {
    throw qn::SolverError(*report.error,
                          "MMS solve failed: " + report.summary());
  }
  return report;
}

/// Copy the report-level provenance into the derived measures.
void stamp_provenance(MmsPerformance& perf, const qn::SolveReport& report) {
  perf.solver = report.solver;
  perf.degraded = report.degraded;
  perf.residual = report.residual;
  perf.littles_law_error = report.invariants.littles_law_error;
  perf.flow_balance_error = report.invariants.flow_balance_error;
  // The accepted solve is the last attempt (earlier ones failed); its
  // trace is empty unless RobustOptions::record_traces was on.
  if (!report.attempts.empty() && report.attempts.back().success)
    perf.residual_history = report.attempts.back().trace.residuals();
}

/// One MMS solve: the closed-class report, plus the open-class extension
/// when the config has background arrivals (DESIGN.md §12).
struct SolvedMms {
  qn::SolveReport report;
  std::vector<double> open_response;  ///< per node; empty when closed-only
  double open_util_max = 0.0;
};

SolvedMms solve_mms(const MmsModel& model, const qn::ClosedNetwork& net,
                    const qn::RobustOptions& options) {
  if (model.config().open_arrival_rate <= 0.0) {
    return SolvedMms{robust_solve_or_throw(net, options), {}, 0.0};
  }
  const qn::OpenNetwork open = model.build_open_network();
  qn::MixedReport mix = qn::solve_mixed(net, open, options);
  if (!mix.closed.ok()) {
    throw qn::SolverError(*mix.closed.error,
                          "MMS mixed solve failed: " + mix.closed.summary());
  }
  SolvedMms out{std::move(mix.closed), std::move(mix.open.response_time),
                0.0};
  // extract_performance reads solution.utilization as physical busy
  // servers; the inflated solve reports stretched values, so substitute
  // the combined closed+open utilization from the mixed report.
  out.report.solution.utilization = std::move(mix.total_utilization);
  for (const double rho : mix.open_load)
    out.open_util_max = std::max(out.open_util_max, rho);
  return out;
}

/// Copy the open-class measures for `node` into the derived measures.
void stamp_open(MmsPerformance& perf, const SolvedMms& solved, int node) {
  if (solved.open_response.empty()) return;
  perf.open_latency = solved.open_response[static_cast<std::size_t>(node)];
  perf.open_utilization = solved.open_util_max;
}

}  // namespace

std::vector<MmsPerformance> analyze_per_node(const MmsConfig& config,
                                             const qn::AmvaOptions& options) {
  const MmsModel model(config);
  const qn::ClosedNetwork net = model.build_network();
  qn::RobustOptions ropts;
  ropts.amva = options;
  ropts.record_traces = options.record_trace;
  const SolvedMms solved = solve_mms(model, net, ropts);
  std::vector<MmsPerformance> out;
  const int P = model.topology().num_nodes();
  out.reserve(static_cast<std::size_t>(P));
  for (int n = 0; n < P; ++n) {
    out.push_back(extract_performance(model, net, solved.report.solution, n));
    stamp_provenance(out.back(), solved.report);
    stamp_open(out.back(), solved, n);
  }
  return out;
}

DetailedAnalysis analyze_detailed(const MmsConfig& config,
                                  const qn::AmvaOptions& options) {
  const MmsModel model(config);
  qn::ClosedNetwork net = model.build_network();
  qn::RobustOptions ropts;
  ropts.amva = options;
  ropts.record_traces = options.record_trace;
  SolvedMms solved = solve_mms(model, net, ropts);
  MmsPerformance perf = extract_performance(model, net, solved.report.solution);
  stamp_provenance(perf, solved.report);
  stamp_open(perf, solved, 0);
  return DetailedAnalysis{perf, std::move(net),
                          std::move(solved.report.solution)};
}

RobustAnalysis analyze_robust(const MmsConfig& config,
                              const qn::RobustOptions& options) {
  const MmsModel model(config);
  const qn::ClosedNetwork net = model.build_network();
  SolvedMms solved = solve_mms(model, net, options);
  MmsPerformance perf = extract_performance(model, net, solved.report.solution);
  stamp_provenance(perf, solved.report);
  stamp_open(perf, solved, 0);
  return RobustAnalysis{std::move(perf), std::move(solved.report)};
}

MmsPerformance analyze(const MmsConfig& config, const qn::AmvaOptions& options) {
  return analyze_detailed(config, options).perf;
}

const char* solve_method_name(SolveMethod method) {
  switch (method) {
    case SolveMethod::kAmva:
      return "amva";
    case SolveMethod::kLinearizer:
      return "linearizer";
    case SolveMethod::kHierarchical:
      return "fesc";
  }
  return "?";
}

MmsPerformance analyze(const MmsConfig& config,
                       const AnalysisOptions& options) {
  if (options.method == SolveMethod::kHierarchical) {
    if (options.solution_out != nullptr) *options.solution_out = {};
    HierarchicalOptions hopts;
    hopts.tolerance = std::max(options.amva.tolerance, 1e-14);
    return analyze_hierarchical(config, hopts);
  }
  const MmsModel model(config);
  const qn::ClosedNetwork net = model.build_network();
  qn::RobustOptions ropts;
  if (options.method == SolveMethod::kLinearizer) {
    ropts.chain = {qn::SolverKind::kLinearizer, qn::SolverKind::kAmva,
                   qn::SolverKind::kExactMva, qn::SolverKind::kBounds};
    ropts.linearizer.tolerance = options.amva.tolerance;
  }
  ropts.amva = options.amva;
  ropts.record_traces = options.amva.record_trace;
  ropts.hints = options.hints;
  SolvedMms solved = solve_mms(model, net, ropts);
  MmsPerformance perf = extract_performance(model, net, solved.report.solution);
  stamp_provenance(perf, solved.report);
  stamp_open(perf, solved, 0);
  if (options.solution_out != nullptr)
    *options.solution_out = std::move(solved.report.solution);
  return perf;
}

}  // namespace latol::core
