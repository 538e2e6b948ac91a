#include "core/mms_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
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

/// Class `c` of `net`: population n_t, visit ratios `v`, and the uniform
/// per-type service times at every PE's stations (they keep the BCMP
/// class-independence condition satisfied by construction).
void fill_class(qn::ClosedNetwork& net, std::size_t c, const MmsConfig& config,
                const std::vector<double>& v) {
  net.set_population(c, config.threads_per_processor);
  for (std::size_t n = 0; n < net.num_stations() / 4; ++n) {
    const PeStations st = MmsModel::stations(static_cast<int>(n));
    net.set_service_time(c, st.processor,
                         config.runlength + config.context_switch);
    net.set_service_time(c, st.memory, config.memory_latency);
    net.set_service_time(c, st.inbound, config.switch_delay);
    net.set_service_time(c, st.outbound, config.switch_delay);
  }
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (v[m] > 0.0) net.set_visit_ratio(c, m, v[m]);
  }
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

  topo::InboundVisits route;  // one buffer for every destination's walk
  for (int dst = 0; dst < P; ++dst) {
    if (dst == i) continue;
    const double q = traffic().probability(i, dst);
    if (q <= 0.0) continue;
    const PeStations there = stations(dst);
    v[there.memory] += p * q;
    // ...responses leave via the destination's outbound switch...
    v[there.outbound] += p * q;
    // ...and both legs traverse one inbound switch per hop.
    route.clear();
    topology_->inbound_visits(i, dst, route);
    topology_->inbound_visits(dst, i, route);
    for (const auto& [node, w] : route) v[stations(node).inbound] += p * q * w;
  }
  return v;
}

qn::ClosedNetwork MmsModel::build_network() const {
  const int P = topology_->num_nodes();
  qn::ClosedNetwork net(make_station_list(config_, P),
                        static_cast<std::size_t>(P));

  for (int i = 0; i < P; ++i) {
    fill_class(net, static_cast<std::size_t>(i), config_, class_visits(i));
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
  topo::InboundVisits route;  // one buffer for every route's walk
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
      route.clear();
      topology_->inbound_visits(i, dst, route);
      for (const auto& [node, w] : route) {
        const std::size_t in = stations(node).inbound;
        open.set_visit_ratio(c, in, open.visit_ratio(c, in) + q * w);
      }
    }
  }
  return open;
}

namespace {

/// extract_performance on any network over the stations of PEs 0..n-1
/// whose class `node` holds that node's threads: the full network, class
/// 0's reduction, or node 0's component. `d_avg` is the node's.
MmsPerformance node_measures(const MmsConfig& cfg, double d_avg,
                             const qn::ClosedNetwork& net,
                             const qn::MvaSolution& sol, int node) {
  const auto cls = static_cast<std::size_t>(node);
  MmsPerformance perf;
  perf.average_distance = d_avg;
  perf.solver_iterations = sol.iterations;
  perf.converged = sol.converged;

  const double lambda = sol.throughput[cls];
  perf.access_rate = lambda;
  perf.processor_utilization = lambda * cfg.runlength;
  perf.message_rate = lambda * cfg.p_remote;

  double switch_residence = 0.0;  // per-cycle time on switches (Eq. 1 numerator)
  double memory_residence = 0.0;  // per-cycle time at memories (= L_obs)
  double max_switch_util = 0.0;
  for (int n = 0; n < static_cast<int>(net.num_stations() / 4); ++n) {
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

/// How the measures-only entry points solve a config (DESIGN.md §2.3).
enum class Reduction {
  kNone,          ///< the full P-class network
  kComponent,     ///< p_remote = 0: node 0's processor and memory alone
  kTranslations,  ///< class 0's row, 4 station orbits
  kPointGroup,    ///< one class per orbit of point_group_orbits()
};

/// With p_remote = 0 and no open arrivals each class visits only its own
/// processor and memory, so the machine is P identical, independent
/// 2-station networks, whatever the topology. On a torus, ring or
/// hypercube without a hotspot, node translations carry every class's
/// row onto class 0's, so every station of one PE type holds the same
/// total: the sum of class 0's queues over that type. A mesh, or a torus
/// with a hotspot, keeps the reflections and the axis swap about its
/// centre or the hotspot, which point_group_orbits() verifies row by
/// row. Every reduction needs an AMVA-first chain, the only kernel that
/// reads an orbit map.
Reduction reduction_for(const MmsConfig& config,
                        const qn::RobustOptions& options) {
  if (options.chain.empty() || options.chain.front() != qn::SolverKind::kAmva ||
      config.open_arrival_rate > 0.0) {
    return Reduction::kNone;
  }
  if (config.p_remote == 0.0) return Reduction::kComponent;
  const topo::TrafficConfig& t = config.traffic;
  const bool hotspot = t.hotspot_node >= 0 && t.hotspot_fraction > 0.0;
  if (config.topology == topo::TopologyKind::kMesh2D ||
      (hotspot && config.topology == topo::TopologyKind::kTorus2D)) {
    return Reduction::kPointGroup;
  }
  return hotspot ? Reduction::kNone : Reduction::kTranslations;
}

/// Node n's image under D4 element `e` about the point (cx2/2, cy2/2) of
/// a k x k grid (node n at x = n % k, y = n / k): bit 2 of `e` swaps the
/// axes about the point, then bits 0 and 1 mirror x and y through it.
/// `wrap` takes the image mod k, as on a torus.
int d4_image(int k, int cx2, int cy2, bool wrap, int n, int e) {
  int u = 2 * (n % k) - cx2;
  int v = 2 * (n / k) - cy2;
  if ((e & 4) != 0) std::swap(u, v);
  if ((e & 1) != 0) u = -u;
  if ((e & 2) != 0) v = -v;
  int x = (u + cx2) / 2;
  int y = (v + cy2) / 2;
  if (wrap) {
    x = (x % k + k) % k;
    y = (y % k + k) % k;
  }
  return y * k + x;
}

/// True when `image` carries every class row onto its image: class n's
/// visit ratio at PE m's station of each type equals class image[n]'s at
/// PE image[m]'s, within 1e-12 relative. A mirrored row sums its routes
/// in another order, so equality is not bitwise.
bool carries_rows(const std::vector<std::vector<double>>& rows,
                  const std::vector<std::size_t>& image) {
  for (std::size_t n = 0; n < rows.size(); ++n) {
    for (std::size_t m = 0; m < rows[n].size(); ++m) {
      const double a = rows[n][m];
      const double b = rows[image[n]][4 * image[m / 4] + m % 4];
      if (std::fabs(a - b) > 1e-12 * std::max(std::fabs(a), std::fabs(b))) {
        return false;
      }
    }
  }
  return true;
}

/// The representatives' rows of the full network, one station orbit per
/// (node orbit, PE type), each class weighted by its orbit's size. Class
/// 0's reduction is the one-orbit case.
qn::ClosedNetwork reduced_network(const MmsModel& model,
                                  const NodeOrbits& orbits) {
  const MmsConfig& config = model.config();
  qn::ClosedNetwork net(
      make_station_list(config, model.topology().num_nodes()),
      orbits.rep.size());
  for (std::size_t r = 0; r < orbits.rep.size(); ++r) {
    fill_class(net, r, config,
               model.class_visits(static_cast<int>(orbits.rep[r])));
  }
  std::vector<std::uint32_t> orbit(net.num_stations());
  for (std::size_t m = 0; m < orbit.size(); ++m) {
    orbit[m] = 4 * orbits.of[m / 4] + static_cast<std::uint32_t>(m % 4);
  }
  net.set_station_orbits(std::move(orbit), orbits.size);
  return net;
}

/// Node 0's stations with class 0 visiting its processor and memory once
/// per cycle: one component of a p_remote = 0 machine.
qn::ClosedNetwork component_network(const MmsConfig& config) {
  qn::ClosedNetwork net(make_station_list(config, 1), 1);
  const PeStations home = MmsModel::stations(0);
  std::vector<double> v(4, 0.0);
  v[home.processor] = 1.0;
  v[home.memory] = 1.0;
  fill_class(net, 0, config, v);
  return net;
}

}  // namespace

NodeOrbits point_group_orbits(const MmsModel& model) {
  const MmsConfig& config = model.config();
  const auto P = static_cast<std::size_t>(model.topology().num_nodes());
  const bool mesh = config.topology == topo::TopologyKind::kMesh2D;
  NodeOrbits orbits;
  std::vector<std::vector<std::size_t>> seen(1, std::vector<std::size_t>(P));
  std::iota(seen[0].begin(), seen[0].end(), 0);  // the identity
  if (mesh || (config.topology == topo::TopologyKind::kTorus2D && P >= 2 &&
               model.traffic().has_hotspot())) {
    std::vector<std::vector<double>> rows;
    for (std::size_t n = 0; n < P; ++n) {
      rows.push_back(model.class_visits(static_cast<int>(n)));
    }
    const int k = config.k;
    const int h = config.traffic.hotspot_node;
    const int cx2 = mesh ? k - 1 : 2 * (h % k);
    const int cy2 = mesh ? k - 1 : 2 * (h / k);
    for (int e = 1; e < 8; ++e) {
      std::vector<std::size_t> image(P);
      for (std::size_t n = 0; n < P; ++n) {
        image[n] = static_cast<std::size_t>(
            d4_image(k, cx2, cy2, !mesh, static_cast<int>(n), e));
      }
      // On a 2 x 2 torus, say, distinct elements act alike.
      if (std::find(seen.begin(), seen.end(), image) != seen.end()) continue;
      seen.push_back(image);
      if (carries_rows(rows, image)) orbits.elements.push_back(image);
    }
  }
  // Union-find over the kept elements, each set rooted at its smallest
  // node, so orbits number in order of their smallest nodes.
  std::vector<std::size_t> root(P);
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&root](std::size_t n) {
    while (root[n] != n) n = root[n] = root[root[n]];
    return n;
  };
  for (const std::vector<std::size_t>& image : orbits.elements) {
    for (std::size_t n = 0; n < P; ++n) {
      const std::size_t a = find(n);
      const std::size_t b = find(image[n]);
      root[std::max(a, b)] = std::min(a, b);
    }
  }
  orbits.of.resize(P);
  for (std::size_t n = 0; n < P; ++n) {
    const std::size_t r = find(n);
    if (r == n) {
      orbits.rep.push_back(n);
      orbits.size.push_back(0);
    }
    orbits.of[n] = r == n ? static_cast<std::uint32_t>(orbits.rep.size() - 1)
                          : orbits.of[r];
    ++orbits.size[orbits.of[n]];
  }
  orbits.group = orbits.elements.size() + 1;
  return orbits;
}

MmsPerformance extract_performance(const MmsModel& model,
                                   const qn::ClosedNetwork& net,
                                   const qn::MvaSolution& sol, int node) {
  const MmsConfig& cfg = model.config();
  const int P = model.topology().num_nodes();
  LATOL_REQUIRE(node >= 0 && node < P, "node " << node);
  return node_measures(cfg,
                       P >= 2 && cfg.p_remote > 0.0
                           ? model.traffic().average_distance_from(node)
                           : 0.0,
                       net, sol, node);
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

namespace {

/// analyze_detailed on an already-built model.
DetailedAnalysis detailed(const MmsModel& model,
                          const qn::RobustOptions& options) {
  qn::ClosedNetwork net = model.build_network();
  SolvedMms solved = solve_mms(model, net, options);
  MmsPerformance perf = extract_performance(model, net, solved.report.solution);
  stamp_provenance(perf, solved.report);
  stamp_open(perf, solved, 0);
  return DetailedAnalysis{perf, std::move(net), std::move(solved.report)};
}

}  // namespace

DetailedAnalysis analyze_detailed(const MmsConfig& config,
                                  const qn::RobustOptions& options) {
  return detailed(MmsModel(config), options);
}

RobustAnalysis analyze_robust(const MmsConfig& config,
                              const qn::RobustOptions& options) {
  const Reduction reduction = reduction_for(config, options);
  std::optional<MmsModel> model;
  NodeOrbits orbits;
  if (reduction == Reduction::kTranslations) {
    model.emplace(config);
    const int P = model->topology().num_nodes();
    orbits.of.assign(static_cast<std::size_t>(P), 0);
    orbits.rep = {0};
    orbits.size = {P};
    orbits.group = static_cast<std::size_t>(P);
  } else if (reduction == Reduction::kPointGroup) {
    model.emplace(config);
    orbits = point_group_orbits(*model);
  }
  // A trivial group leaves nothing to reduce: today's full path, on the
  // model whose rows the finder already built.
  if (reduction == Reduction::kNone || (model && orbits.group == 1)) {
    DetailedAnalysis full =
        model ? detailed(*model, options) : analyze_detailed(config, options);
    return RobustAnalysis{std::move(full.perf), std::move(full.report)};
  }
  config.validate();
  const qn::ClosedNetwork net =
      model ? reduced_network(*model, orbits) : component_network(config);
  qn::RobustOptions ropts = options;
  ropts.group = orbits.group;
  ropts.expand = [&config] { return MmsModel(config).build_network(); };
  qn::SolveReport report = robust_solve_or_throw(net, ropts);
  const bool full = report.solver != qn::SolverKind::kAmva;
  MmsPerformance perf = node_measures(
      config, model ? model->traffic().average_distance_from(0) : 0.0,
      full ? *report.expanded : net, report.solution, 0);
  stamp_provenance(perf, report);
  return RobustAnalysis{std::move(perf), std::move(report)};
}

MmsPerformance analyze(const MmsConfig& config, const qn::AmvaOptions& options) {
  qn::RobustOptions ropts;
  ropts.amva = options;
  ropts.record_traces = options.record_trace;
  return analyze_robust(config, ropts).perf;
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

SolveMethod parse_solve_method(std::string_view name) {
  for (const SolveMethod m : {SolveMethod::kAmva, SolveMethod::kLinearizer,
                              SolveMethod::kHierarchical}) {
    if (name == solve_method_name(m)) return m;
  }
  throw InvalidArgument("unknown solver `" + std::string(name) +
                        "` (amva|linearizer|fesc)");
}

MmsPerformance analyze(const MmsConfig& config,
                       const AnalysisOptions& options) {
  if (options.method == SolveMethod::kHierarchical) {
    if (options.solution_out != nullptr) *options.solution_out = {};
    HierarchicalOptions hopts;
    hopts.tolerance = std::max(options.amva.tolerance, 1e-14);
    return analyze_hierarchical(config, hopts);
  }
  qn::RobustOptions ropts;
  if (options.method == SolveMethod::kLinearizer) {
    ropts.chain = {qn::SolverKind::kLinearizer, qn::SolverKind::kAmva,
                   qn::SolverKind::kExactMva, qn::SolverKind::kBounds};
    ropts.linearizer.tolerance = options.amva.tolerance;
  }
  ropts.amva = options.amva;
  ropts.record_traces = options.amva.record_trace;
  ropts.hints = options.hints;
  RobustAnalysis solved = analyze_robust(config, ropts);
  if (options.solution_out != nullptr)
    *options.solution_out = std::move(solved.report.solution);
  return solved.perf;
}

}  // namespace latol::core
