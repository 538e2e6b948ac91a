#include "qn/robust.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "qn/bounds.hpp"
#include "qn/mva_exact.hpp"
#include "util/error.hpp"

namespace latol::qn {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// True when every reported number is finite — a solver that "succeeded"
/// with NaNs in it did not succeed.
bool solution_is_finite(const MvaSolution& sol) {
  for (const double x : sol.throughput)
    if (!std::isfinite(x)) return false;
  for (const double x : sol.utilization)
    if (!std::isfinite(x)) return false;
  for (std::size_t c = 0; c < sol.queue_length.rows(); ++c) {
    for (std::size_t m = 0; m < sol.queue_length.cols(); ++m) {
      if (!std::isfinite(sol.queue_length(c, m)) ||
          !std::isfinite(sol.waiting(c, m)))
        return false;
    }
  }
  return true;
}

/// Reason exact MVA cannot be attempted on `net`, or empty if it can.
std::string exact_mva_gate(const ClosedNetwork& net, std::size_t max_states) {
  if (!net.is_product_form())
    return "network is not product form (class-dependent FCFS service)";
  for (std::size_t m = 0; m < net.num_stations(); ++m) {
    if (net.station(m).kind == StationKind::kQueueing &&
        net.station(m).servers > 1)
      return "multi-server queueing station " + net.station(m).name;
  }
  std::size_t states = 1;
  for (std::size_t c = 0; c < net.num_classes(); ++c) {
    const auto span = static_cast<std::size_t>(net.population(c)) + 1;
    if (states > max_states / span)
      return "population lattice exceeds " + std::to_string(max_states) +
             " states";
    states *= span;
  }
  return {};
}

/// Stable registry-timer name per chain link.
const char* solver_timer_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kAmva:
      return "qn.solver.amva";
    case SolverKind::kLinearizer:
      return "qn.solver.linearizer";
    case SolverKind::kExactMva:
      return "qn.solver.exact-mva";
    case SolverKind::kBounds:
      return "qn.solver.bounds";
    case SolverKind::kFesc:
      return "qn.solver.fesc";
  }
  return "qn.solver.unknown";
}

}  // namespace

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kAmva:
      return "amva";
    case SolverKind::kLinearizer:
      return "linearizer";
    case SolverKind::kExactMva:
      return "exact-mva";
    case SolverKind::kBounds:
      return "bounds";
    case SolverKind::kFesc:
      return "fesc";
  }
  return "?";
}

double fixed_point_residual(const ClosedNetwork& net, const MvaSolution& sol) {
  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Weighted queue totals per orbit (per station under the identity map,
  // where every weight is 1 and each station's sum is station_queue(m)).
  std::vector<double> orbit_total(net.num_orbits(), 0.0);
  for (std::size_t m = 0; m < M; ++m) {
    double total = 0.0;
    for (std::size_t c = 0; c < C; ++c)
      total += net.orbit_weight(c, m) * sol.queue_length(c, m);
    orbit_total[net.station_orbit(m)] += total;
  }

  double residual = 0.0;
  for (std::size_t c = 0; c < C; ++c) {
    const long pop = net.population(c);
    if (pop == 0) continue;
    const double nc = static_cast<double>(pop);
    double cycle = 0.0;
    std::vector<double> waiting(M, 0.0);
    for (std::size_t m = 0; m < M; ++m) {
      const double v = net.visit_ratio(c, m);
      if (v <= 0.0) continue;
      const double s = net.service_time(c, m);
      double w = s;
      if (net.station(m).kind == StationKind::kQueueing) {
        const double seen = orbit_total[net.station_orbit(m)] -
                            sol.queue_length(c, m) +
                            ((nc - 1.0) / nc) * sol.queue_length(c, m);
        const auto servers = static_cast<double>(net.station(m).servers);
        w = s * (servers - 1.0) / servers + (s / servers) * (1.0 + seen);
      }
      waiting[m] = w;
      cycle += v * w;
    }
    if (!(cycle > 0.0) || !std::isfinite(cycle)) return kInf;
    const double lambda = nc / cycle;
    for (std::size_t m = 0; m < M; ++m) {
      const double target = lambda * net.visit_ratio(c, m) * waiting[m];
      if (!std::isfinite(target)) return kInf;
      residual = std::max(residual, std::fabs(target - sol.queue_length(c, m)));
    }
  }
  return residual;
}

InvariantReport check_invariants(const ClosedNetwork& net,
                                 const MvaSolution& sol) {
  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();
  LATOL_REQUIRE(sol.throughput.size() == C &&
                    sol.queue_length.rows() == C &&
                    sol.queue_length.cols() == M &&
                    sol.utilization.size() == M,
                "solution shape does not match network ("
                    << sol.throughput.size() << " classes, "
                    << sol.utilization.size() << " stations vs " << C << "x"
                    << M << ")");

  InvariantReport report;
  auto join = [](double a, double b) {
    return std::isfinite(a) && std::isfinite(b) ? std::max(a, b)
           : std::isfinite(a)                   ? b
                                                : a;
  };

  // Little's law per class: N_c = X_c * R_c with R_c = sum_m v w. Station
  // level: n_{c,m} = X_c v_{c,m} w_{c,m}. Both relative to N_c.
  for (std::size_t c = 0; c < C; ++c) {
    const long pop = net.population(c);
    if (pop == 0) continue;
    const double nc = static_cast<double>(pop);
    double response = 0.0;
    double station_gap = 0.0;
    for (std::size_t m = 0; m < M; ++m) {
      const double v = net.visit_ratio(c, m);
      if (v <= 0.0) continue;
      response += v * sol.waiting(c, m);
      station_gap = join(
          station_gap, std::fabs(sol.throughput[c] * v * sol.waiting(c, m) -
                                 sol.queue_length(c, m)) /
                           nc);
    }
    report.littles_law_error =
        join(report.littles_law_error,
             std::fabs(nc - sol.throughput[c] * response) / nc);
    report.flow_balance_error = join(report.flow_balance_error, station_gap);
  }

  // Visit-ratio / flow-balance consistency: the reported utilization of
  // every station must equal the throughput-weighted demand through its
  // orbit, each class weighted as in the queue totals (through the
  // station itself under the identity map).
  std::vector<double> orbit_util(net.num_orbits(), 0.0);
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t c = 0; c < C; ++c)
      orbit_util[net.station_orbit(m)] +=
          sol.throughput[c] * net.demand(c, m) * net.orbit_weight(c, m);
  }
  for (std::size_t m = 0; m < M; ++m) {
    const double u = orbit_util[net.station_orbit(m)];
    report.flow_balance_error =
        join(report.flow_balance_error,
             std::fabs(u - sol.utilization[m]) / std::max(1.0, std::fabs(u)));
  }

  if (!(report.littles_law_error <= InvariantReport::kWarnThreshold)) {
    std::ostringstream os;
    os << "Little's law violated: max relative error "
       << report.littles_law_error << " of N = X*R across classes";
    report.warnings.push_back(os.str());
  }
  if (!(report.flow_balance_error <= InvariantReport::kWarnThreshold)) {
    std::ostringstream os;
    os << "flow balance violated: max relative error "
       << report.flow_balance_error
       << " across station queue lengths and utilizations";
    report.warnings.push_back(os.str());
  }
  return report;
}

MvaSolution bounds_solution(const ClosedNetwork& net) {
  net.validate();
  net.require_no_orbits("bounds");
  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();

  MvaSolution sol;
  sol.throughput.assign(C, 0.0);
  sol.waiting = util::Matrix(C, M, 0.0);
  sol.queue_length = util::Matrix(C, M, 0.0);
  sol.utilization.assign(M, 0.0);
  sol.iterations = 0;
  sol.converged = true;  // not iterative; degradation is flagged by the report

  // Per-class optimistic bound, then a joint scale-down so the combined
  // load does not exceed any queueing station's capacity (the multi-class
  // bottleneck correction).
  for (std::size_t c = 0; c < C; ++c) {
    if (net.population(c) == 0 || net.total_demand(c) <= 0.0) continue;
    sol.throughput[c] = asymptotic_throughput_bound(net, c);
  }
  double worst = 1.0;
  for (std::size_t m = 0; m < M; ++m) {
    if (net.station(m).kind != StationKind::kQueueing) continue;
    double load = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      if (sol.throughput[c] <= 0.0) continue;
      load += sol.throughput[c] * net.demand(c, m);
    }
    if (std::isfinite(load))
      worst = std::max(worst,
                       load / static_cast<double>(net.station(m).servers));
  }
  for (std::size_t c = 0; c < C; ++c) sol.throughput[c] /= worst;

  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t m = 0; m < M; ++m) {
      if (net.visit_ratio(c, m) <= 0.0) continue;
      sol.waiting(c, m) = net.service_time(c, m);  // zero-contention estimate
      const double q = sol.throughput[c] * net.visit_ratio(c, m) *
                       sol.waiting(c, m);
      sol.queue_length(c, m) = std::isfinite(q) ? q : 0.0;
    }
  }
  for (std::size_t m = 0; m < M; ++m) {
    double u = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      if (sol.throughput[c] <= 0.0) continue;
      u += sol.throughput[c] * net.demand(c, m);
    }
    sol.utilization[m] = std::isfinite(u) ? u : 0.0;
  }
  return sol;
}

std::string SolveReport::summary() const {
  std::ostringstream os;
  if (!ok()) {
    os << "solve failed (" << solver_error_name(*error) << ")";
  } else if (degraded) {
    os << "degraded to " << solver_kind_name(solver);
  } else {
    os << "solved by " << solver_kind_name(solver);
  }
  bool first_failure = true;
  for (const SolveAttempt& a : attempts) {
    if (a.success) continue;
    os << (first_failure ? " after " : ", ") << solver_kind_name(a.solver)
       << ": "
       << (a.error ? solver_error_name(*a.error)
                   : (a.detail.empty() ? "skipped" : a.detail.c_str()));
    first_failure = false;
  }
  if (ok()) {
    os << " (" << solution.iterations << " iterations, residual " << residual
       << ")";
  }
  return os.str();
}

SolveReport robust_solve(const ClosedNetwork& net,
                         const RobustOptions& options) {
  LATOL_REQUIRE(!options.chain.empty(), "fallback chain must not be empty");
  const auto t_start = Clock::now();
  obs::Span solve_span("qn.robust_solve", "qn");

  SolveReport report;
  try {
    net.validate();
  } catch (const InvalidArgument& e) {
    SolveAttempt a;
    a.solver = options.chain.front();
    a.error = SolverErrorCode::kInvalidNetwork;
    a.detail = e.what();
    report.attempts.push_back(std::move(a));
    report.error = SolverErrorCode::kInvalidNetwork;
    report.wall_seconds = seconds_since(t_start);
    obs::observe("qn.solve.latency_seconds", report.wall_seconds);
    return report;
  }

  obs::count("qn.robust.solves");
  // The caller's cancellation token rides on AmvaOptions (the requested
  // solver's options); every fallback link honours it too — degrading past
  // a deadline would defeat its purpose.
  const util::CancelToken* cancel = options.amva.cancel;
  bool deadline_hit = false;
  const ClosedNetwork* answered = &net;
  for (const SolverKind link : options.chain) {
    // One span per chain link, named like its timer ("qn.solver.amva",
    // ...); fallback hops show up in the trace as sibling attempt spans.
    obs::Span attempt_span(solver_timer_name(link), "qn");
    SolveAttempt attempt;
    attempt.solver = link;
    if (options.record_traces)
      attempt.trace = obs::ConvergenceTrace(options.trace_capacity);
    const auto t_attempt = Clock::now();
    try {
      // Do not even start a link once the deadline has fired; the throw is
      // caught below and recorded like any other attempt failure.
      if (cancel != nullptr && cancel->expired()) {
        throw SolverError(SolverErrorCode::kDeadlineExceeded,
                          std::string("deadline expired before ") +
                              solver_kind_name(link) + " attempt");
      }
      // Only AMVA reads an orbit map: every other link solves the full
      // network behind a reduced `net`, built on first use.
      if (link != SolverKind::kAmva && options.expand && !report.expanded)
        report.expanded = options.expand();
      const ClosedNetwork& target =
          link == SolverKind::kAmva || !report.expanded ? net
                                                        : *report.expanded;
      MvaSolution sol;
      bool skipped = false;
      switch (link) {
        case SolverKind::kAmva: {
          AmvaOptions amva = options.amva;
          amva.trace = options.record_traces ? &attempt.trace : nullptr;
          sol = options.hints != nullptr ? solve_amva(target, amva,
                                                     *options.hints)
                                         : solve_amva(target, amva);
          break;
        }
        case SolverKind::kLinearizer: {
          LinearizerOptions lin = options.linearizer;
          lin.trace = options.record_traces ? &attempt.trace : nullptr;
          if (lin.cancel == nullptr) lin.cancel = cancel;
          sol = options.hints != nullptr ? solve_linearizer(target, lin,
                                                            *options.hints)
                                         : solve_linearizer(target, lin);
          break;
        }
        case SolverKind::kExactMva: {
          const std::string gate =
              exact_mva_gate(target, options.exact_max_states);
          if (!gate.empty()) {
            attempt.detail = "skipped: " + gate;
            skipped = true;
            break;
          }
          sol = solve_mva_exact(target, options.exact_max_states,
                                /*workers=*/0, cancel);
          break;
        }
        case SolverKind::kBounds:
          sol = bounds_solution(target);
          break;
        case SolverKind::kFesc:
          // The hierarchical solver has its own entry point
          // (core::analyze with SolveMethod::kHierarchical) and its own
          // fallback story; as a chain link it is just skipped.
          attempt.detail = "skipped: fesc runs outside the robust chain";
          skipped = true;
          break;
      }
      attempt.wall_seconds = seconds_since(t_attempt);
      if (!skipped) {
        obs::time_add(solver_timer_name(link), attempt.wall_seconds);
        attempt.iterations = sol.iterations;
        attempt_span.arg("iterations", static_cast<double>(sol.iterations));
        if (!sol.converged) {
          throw SolverError(SolverErrorCode::kIterationBudget,
                            std::string(solver_kind_name(link)) +
                                " exhausted its iteration budget (" +
                                std::to_string(sol.iterations) +
                                " iterations)");
        }
        if (!solution_is_finite(sol)) {
          throw SolverError(SolverErrorCode::kNumerical,
                            std::string(solver_kind_name(link)) +
                                " produced non-finite results");
        }
        attempt.success = true;
        answered = &target;
        report.solution = std::move(sol);
        report.solver = link;
        report.degraded = link != options.chain.front();
        report.attempts.push_back(std::move(attempt));
        break;
      }
    } catch (const SolverError& e) {
      attempt.wall_seconds = seconds_since(t_attempt);
      obs::time_add(solver_timer_name(link), attempt.wall_seconds);
      attempt.error = e.code();
      attempt.detail = e.what();
      // A deadline is terminal: the caller stopped waiting, so degrading
      // to a cheaper solver would only produce a late answer (and bounds
      // would dress it up as "degraded" instead of "deadline-exceeded").
      deadline_hit = e.code() == SolverErrorCode::kDeadlineExceeded;
    } catch (const InvalidArgument& e) {
      // A solver rejecting this (already validated) network means the
      // *solver* does not apply to it, e.g. exact MVA on non-product-form.
      attempt.wall_seconds = seconds_since(t_attempt);
      obs::time_add(solver_timer_name(link), attempt.wall_seconds);
      attempt.error = SolverErrorCode::kInvalidNetwork;
      attempt.detail = e.what();
    }
    report.attempts.push_back(std::move(attempt));
    if (deadline_hit) break;
    obs::instant("qn.robust.fallback", "qn");
  }

  const bool solved =
      !report.attempts.empty() && report.attempts.back().success;
  if (!solved) {
    // Prefer the requested solver's failure code; fall back to any link's
    // code; an all-skipped chain means the request could not apply at all.
    // A deadline trumps everything — that is what the caller observed.
    report.error = SolverErrorCode::kInvalidNetwork;
    for (const SolveAttempt& a : report.attempts) {
      if (a.error) {
        report.error = *a.error;
        break;
      }
    }
    if (deadline_hit) report.error = SolverErrorCode::kDeadlineExceeded;
    obs::count("qn.robust.failed");
    if (deadline_hit) obs::count("qn.robust.deadline");
  } else {
    report.residual = fixed_point_residual(*answered, report.solution);
    report.invariants = check_invariants(*answered, report.solution);
    // How many classes the answering kernel iterated (1 for class 0's
    // reduction, one per node orbit under a point group, P for a full MMS
    // network), and the order of the group that reduced it.
    solve_span.arg("classes", static_cast<double>(answered->num_classes()));
    solve_span.arg("group",
                   static_cast<double>(answered == &net ? options.group : 1));
    if (answered == &net && options.expand) obs::count("qn.robust.reduced");
    if (report.degraded) obs::count("qn.robust.degraded");
    if (!report.invariants.warnings.empty())
      obs::count("qn.invariant.warnings", report.invariants.warnings.size());
  }
  report.wall_seconds = seconds_since(t_start);
  solve_span.arg("attempts", static_cast<double>(report.attempts.size()));
  solve_span.detail(solved ? solver_kind_name(report.solver) : "failed");
  obs::observe("qn.solve.latency_seconds", report.wall_seconds);
  return report;
}

}  // namespace latol::qn
