#include "qn/mva_approx.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "qn/solver_error.hpp"
#include "qn/workspace.hpp"
#include "util/error.hpp"

namespace latol::qn {

MvaSolution solve_amva(const ClosedNetwork& net, const AmvaOptions& options,
                       SolverWorkspace& ws, const SolveHints& hints) {
  net.validate();
  LATOL_REQUIRE(options.tolerance > 0.0, "tolerance " << options.tolerance);
  LATOL_REQUIRE(options.damping > 0.0 && options.damping <= 1.0,
                "damping " << options.damping);
  LATOL_REQUIRE(options.divergence_factor > 0.0,
                "divergence_factor " << options.divergence_factor);
  LATOL_REQUIRE(options.divergence_window >= 0,
                "divergence_window " << options.divergence_window);

  ws.bind(net);
  const std::size_t C = ws.num_classes();

  // Initial guess: the hint's queue lengths when usable, else each class's
  // population spread over its stations in proportion to service demand
  // (any positive spread converges; this one starts near the answer for
  // balanced networks).
  if (!ws.seed_queue(hints.prior)) {
    for (std::size_t c = 0; c < C; ++c) {
      const double total = ws.total_demand[c];
      if (ws.population[c] == 0 || total <= 0.0) continue;
      for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
        ws.queue[i] = ws.population_f[c] * ws.demand[i] / total;
      }
    }
  }

  // Per-orbit total queue lengths, maintained across iterations.
  // Classes accumulate in increasing c per station, matching the dense
  // station_queue() sum (every weight is 1 under the identity map).
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      ws.station_total[ws.orbit[i]] += ws.weight[i] * ws.queue[i];
    }
  }

  bool converged = false;
  long iter = 0;
  double best_delta = std::numeric_limits<double>::infinity();
  for (; iter < options.max_iterations; ++iter) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      throw SolverError(SolverErrorCode::kDeadlineExceeded,
                        "amva cancelled at iteration " + std::to_string(iter));
    }
    double delta = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const long pop = ws.population[c];
      if (pop == 0) continue;
      const double nc = ws.population_f[c];
      const double self_seen = (nc - 1.0) / nc;
      const std::size_t begin = ws.first[c];
      const std::size_t end = ws.first[c + 1];

      // Residence times under the Schweitzer arrival approximation, with
      // the Seidmann multi-server terms folded into per-slot constants.
      double cycle = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        double w = ws.service[i];
        if (ws.queueing[i] != 0) {
          const double q = ws.queue[i];
          const double seen = ws.station_total[ws.orbit[i]] - q +
                              self_seen * q;
          w = ws.seidmann_fixed[i] + ws.seidmann_rate[i] * (1.0 + seen);
        }
        ws.waiting[i] = w;
        cycle += ws.visit[i] * w;
      }
      // A validated network has positive total demand for every populated
      // class, so a vanishing or non-finite cycle time here can only come
      // from numerical breakdown (overflow to inf, inf - inf, ...).
      if (!(cycle > 0.0) || !std::isfinite(cycle)) {
        throw SolverError(SolverErrorCode::kNumerical,
                          "class " + std::to_string(c) + " cycle time " +
                              std::to_string(cycle) + " at iteration " +
                              std::to_string(iter));
      }
      const double lambda = nc / cycle;
      ws.throughput[c] = lambda;

      // Queue-length update (with optional under-relaxation), keeping the
      // running per-station totals in sync so later classes in this sweep
      // see the newest estimates (Gauss–Seidel style, faster than Jacobi).
      for (std::size_t i = begin; i < end; ++i) {
        const double target = lambda * ws.visit[i] * ws.waiting[i];
        const double updated =
            ws.queue[i] + options.damping * (target - ws.queue[i]);
        if (!std::isfinite(updated)) {
          throw SolverError(SolverErrorCode::kNumerical,
                            "queue length of class " + std::to_string(c) +
                                " at station " +
                                std::to_string(ws.station[i]) +
                                " became non-finite at iteration " +
                                std::to_string(iter));
        }
        delta = std::max(delta, std::fabs(updated - ws.queue[i]));
        ws.station_total[ws.orbit[i]] +=
            ws.weight[i] * (updated - ws.queue[i]);
        ws.queue[i] = updated;
      }
    }
    if (options.trace != nullptr) options.trace->record(delta);
    if (!std::isfinite(delta)) {
      throw SolverError(SolverErrorCode::kNumerical,
                        "iterate delta became non-finite at iteration " +
                            std::to_string(iter));
    }
    if (delta < options.tolerance) {
      converged = true;
      ++iter;
      break;
    }
    if (iter >= options.divergence_window &&
        delta > options.divergence_factor * best_delta) {
      throw SolverError(SolverErrorCode::kDiverged,
                        "delta " + std::to_string(delta) + " exceeds " +
                            std::to_string(options.divergence_factor) +
                            " x best delta " + std::to_string(best_delta) +
                            " at iteration " + std::to_string(iter));
    }
    best_delta = std::min(best_delta, delta);
  }

  MvaSolution sol = ws.scatter_solution();
  sol.iterations = iter;
  sol.converged = converged;
  return sol;
}

MvaSolution solve_amva(const ClosedNetwork& net, const AmvaOptions& options,
                       const SolveHints& hints) {
  // One arena per thread, reused across solves — a parameter sweep pays
  // for allocation on its first point only (DESIGN.md §10).
  thread_local SolverWorkspace workspace;
  return solve_amva(net, options, workspace, hints);
}

}  // namespace latol::qn
