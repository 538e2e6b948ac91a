#include "qn/mva_approx.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qn/solver_error.hpp"
#include "qn/workspace.hpp"
#include "util/error.hpp"

namespace latol::qn {

namespace {

// A prior is usable as a warm seed only when it matches the network shape
// and every visited slot holds a finite, non-negative queue length; a
// mismatched or polluted prior is silently ignored (hints are an
// optimization, never an input contract — qn/hints.hpp).
bool seed_queue_from_prior(SolverWorkspace& ws, const MvaSolution* prior) {
  if (prior == nullptr) return false;
  if (prior->queue_length.rows() != ws.num_classes() ||
      prior->queue_length.cols() != ws.num_stations()) {
    return false;
  }
  for (std::size_t c = 0; c < ws.num_classes(); ++c) {
    if (ws.population[c] == 0 || ws.total_demand[c] <= 0.0) continue;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      const double q = prior->queue_length(c, ws.station[i]);
      if (!std::isfinite(q) || q < 0.0) return false;
    }
  }
  for (std::size_t c = 0; c < ws.num_classes(); ++c) {
    if (ws.population[c] == 0 || ws.total_demand[c] <= 0.0) continue;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      ws.queue[i] = prior->queue_length(c, ws.station[i]);
    }
  }
  return true;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                   std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0;
}

}  // namespace

MvaSolution solve_amva(const ClosedNetwork& net, const AmvaOptions& options,
                       SolverWorkspace& ws) {
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

  // Initial guess: spread each class's population over its stations in
  // proportion to service demand (any positive spread converges; this one
  // starts near the answer for balanced networks).
  for (std::size_t c = 0; c < C; ++c) {
    const double total = ws.total_demand[c];
    if (ws.population[c] == 0 || total <= 0.0) continue;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      ws.queue[i] = ws.population_f[c] * ws.demand[i] / total;
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

MvaSolution solve_amva(const ClosedNetwork& net, const AmvaOptions& options) {
  // One arena per thread, reused across solves — a parameter sweep pays
  // for allocation on its first point only (DESIGN.md §10).
  thread_local SolverWorkspace workspace;
  return solve_amva(net, options, workspace);
}

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
  const std::size_t slots = ws.num_slots();

  if (!seed_queue_from_prior(ws, hints.prior)) {
    for (std::size_t c = 0; c < C; ++c) {
      const double total = ws.total_demand[c];
      if (ws.population[c] == 0 || total <= 0.0) continue;
      for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
        ws.queue[i] = ws.population_f[c] * ws.demand[i] / total;
      }
    }
  }

  // Last two iterates, for stagnation / 2-cycle detection. Reused across
  // solves for the same reason the default workspace is thread_local.
  thread_local std::vector<double> prev1;
  thread_local std::vector<double> prev2;
  prev1.clear();
  prev2.clear();

  bool converged = false;
  bool tol_met = false;
  long stagnation_used = 0;
  long iter = 0;
  double best_delta = std::numeric_limits<double>::infinity();
  for (; iter < options.max_iterations; ++iter) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      throw SolverError(SolverErrorCode::kDeadlineExceeded,
                        "amva cancelled at iteration " + std::to_string(iter));
    }
    prev2.swap(prev1);
    prev1.assign(ws.queue.begin(), ws.queue.end());

    // Unlike the plain kernel, which carries station_total across
    // iterations incrementally, the warm kernel recomputes it from the
    // queue vector at the top of every sweep: the iteration map is then a
    // pure function of the iterate, so orbits started from different
    // hints merge bitwise once they meet — what lets a positive
    // stagnation_budget drive differently-seeded solves to near-identical
    // answers (qn/hints.hpp).
    std::fill(ws.station_total.begin(), ws.station_total.end(), 0.0);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
        ws.station_total[ws.orbit[i]] += ws.weight[i] * ws.queue[i];
      }
    }

    double delta = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const long pop = ws.population[c];
      if (pop == 0) continue;
      const double nc = ws.population_f[c];
      const double self_seen = (nc - 1.0) / nc;
      const std::size_t begin = ws.first[c];
      const std::size_t end = ws.first[c + 1];

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
      if (!(cycle > 0.0) || !std::isfinite(cycle)) {
        throw SolverError(SolverErrorCode::kNumerical,
                          "class " + std::to_string(c) + " cycle time " +
                              std::to_string(cycle) + " at iteration " +
                              std::to_string(iter));
      }
      const double lambda = nc / cycle;
      ws.throughput[c] = lambda;

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
    if (delta < options.tolerance) tol_met = true;
    if (tol_met) {
      // With a positive stagnation budget, iterate past the user
      // tolerance until the floating-point map freezes. A bitwise fixed
      // point and a period-2 flip-flop are the only ways a deterministic
      // contracting map can end; canonicalize the flip-flop to its
      // bitwise-lexicographically-smaller point so both phases of the
      // cycle report the same answer.
      if (delta == 0.0) {
        converged = true;
        ++iter;
        break;
      }
      if (bitwise_equal(ws.queue, prev2, slots)) {
        if (std::memcmp(prev1.data(), ws.queue.data(),
                        slots * sizeof(double)) < 0) {
          std::copy(prev1.begin(), prev1.begin() + slots, ws.queue.begin());
        }
        converged = true;
        ++iter;
        break;
      }
      if (++stagnation_used > hints.stagnation_budget) {
        // Budget exhausted (immediately, for the default budget of 0):
        // stop at the tolerance-level iterate like the plain kernel.
        converged = true;
        ++iter;
        break;
      }
    } else {
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
  }
  converged = converged || tol_met;

  // Canonical output pass: the Gauss–Seidel sweep above leaves waiting
  // times computed against mixed old/new station totals, which would leak
  // the orbit's history into the output. Re-derive waiting and throughput
  // from the final queue vector alone (Jacobi-style, one pass, no queue
  // update) so every reported field is a pure function of Q*.
  std::fill(ws.station_total.begin(), ws.station_total.end(), 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      ws.station_total[ws.orbit[i]] += ws.weight[i] * ws.queue[i];
    }
  }
  for (std::size_t c = 0; c < C; ++c) {
    if (ws.population[c] == 0) continue;
    const double nc = ws.population_f[c];
    const double self_seen = (nc - 1.0) / nc;
    double cycle = 0.0;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      double w = ws.service[i];
      if (ws.queueing[i] != 0) {
        const double q = ws.queue[i];
        const double seen =
            ws.station_total[ws.orbit[i]] - q + self_seen * q;
        w = ws.seidmann_fixed[i] + ws.seidmann_rate[i] * (1.0 + seen);
      }
      ws.waiting[i] = w;
      cycle += ws.visit[i] * w;
    }
    if (!(cycle > 0.0) || !std::isfinite(cycle)) {
      throw SolverError(SolverErrorCode::kNumerical,
                        "class " + std::to_string(c) + " cycle time " +
                            std::to_string(cycle) + " in output pass");
    }
    ws.throughput[c] = nc / cycle;
  }

  MvaSolution sol = ws.scatter_solution();
  sol.iterations = iter;
  sol.converged = converged;
  return sol;
}

MvaSolution solve_amva(const ClosedNetwork& net, const AmvaOptions& options,
                       const SolveHints& hints) {
  thread_local SolverWorkspace workspace;
  return solve_amva(net, options, workspace, hints);
}

}  // namespace latol::qn
