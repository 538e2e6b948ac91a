#include "qn/mva_linearizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "qn/solver_error.hpp"
#include "qn/workspace.hpp"
#include "util/error.hpp"

namespace latol::qn {

namespace {

/// Outcome of one Core fixed point; the iterate itself lives in the
/// workspace (waiting/queue/throughput) and in `fractions`.
struct CoreOutcome {
  bool converged = true;
  long iterations = 0;
};

/// One Schweitzer-style fixed point at population `pop`, using the
/// correction terms d(slot, j): the queue of class i at station m seen by
/// an arriving class-j customer is (pop_i - delta_ij)(F_{i,m} + D_{i,m,j}).
/// Starts from the fractions in `seed` (one per workspace slot), writes the
/// queue-length fractions F(c, m) = n_{c,m} / N_c into `fractions` and
/// leaves the final waiting/queue/throughput iterate in `ws`.
CoreOutcome solve_core(SolverWorkspace& ws, const std::vector<long>& pop,
                       const std::vector<double>& pop_f,
                       const std::vector<double>& corrections,
                       const std::vector<double>& seed,
                       const LinearizerOptions& options, double* fractions) {
  const std::size_t C = ws.num_classes();
  const std::size_t S = ws.num_slots();

  // Seed only the populated classes: a class the reduced population
  // empties keeps zero fractions.
  std::fill_n(fractions, S, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    if (pop[c] == 0) continue;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      fractions[i] = seed[i];
    }
  }

  CoreOutcome out;
  bool converged = false;
  long iter = 0;
  double best_delta = std::numeric_limits<double>::infinity();
  for (; iter < options.max_core_iterations; ++iter) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      throw SolverError(SolverErrorCode::kDeadlineExceeded,
                        "linearizer cancelled at core iteration " +
                            std::to_string(iter));
    }
    double delta = 0.0;
    for (std::size_t j = 0; j < C; ++j) {
      if (pop[j] == 0) continue;
      const double nj = pop_f[j];
      const std::size_t begin = ws.first[j];
      const std::size_t end = ws.first[j + 1];
      double cycle = 0.0;
      for (std::size_t k = begin; k < end; ++k) {
        double w = ws.service[k];
        if (ws.queueing[k] != 0) {
          const std::size_t m = ws.station[k];
          // Queue seen on arrival: the station's visiting classes in
          // increasing class order (the station-major view preserves the
          // dense kernel's summation order).
          double seen = 0.0;
          for (std::size_t t = ws.by_station_first[m];
               t < ws.by_station_first[m + 1]; ++t) {
            const std::size_t slot = ws.by_station_slot[t];
            const std::size_t i = ws.slot_class[slot];
            const double ni = pop_f[i] - (i == j ? 1.0 : 0.0);
            if (ni <= 0.0) continue;
            seen += ni * (fractions[slot] + corrections[slot * C + j]);
          }
          // Seidmann approximation (exact for servers == 1).
          w = ws.seidmann_fixed[k] +
              ws.seidmann_rate[k] * (1.0 + std::max(0.0, seen));
        }
        ws.waiting[k] = w;
        cycle += ws.visit[k] * w;
      }
      // With a validated network a vanishing or non-finite cycle time can
      // only be numerical breakdown (see solve_amva).
      if (!(cycle > 0.0) || !std::isfinite(cycle)) {
        throw SolverError(SolverErrorCode::kNumerical,
                          "class " + std::to_string(j) + " cycle time " +
                              std::to_string(cycle) + " at core iteration " +
                              std::to_string(iter));
      }
      const double lambda = nj / cycle;
      ws.throughput[j] = lambda;
      for (std::size_t k = begin; k < end; ++k) {
        const double q = lambda * ws.visit[k] * ws.waiting[k];
        if (!std::isfinite(q)) {
          throw SolverError(SolverErrorCode::kNumerical,
                            "queue length of class " + std::to_string(j) +
                                " at station " +
                                std::to_string(ws.station[k]) +
                                " became non-finite at core iteration " +
                                std::to_string(iter));
        }
        ws.queue[k] = q;
        const double f = q / nj;
        delta = std::max(delta, std::fabs(f - fractions[k]));
        fractions[k] = f;
      }
    }
    if (options.trace != nullptr) options.trace->record(delta);
    if (!std::isfinite(delta)) {
      throw SolverError(SolverErrorCode::kNumerical,
                        "core iterate delta became non-finite at iteration " +
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
                        "core delta " + std::to_string(delta) + " exceeds " +
                            std::to_string(options.divergence_factor) +
                            " x best delta " + std::to_string(best_delta) +
                            " at iteration " + std::to_string(iter));
    }
    best_delta = std::min(best_delta, delta);
  }
  out.converged = converged;
  out.iterations = iter;
  return out;
}

}  // namespace

MvaSolution solve_linearizer(const ClosedNetwork& net,
                             const LinearizerOptions& options,
                             SolverWorkspace& ws, const SolveHints& hints) {
  net.validate();
  net.require_no_orbits("the Linearizer");
  LATOL_REQUIRE(options.outer_iterations >= 1,
                "outer_iterations " << options.outer_iterations);
  LATOL_REQUIRE(options.divergence_factor > 0.0,
                "divergence_factor " << options.divergence_factor);
  LATOL_REQUIRE(options.divergence_window >= 0,
                "divergence_window " << options.divergence_window);

  ws.bind(net);
  const std::size_t C = ws.num_classes();
  const std::size_t S = ws.num_slots();

  // Linearizer-specific scratch, reused across solves like the workspace
  // itself. corrections holds d(slot, j) = D_{i,m,j} for slot = (i, m);
  // reduced_fractions holds one fraction vector per reduced population.
  thread_local std::vector<long> pop;
  thread_local std::vector<double> pop_f;
  thread_local std::vector<double> corrections;
  thread_local std::vector<double> full_fractions;
  thread_local std::vector<double> reduced_fractions;
  thread_local std::vector<double> seed;

  pop.assign(ws.population.begin(), ws.population.end());
  pop_f.assign(ws.population_f.begin(), ws.population_f.end());
  // Start with the Schweitzer assumption D = 0 (removing a customer
  // leaves fractions unchanged).
  corrections.assign(S * C, 0.0);
  full_fractions.resize(S);
  reduced_fractions.resize(C * S);

  // Every Core starts from the same fractions: F = n_{c,m} / N_c of the
  // hint's queue lengths when usable (fractions change little when one
  // customer is removed, the very assumption Linearizer corrects),
  // otherwise proportional to demand.
  const bool hinted = ws.seed_queue(hints.prior);
  seed.assign(S, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    const double total = ws.total_demand[c];
    if (ws.population[c] == 0 || total <= 0.0) continue;
    for (std::size_t i = ws.first[c]; i < ws.first[c + 1]; ++i) {
      seed[i] = hinted ? ws.queue[i] / ws.population_f[c]
                       : ws.demand[i] / total;
    }
  }

  CoreOutcome at_full = solve_core(ws, pop, pop_f, corrections, seed, options,
                                   full_fractions.data());
  long total_iterations = at_full.iterations;
  for (int outer = 0; outer < options.outer_iterations; ++outer) {
    // Solve each reduced population N - 1_j with the current corrections.
    for (std::size_t j = 0; j < C; ++j) {
      const long saved = pop[j];
      const double saved_f = pop_f[j];
      if (pop[j] > 0) {
        pop[j] -= 1;
        pop_f[j] = static_cast<double>(pop[j]);
      }
      const CoreOutcome reduced = solve_core(ws, pop, pop_f, corrections,
                                             seed, options,
                                             &reduced_fractions[j * S]);
      total_iterations += reduced.iterations;
      pop[j] = saved;
      pop_f[j] = saved_f;
    }
    // Update the correction terms from the observed fraction shifts.
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t j = 0; j < C; ++j) {
        corrections[s * C + j] = reduced_fractions[j * S + s] -
                                 full_fractions[s];
      }
    }
    at_full = solve_core(ws, pop, pop_f, corrections, seed, options,
                         full_fractions.data());
    total_iterations += at_full.iterations;
  }

  MvaSolution sol = ws.scatter_solution();
  sol.converged = at_full.converged;
  sol.iterations = total_iterations;
  return sol;
}

MvaSolution solve_linearizer(const ClosedNetwork& net,
                             const LinearizerOptions& options,
                             const SolveHints& hints) {
  thread_local SolverWorkspace workspace;
  return solve_linearizer(net, options, workspace, hints);
}

}  // namespace latol::qn
