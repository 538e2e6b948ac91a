// Approximate mean value analysis (Bard–Schweitzer fixed point).
//
// This is the algorithm of the paper's Figure 3. For each class i the
// arrival theorem is approximated by estimating the queue seen by a newly
// arriving class-i customer from the equilibrium queue lengths at full
// population N:
//
//   n_m(N - 1_i) ~= ((N_i - 1) / N_i) * n_{i,m}(N) + sum_{j != i} n_{j,m}(N)
//   w_{i,m}(N)    = s_{i,m} * (1 + n_m(N - 1_i))          (FCFS queueing)
//                 = s_{i,m}                                (delay)
//   lambda_i(N)   = N_i / sum_m v_{i,m} w_{i,m}(N)
//   n_{i,m}(N)    = lambda_i(N) * v_{i,m} * w_{i,m}(N)
//
// iterated to a fixed point. Cost per iteration is O(classes x stations);
// the fixed point is typically reached in tens of iterations, which is why
// the paper can sweep hundred-processor systems.
#pragma once

#include "obs/trace.hpp"
#include "qn/hints.hpp"
#include "qn/network.hpp"
#include "qn/solution.hpp"
#include "util/cancel.hpp"

namespace latol::qn {

class SolverWorkspace;

/// Options for the AMVA fixed-point iteration.
struct AmvaOptions {
  /// Convergence threshold on the max absolute change of any per-class
  /// station queue length between successive iterations.
  double tolerance = 1e-10;
  /// Iteration budget; exceeding it marks the solution unconverged.
  long max_iterations = 200000;
  /// Under-relaxation factor in (0, 1]: 1 = plain fixed point. Values
  /// below 1 damp the (rare) oscillating cases.
  double damping = 1.0;
  /// Divergence guard: once at least `divergence_window` iterations have
  /// run, an iteration whose delta exceeds `divergence_factor` x the best
  /// (smallest) delta seen so far aborts with SolverError(kDiverged) — a
  /// contracting fixed point never backslides by orders of magnitude, so
  /// iterating further would only burn the budget on garbage.
  double divergence_factor = 1e6;
  long divergence_window = 32;
  /// Ask robust_solve()/core::analyze() to record per-iteration residual
  /// traces (DESIGN.md §9). Part of the solve-cache key — traced and
  /// untraced results never share a cache entry.
  bool record_trace = false;
  /// Optional convergence sink: when non-null, solve_amva records each
  /// iteration's delta into it (caller-owned; survives a solver throw, so
  /// a diverging solve leaves a partial trace behind for diagnosis).
  obs::ConvergenceTrace* trace = nullptr;
  /// Optional cooperative cancellation: when non-null, the fixed point
  /// checks the token once per iteration and aborts with
  /// SolverError(kDeadlineExceeded) once it expires. Not part of the
  /// solve-cache key (a deadline never changes the numbers, only whether
  /// they arrive); nullptr costs one predicted branch per iteration.
  const util::CancelToken* cancel = nullptr;
};

/// Solve `net` with Bard–Schweitzer AMVA. Classes with zero population get
/// zero throughput and queue lengths. Throws InvalidArgument on an invalid
/// network and SolverError on a NaN/overflowed (kNumerical) or diverging
/// (kDiverged) iterate; never throws on plain budget exhaustion (check
/// `converged` — robust_solve classifies that as kIterationBudget).
///
/// The iteration starts from `hints.prior` when it is usable (qn/hints.hpp,
/// DESIGN.md §15) and from the demand-proportional guess otherwise, so a
/// null or unusable prior gives the cold solve's bytes. A pure function of
/// (net, options, hints): identically hinted solves are byte-identical,
/// and differently hinted ones agree to within the tolerance ball.
[[nodiscard]] MvaSolution solve_amva(const ClosedNetwork& net,
                                     const AmvaOptions& options = AmvaOptions(),
                                     const SolveHints& hints = SolveHints());

/// Same solve, but running in a caller-provided SolverWorkspace (see
/// qn/workspace.hpp) instead of the per-thread default arena. Use when
/// sweeping many networks to control exactly which allocations are reused;
/// results are bit-identical to the default overload.
[[nodiscard]] MvaSolution solve_amva(const ClosedNetwork& net,
                                     const AmvaOptions& options,
                                     SolverWorkspace& ws,
                                     const SolveHints& hints = SolveHints());

}  // namespace latol::qn
