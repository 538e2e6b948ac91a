// Linearizer approximate MVA (Chandy & Neuse, 1982).
//
// A higher-accuracy successor to the Bard–Schweitzer scheme the paper
// uses: instead of assuming the queue-length *fractions* F_{c,m} =
// n_{c,m}/N_c are unchanged when one customer is removed, Linearizer
// estimates the change D_{c,m,j} = F_{c,m}(N - 1_j) - F_{c,m}(N) by
// actually solving the fixed point at the reduced populations, and feeds
// the corrections back. Typical throughput error drops from a few percent
// (Schweitzer) to a few tenths of a percent, at roughly (C + 1) x 3 times
// the cost. Provided as an accuracy upgrade and as an independent check
// on the Schweitzer solver.
#pragma once

#include "obs/trace.hpp"
#include "qn/hints.hpp"
#include "qn/network.hpp"
#include "qn/solution.hpp"
#include "util/cancel.hpp"

namespace latol::qn {

class SolverWorkspace;

/// Options for the Linearizer iteration.
struct LinearizerOptions {
  /// Outer correction updates (2-3 suffice; Chandy & Neuse use 3).
  int outer_iterations = 3;
  /// Convergence threshold of each inner (Core) fixed point.
  double tolerance = 1e-10;
  /// Iteration budget per Core solve.
  long max_core_iterations = 100000;
  /// Divergence guard of each Core fixed point; same semantics as
  /// AmvaOptions::divergence_factor / divergence_window.
  double divergence_factor = 1e6;
  long divergence_window = 32;
  /// Optional convergence sink: when non-null, every Core iteration's
  /// delta is recorded into it, across all Core solves in call order (the
  /// full-population solve first, then the reduced-population solves of
  /// each outer pass). Caller-owned; survives a solver throw.
  obs::ConvergenceTrace* trace = nullptr;
  /// Optional cooperative cancellation, checked once per Core iteration;
  /// same semantics as AmvaOptions::cancel.
  const util::CancelToken* cancel = nullptr;
};

/// Solve `net` with Linearizer. Same contract as solve_amva (including the
/// SolverError guards on NaN/overflowed or diverging Core iterates).
///
/// Every Core fixed point starts from the fractions of `hints.prior` when
/// it is usable (qn/hints.hpp, DESIGN.md §15) and from the
/// demand-proportional guess otherwise, so a null or unusable prior gives
/// the cold solve's bytes. A pure function of (net, options, hints).
[[nodiscard]] MvaSolution solve_linearizer(
    const ClosedNetwork& net,
    const LinearizerOptions& options = LinearizerOptions(),
    const SolveHints& hints = SolveHints());

/// Same solve in a caller-provided SolverWorkspace (qn/workspace.hpp)
/// instead of the per-thread default arena; results are bit-identical to
/// the default overload.
[[nodiscard]] MvaSolution solve_linearizer(
    const ClosedNetwork& net, const LinearizerOptions& options,
    SolverWorkspace& ws, const SolveHints& hints = SolveHints());

}  // namespace latol::qn
