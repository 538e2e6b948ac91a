// Resilient solver front-end: validate, solve, degrade gracefully.
//
// The paper's AMVA fixed point (its Fig. 3) is only approximately
// convergent, and a production service sweeping millions of configurations
// cannot afford a diverged or NaN iterate silently becoming a "result".
// robust_solve() validates the network, runs the requested solver, and on
// any failure degrades through a configurable chain — by default
//
//   AMVA -> Linearizer -> exact MVA (small populations) -> asymptotic
//   bounds (qn/bounds.hpp)
//
// following Hill's observation that bottleneck/Little's-law bounds are the
// right cheap backstop when detailed models misbehave. The returned
// SolveReport records which solver answered, every attempt that failed and
// why, the Schweitzer fixed-point residual of the accepted solution, and
// wall time, so callers (sweep engine, CLI, benches) can surface degraded
// results instead of aborting or lying.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "qn/mva_approx.hpp"
#include "qn/mva_linearizer.hpp"
#include "qn/network.hpp"
#include "qn/solution.hpp"
#include "qn/solver_error.hpp"

namespace latol::qn {

/// The solvers a fallback chain can be built from, in decreasing order of
/// model fidelity (and cost) for this codebase's networks.
enum class SolverKind {
  kAmva,        ///< Bard–Schweitzer fixed point (the paper's algorithm)
  kLinearizer,  ///< Chandy–Neuse Linearizer (slower, more accurate)
  kExactMva,    ///< exact MVA; only small populations / product form
  kBounds,      ///< asymptotic bottleneck bounds (always succeed)
  kFesc,        ///< hierarchical FESC decomposition (core/hierarchical);
                ///< provenance only — never a robust_solve chain link
};

/// Stable lowercase identifier ("amva", "linearizer", "exact-mva",
/// "bounds", "fesc") for reports and CSV columns.
[[nodiscard]] const char* solver_kind_name(SolverKind kind);

/// Configuration of robust_solve().
///
/// Cancellation: a token set on `amva.cancel` governs the whole chain —
/// robust_solve checks it before every link, forwards it to Linearizer
/// (unless `linearizer.cancel` is already set) and exact MVA, and treats
/// kDeadlineExceeded as terminal: the chain stops immediately and the
/// report carries error = kDeadlineExceeded instead of degrading to
/// bounds (DESIGN.md §7, §11).
struct RobustOptions {
  /// Solvers to try, in order. The first link is the "requested" solver;
  /// an answer from any later link is flagged degraded.
  std::vector<SolverKind> chain{SolverKind::kAmva, SolverKind::kLinearizer,
                                SolverKind::kExactMva, SolverKind::kBounds};
  AmvaOptions amva{};
  LinearizerOptions linearizer{};
  /// Exact MVA is attempted only when the population lattice
  /// prod_c (N_c + 1) fits this budget (and the network is product form
  /// with single-server queueing stations); otherwise the link is skipped.
  std::size_t exact_max_states = 2'000'000;
  /// Record per-iteration convergence traces into SolveAttempt::trace
  /// (each attempt gets its own sink, so a failed AMVA attempt keeps its
  /// partial history alongside the fallback that answered). Off by
  /// default: tracing costs one vector append per solver iteration.
  bool record_traces = false;
  /// Per-attempt trace capacity (entries beyond it are counted, not
  /// stored); see obs::ConvergenceTrace.
  std::size_t trace_capacity = obs::ConvergenceTrace::kDefaultCapacity;
  /// Warm-start hints (qn/hints.hpp): when non-null, the AMVA and
  /// Linearizer links run on the warm kernels, seeded from the hint (a
  /// deterministic pure function of network + options + hint). Exact MVA
  /// and bounds ignore hints (they are direct methods). Not owned; must
  /// outlive the call. nullptr (the default) keeps every link on the
  /// plain kernels, bit-identical to earlier releases.
  const SolveHints* hints = nullptr;
  /// Set when the network handed to robust_solve() is a reduction of a
  /// larger one — class 0's row of a symmetric machine, say (DESIGN.md
  /// §2.3): builds that full network. AMVA links solve the reduction; every
  /// other link solves the full network, built on first use, so a failed
  /// reduced AMVA degrades exactly as a failed full one would.
  std::function<ClosedNetwork()> expand;
  /// Order of the symmetry group a reduced network was built with (1: no
  /// group). Provenance only: the qn.robust_solve span records it as its
  /// `group` arg when the reduced network answers.
  std::size_t group = 1;
};

/// One link of the chain, as it actually went.
struct SolveAttempt {
  SolverKind solver = SolverKind::kAmva;
  bool success = false;
  /// Failure taxonomy code; unset for successes and for links that were
  /// skipped as inapplicable (see `detail`).
  std::optional<SolverErrorCode> error;
  long iterations = 0;
  double wall_seconds = 0.0;
  std::string detail;  ///< error message or skip reason; empty on success
  /// Per-iteration residual history of this attempt; empty unless
  /// RobustOptions::record_traces was set (and the solver is iterative —
  /// exact MVA and bounds leave it empty).
  obs::ConvergenceTrace trace;
};

/// Solution-consistency checks (Hill's "sanity checks should ride along"):
/// cheap invariants every accepted solve is measured against. Violations
/// are reported as warnings in the metrics stream, never hard failures —
/// a bounds answer legitimately breaks Little's law, and callers must
/// still see it.
struct InvariantReport {
  /// Little's law per class: max over classes of
  /// |N_c - X_c * sum_m v_{c,m} w_{c,m}| / N_c.
  double littles_law_error = 0.0;
  /// Flow balance / visit-ratio consistency: max over stations of the gap
  /// between reported utilization and sum_c X_c * D_{c,m} (relative to
  /// max(1, U_m)), joined with the station-level Little's-law gap
  /// max |n_{c,m} - X_c v_{c,m} w_{c,m}| / N_c.
  double flow_balance_error = 0.0;
  /// Human-readable violations above kWarnThreshold; empty when clean.
  std::vector<std::string> warnings;

  static constexpr double kWarnThreshold = 1e-6;
};

/// Evaluate the invariants of `sol` against `net`. Never throws on a bad
/// solution (that is the point); throws InvalidArgument only when the
/// shapes do not match the network.
[[nodiscard]] InvariantReport check_invariants(const ClosedNetwork& net,
                                               const MvaSolution& sol);

// --- one shared definition of solve health ---------------------------------
//
// "Converged" and "clean/degraded" used to be re-derived ad hoc by the
// sweep engine, the experiment runner, the CLI, and the benches, and the
// definitions drifted. Every consumer now goes through these two
// predicates (regression-tested in tests/exp/runner_test.cpp).

/// A point's numbers are trustworthy: some solver produced a converged
/// answer (possibly a fallback).
[[nodiscard]] constexpr bool solve_converged(bool has_error, bool converged) {
  return !has_error && converged;
}

/// A point is clean: converged AND answered by the requested solver. The
/// complement of this predicate is what manifests count as "degraded".
[[nodiscard]] constexpr bool solve_clean(bool has_error, bool converged,
                                         bool degraded) {
  return solve_converged(has_error, converged) && !degraded;
}

/// What robust_solve() produced and how it got there.
struct SolveReport {
  /// The accepted solution; meaningless when !ok().
  MvaSolution solution;
  /// Which link of the chain produced `solution`.
  SolverKind solver = SolverKind::kAmva;
  /// True when a fallback (not the first link of the chain) answered.
  bool degraded = false;
  /// Schweitzer fixed-point residual of the accepted solution: the max
  /// absolute queue-length change of one more fixed-point evaluation.
  /// ~0 for a converged AMVA/Linearizer answer; for exact-MVA answers it
  /// measures the Schweitzer approximation gap (informational); large for
  /// bounds answers (they are not a fixed point).
  double residual = 0.0;
  /// Total wall time across all attempts, seconds.
  double wall_seconds = 0.0;
  /// Every link tried (or skipped), in chain order.
  std::vector<SolveAttempt> attempts;
  /// Invariant checks of the accepted solution (zeroed when !ok()).
  InvariantReport invariants;
  /// Set when no link produced an answer; `solution` is then meaningless.
  std::optional<SolverErrorCode> error;
  /// The full network RobustOptions::expand built for a non-AMVA link,
  /// when one ran. It is the network `solution` belongs to when such a
  /// link answered (solver != kAmva).
  std::optional<ClosedNetwork> expanded;

  [[nodiscard]] bool ok() const { return !error.has_value(); }

  /// One-line human-readable outcome, e.g.
  /// "solved by amva (37 iterations, residual 8.2e-11)" or
  /// "degraded to bounds after amva: iteration-budget".
  [[nodiscard]] std::string summary() const;
};

/// Validate `net` and solve it, degrading through `options.chain`. Never
/// throws on solver failure (inspect SolveReport::error); throws
/// InvalidArgument only on nonsensical *options* (empty chain, bad
/// tolerances).
[[nodiscard]] SolveReport robust_solve(const ClosedNetwork& net,
                                       const RobustOptions& options = {});

/// Max absolute difference between `sol`'s queue lengths and one Schweitzer
/// fixed-point evaluation from them (Jacobi step, no mutation). Zero at the
/// Bard–Schweitzer fixed point; +inf when the evaluation breaks down.
[[nodiscard]] double fixed_point_residual(const ClosedNetwork& net,
                                          const MvaSolution& sol);

/// The last-resort answer: per-class asymptotic throughput bounds, jointly
/// scaled down so no queueing station is loaded beyond its servers, with
/// zero-contention waiting times. Optimistic but finite and never absurd —
/// a dead system reports zero throughput, not infinite speed. Throws
/// InvalidArgument on an invalid network.
[[nodiscard]] MvaSolution bounds_solution(const ClosedNetwork& net);

}  // namespace latol::qn
