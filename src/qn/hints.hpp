// Warm-start hints for the approximate MVA solvers (DESIGN.md §15).
//
// A parameter sweep solves a long chain of nearly identical networks, and
// the AMVA/Linearizer fixed point moves slowly along the sweep axis — the
// converged queue lengths of one grid point (or a linear extrapolation
// from the previous two) are an excellent initial iterate for its lattice
// neighbor. A hint only seeds the iterate: each solver runs its one loop
// from the caller-provided prior instead of the demand-proportional guess,
// and skips most of the cold descent.
//
// Determinism contract: a warm solve is a pure function of (network,
// options, hint). The sweep engine builds on exactly that — it derives
// every hint deterministically from the grid structure (per-row chains,
// seeded from results that are themselves pure functions of the chain),
// so sweep artifacts are byte-identical across worker counts, shard
// splits, streaming modes, and cache states (DESIGN.md §10, §15). A null
// or unusable prior is the cold solve, bitwise.
//
// What warm starting is NOT: bitwise equal to a cold solve of the same
// point. Different starting points stop at different iterates inside the
// tolerance ball, so warm and cold answers agree to ~kappa x tolerance;
// a tighter AmvaOptions::tolerance shrinks the gap with it (measured in
// tests/qn/warm_start_test.cpp).
#pragma once

#include "qn/solution.hpp"

namespace latol::qn {

/// Warm-start request for solve_amva / solve_linearizer / robust_solve:
/// the solution to seed the iterate from. Results are a pure function of
/// (network, options, hint); a default-constructed hint is a cold solve.
struct SolveHints {
  /// Solution of a nearby network to seed the iterate from; nullptr
  /// starts from the default demand-proportional guess, bitwise the cold
  /// solve. A prior whose shape does not match the network, or that
  /// contains non-finite or negative queue lengths, is ignored the same
  /// way rather than rejected — hints are an optimization, never an
  /// input contract.
  const MvaSolution* prior = nullptr;
};

}  // namespace latol::qn
