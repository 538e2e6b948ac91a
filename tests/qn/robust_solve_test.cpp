// Fault injection for the resilient solver pipeline: every link of the
// fallback chain must be reachable, every SolverErrorCode must surface,
// and a degraded answer must never pose as a clean one.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qn/bounds.hpp"
#include "qn/mva_approx.hpp"
#include "qn/robust.hpp"
#include "qn/solver_error.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

/// Single-class tandem of queueing stations with the given demands.
ClosedNetwork cyclic(long n, const std::vector<double>& demands) {
  std::vector<Station> stations;
  for (std::size_t m = 0; m < demands.size(); ++m) {
    stations.push_back({"s", StationKind::kQueueing});
    stations.back().name += std::to_string(m);
  }
  ClosedNetwork net(std::move(stations), 1);
  net.set_population(0, n);
  for (std::size_t m = 0; m < demands.size(); ++m) {
    net.set_visit_ratio(0, m, 1.0);
    net.set_service_time(0, m, demands[m]);
  }
  return net;
}

/// A populated class with no demand anywhere fails network validation.
ClosedNetwork invalid_network() {
  ClosedNetwork net({{"s", StationKind::kQueueing}}, 1);
  net.set_population(0, 5);
  return net;
}

// --- chain links ---

TEST(RobustSolve, CleanSolveAnswersWithRequestedSolver) {
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kAmva);
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].success);
  EXPECT_TRUE(report.solution.converged);
  EXPECT_LT(report.residual, 1e-6);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(RobustSolve, ExhaustedAmvaFallsBackToLinearizer) {
  RobustOptions opts;
  opts.amva.max_iterations = 1;
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kLinearizer);
  EXPECT_TRUE(report.degraded);
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].success);
  ASSERT_TRUE(report.attempts[0].error.has_value());
  EXPECT_EQ(*report.attempts[0].error, SolverErrorCode::kIterationBudget);
  EXPECT_TRUE(report.attempts[1].success);
}

TEST(RobustSolve, FallsBackToExactMvaWhenIterativeSolversFail) {
  RobustOptions opts;
  opts.amva.max_iterations = 1;
  opts.linearizer.max_core_iterations = 1;
  const SolveReport report = robust_solve(cyclic(6, {1.0, 2.0}), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kExactMva);
  EXPECT_TRUE(report.degraded);
  // Exact MVA is exact: the Schweitzer residual measures the approximation
  // gap, which is nonzero but modest on a 2-station tandem.
  EXPECT_TRUE(std::isfinite(report.residual));
}

TEST(RobustSolve, FallsBackToBoundsWhenLatticeIsTooLarge) {
  RobustOptions opts;
  opts.amva.max_iterations = 1;
  opts.linearizer.max_core_iterations = 1;
  opts.exact_max_states = 1;  // force the exact-MVA gate shut
  const SolveReport report = robust_solve(cyclic(6, {1.0, 2.0}), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kBounds);
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.attempts.size(), 4u);
  // The exact-MVA link was skipped (inapplicable), not failed.
  EXPECT_FALSE(report.attempts[2].error.has_value());
  EXPECT_NE(report.attempts[2].detail.find("skipped"), std::string::npos);
  // Bounds answers are optimistic: at or above nothing, at most the
  // asymptotic cap.
  EXPECT_LE(report.solution.throughput[0], 1.0 / 2.0 + 1e-12);
  EXPECT_GT(report.solution.throughput[0], 0.0);
}

TEST(RobustSolve, ExactMvaGateOpensAtTheLatticeLimit) {
  RobustOptions opts;
  opts.amva.max_iterations = 1;
  opts.linearizer.max_core_iterations = 1;
  // Population 9 -> lattice of exactly 10 states.
  opts.exact_max_states = 10;
  const SolveReport at_limit = robust_solve(cyclic(9, {1.0, 2.0}), opts);
  ASSERT_TRUE(at_limit.ok());
  EXPECT_EQ(at_limit.solver, SolverKind::kExactMva);

  opts.exact_max_states = 9;  // one state short: the gate must close
  const SolveReport over_limit = robust_solve(cyclic(9, {1.0, 2.0}), opts);
  ASSERT_TRUE(over_limit.ok());
  EXPECT_EQ(over_limit.solver, SolverKind::kBounds);
}

// --- error taxonomy: every code must be reachable ---

TEST(RobustSolve, InvalidNetworkCode) {
  const SolveReport report = robust_solve(invalid_network());
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kInvalidNetwork);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_FALSE(report.attempts[0].detail.empty());
}

TEST(RobustSolve, IterationBudgetCode) {
  RobustOptions opts;
  opts.chain = {SolverKind::kAmva};
  opts.amva.max_iterations = 1;
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kIterationBudget);
}

TEST(RobustSolve, NumericalCode) {
  // Demands near DBL_MAX overflow the cycle time to infinity on the very
  // first evaluation.
  RobustOptions opts;
  opts.chain = {SolverKind::kAmva};
  const SolveReport report =
      robust_solve(cyclic(4, {1e308, 1e308}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kNumerical);
}

TEST(RobustSolve, DivergedCode) {
  // A genuine AMVA divergence is hard to construct (damping <= 1 keeps the
  // map contracting on these networks), so force the guard the same way
  // the budget tests force theirs: demand an impossible per-step
  // improvement so the second iterate is flagged as backsliding.
  RobustOptions opts;
  opts.chain = {SolverKind::kAmva};
  opts.amva.divergence_factor = 1e-12;
  opts.amva.divergence_window = 0;
  const SolveReport report =
      robust_solve(cyclic(50, {1.0, 2.0, 3.0, 4.0}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kDiverged);
}

TEST(RobustSolve, DivergenceGuardThrowsFromSolveAmva) {
  AmvaOptions opts;
  opts.divergence_factor = 1e-12;
  opts.divergence_window = 0;
  try {
    (void)solve_amva(cyclic(50, {1.0, 2.0, 3.0, 4.0}), opts);
    FAIL() << "expected SolverError(kDiverged)";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kDiverged);
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos);
  }
}

TEST(RobustSolve, BoundsRescueNumericalBreakdown) {
  // With the full default chain an overflowing network still gets an
  // answer: the bounds backstop is immune to the fixed-point blowup. The
  // population is chosen beyond the exact-MVA lattice budget so the last
  // link is the one that must answer.
  const SolveReport report = robust_solve(cyclic(3'000'000, {1e308, 1e308}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kBounds);
  EXPECT_TRUE(report.degraded);
  // Total demand overflows to infinity, so the honest bound is ~zero
  // throughput — finite and pessimistic, never NaN or infinite speed.
  EXPECT_TRUE(std::isfinite(report.solution.throughput[0]));
  EXPECT_GE(report.solution.throughput[0], 0.0);
}

// --- extreme-but-legal inputs stay on the happy path ---

TEST(RobustSolve, DemandRatiosSpanningTwelveOrders) {
  const SolveReport report = robust_solve(cyclic(10, {1e-6, 1e6}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.solver, SolverKind::kAmva);
  EXPECT_FALSE(report.degraded);
  EXPECT_NEAR(report.solution.throughput[0], 1.0 / 1e6, 1e-9);
}

TEST(RobustSolve, NearZeroDemandStaysClean) {
  const SolveReport report = robust_solve(cyclic(5, {1e-300, 1.0}));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(std::isfinite(report.solution.throughput[0]));
}

TEST(RobustSolve, ZeroDemandStationIsTransparent) {
  const SolveReport report = robust_solve(cyclic(5, {10.0, 0.0}));
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report.solution.queue_length(0, 1), 0.0, 1e-9);
}

// --- building blocks ---

TEST(RobustSolve, ResidualNearZeroAtFixedPointLargeForBounds) {
  const auto net = cyclic(8, {1.0, 2.0});
  const MvaSolution amva = solve_amva(net);
  EXPECT_LT(fixed_point_residual(net, amva), 1e-6);
  // The bounds answer ignores contention entirely, so it is far from the
  // Schweitzer fixed point on a congested network.
  const MvaSolution bounds = bounds_solution(net);
  EXPECT_GT(fixed_point_residual(net, bounds),
            fixed_point_residual(net, amva));
}

TEST(RobustSolve, BoundsSolutionIsFiniteAndCapped) {
  const auto net = cyclic(4, {1.0, 2.0});
  const MvaSolution sol = bounds_solution(net);
  EXPECT_TRUE(sol.converged);
  EXPECT_TRUE(std::isfinite(sol.throughput[0]));
  EXPECT_LE(sol.throughput[0], asymptotic_throughput_bound(net, 0) + 1e-12);
  EXPECT_GT(sol.throughput[0], 0.0);
}

TEST(RobustSolve, CycleTimeOfDeadClassIsInfinite) {
  MvaSolution sol;
  sol.throughput = {0.0, 2.0};
  EXPECT_TRUE(std::isinf(sol.cycle_time(0, 5)));
  EXPECT_DOUBLE_EQ(sol.cycle_time(1, 10), 5.0);
}

TEST(RobustSolve, SummaryDescribesTheOutcome) {
  const SolveReport clean = robust_solve(cyclic(8, {1.0, 2.0}));
  EXPECT_NE(clean.summary().find("solved by amva"), std::string::npos);

  RobustOptions degraded_opts;
  degraded_opts.amva.max_iterations = 1;
  const SolveReport degraded =
      robust_solve(cyclic(8, {1.0, 2.0}), degraded_opts);
  EXPECT_NE(degraded.summary().find("degraded to linearizer"),
            std::string::npos);
  EXPECT_NE(degraded.summary().find("iteration-budget"), std::string::npos);

  const SolveReport failed = robust_solve(invalid_network());
  EXPECT_NE(failed.summary().find("solve failed"), std::string::npos);
  EXPECT_NE(failed.summary().find("invalid-network"), std::string::npos);
}

TEST(RobustSolve, EmptyChainIsAnOptionsError) {
  RobustOptions opts;
  opts.chain.clear();
  EXPECT_THROW((void)robust_solve(cyclic(2, {1.0}), opts), InvalidArgument);
}

TEST(RobustSolve, BadDivergenceOptionsAreRejected) {
  AmvaOptions opts;
  opts.divergence_factor = 0.0;
  EXPECT_THROW((void)solve_amva(cyclic(2, {1.0}), opts), InvalidArgument);
  opts.divergence_factor = 1e6;
  opts.divergence_window = -1;
  EXPECT_THROW((void)solve_amva(cyclic(2, {1.0}), opts), InvalidArgument);
}

}  // namespace
}  // namespace latol::qn
