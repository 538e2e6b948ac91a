// Cooperative cancellation: an expired CancelToken must abort every
// iterative solver with kDeadlineExceeded, the robust chain must treat
// that as terminal (a caller that stopped waiting gains nothing from a
// fallback answer), and a null token must cost nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qn/mva_approx.hpp"
#include "qn/mva_exact.hpp"
#include "qn/mva_linearizer.hpp"
#include "qn/network.hpp"
#include "qn/robust.hpp"
#include "qn/solver_error.hpp"
#include "util/cancel.hpp"

namespace latol::qn {
namespace {

/// Single-class cycle of queueing stations with the given demands.
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

// --- token semantics ---

TEST(CancelToken, FreshTokenIsNotExpired) {
  const util::CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelToken, CancelTripsImmediately) {
  util::CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
}

TEST(CancelToken, NonPositiveDeadlineExpiresImmediately) {
  util::CancelToken token;
  token.set_deadline_after(0.0);
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.has_deadline());
}

TEST(CancelToken, FutureDeadlineIsNotExpiredYet) {
  util::CancelToken token;
  token.set_deadline_after(3600.0);
  EXPECT_FALSE(token.expired());
  EXPECT_TRUE(token.has_deadline());
}

TEST(CancelToken, ChildExpiresWhenParentDoes) {
  util::CancelToken parent;
  util::CancelToken child(&parent);
  EXPECT_FALSE(child.expired());
  parent.cancel();
  EXPECT_TRUE(child.expired());
}

TEST(CancelToken, ChildExpiryDoesNotTripParent) {
  util::CancelToken parent;
  util::CancelToken child(&parent);
  child.cancel();
  EXPECT_TRUE(child.expired());
  EXPECT_FALSE(parent.expired());
}

// --- solver abort paths ---

TEST(Cancel, AmvaThrowsDeadlineExceededWhenTokenExpired) {
  util::CancelToken token;
  token.cancel();
  AmvaOptions opts;
  opts.cancel = &token;
  try {
    (void)solve_amva(cyclic(8, {1.0, 2.0}), opts);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kDeadlineExceeded);
  }
}

TEST(Cancel, LinearizerThrowsDeadlineExceededWhenTokenExpired) {
  util::CancelToken token;
  token.cancel();
  LinearizerOptions opts;
  opts.cancel = &token;
  try {
    (void)solve_linearizer(cyclic(8, {1.0, 2.0}), opts);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kDeadlineExceeded);
  }
}

TEST(Cancel, ExactMvaThrowsDeadlineExceededWhenTokenExpired) {
  util::CancelToken token;
  token.cancel();
  try {
    (void)solve_mva_exact(cyclic(8, {1.0, 2.0}), 50'000'000, 0, &token);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), SolverErrorCode::kDeadlineExceeded);
  }
}

TEST(Cancel, NullTokenSolvesNormally) {
  AmvaOptions opts;
  opts.cancel = nullptr;
  const MvaSolution sol = solve_amva(cyclic(8, {1.0, 2.0}), opts);
  EXPECT_TRUE(sol.converged);
}

// --- robust chain: deadline is terminal ---

TEST(Cancel, RobustSolveReportsDeadlineWithoutFallback) {
  util::CancelToken token;
  token.cancel();
  RobustOptions opts;
  opts.amva.cancel = &token;
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kDeadlineExceeded);
  // Terminal: the chain must stop at the first deadline, not burn the
  // caller's (already exhausted) budget on fallback links.
  EXPECT_LE(report.attempts.size(), 1u);
}

TEST(Cancel, RobustSolveDeadlineTrumpsEarlierFailureCodes) {
  // AMVA fails for a real reason first (budget of 1 iteration), then the
  // token expires before the Linearizer link: the report must still say
  // deadline-exceeded — the caller's budget ran out, nothing else
  // matters to them.
  util::CancelToken token;
  RobustOptions opts;
  opts.amva.max_iterations = 1;
  opts.amva.cancel = &token;
  token.cancel();
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kDeadlineExceeded);
}

TEST(Cancel, RobustSolveForwardsTokenToLinearizerLink) {
  // A generous AMVA token that a later link inherits: with AMVA disabled
  // by iteration budget and the token already tripped, the Linearizer
  // link must see the forwarded token and abort.
  util::CancelToken token;
  token.cancel();
  RobustOptions opts;
  opts.chain = {SolverKind::kLinearizer};
  opts.amva.cancel = &token;
  const SolveReport report = robust_solve(cyclic(8, {1.0, 2.0}), opts);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(*report.error, SolverErrorCode::kDeadlineExceeded);
}

TEST(Cancel, DeadlineExceededHasTaxonomyName) {
  EXPECT_EQ(
      std::string(solver_error_name(SolverErrorCode::kDeadlineExceeded)),
      "deadline-exceeded");
}

}  // namespace
}  // namespace latol::qn
