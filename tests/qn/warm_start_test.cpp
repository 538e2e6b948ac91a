// Warm-start contract tests (qn/hints.hpp, DESIGN.md §15). A hint only
// seeds each solver's one loop, which promises four things the
// large-sweep engine builds on:
//   1. determinism — a warm solve is a pure function of (network,
//      options, hint), so identically-hinted solves are byte-identical;
//   2. a null or unusable prior is the cold solve, bitwise;
//   3. accuracy — warm answers agree with cold answers to far better
//      than solver tolerance, and a tighter tolerance shrinks the gap;
//   4. savings — a lattice-neighbor (or extrapolated) hint cuts the
//      iteration count, by >= 1/3 on fine fig04-style axes.
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "qn/hints.hpp"
#include "qn/mva_approx.hpp"
#include "qn/mva_linearizer.hpp"
#include "qn/network.hpp"
#include "qn/robust.hpp"

namespace latol::qn {
namespace {

// Single-class central-server loop: processor + interconnect + memory,
// the fig04 shape in miniature. `mem_service` plays the p_remote axis.
ClosedNetwork central_server(long n, double mem_service) {
  ClosedNetwork net({{"cpu", StationKind::kQueueing},
                     {"net", StationKind::kDelay},
                     {"mem", StationKind::kQueueing}},
                    1);
  net.set_population(0, n);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_service_time(0, 0, 5.0);
  net.set_visit_ratio(0, 1, 1.0);
  net.set_service_time(0, 1, 2.0);
  net.set_visit_ratio(0, 2, 1.0);
  net.set_service_time(0, 2, mem_service);
  return net;
}

// Two classes with private processors and a shared memory (the MMS
// multi-class structure).
ClosedNetwork two_class(long n0, long n1, double mem_service) {
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    2);
  net.set_population(0, n0);
  net.set_population(1, n1);
  for (std::size_t c = 0; c < 2; ++c) {
    net.set_visit_ratio(c, c, 1.0);
    net.set_service_time(c, c, 4.0 + static_cast<double>(c));
    net.set_visit_ratio(c, 2, 1.0);
    net.set_service_time(c, 2, mem_service);
  }
  return net;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

::testing::AssertionResult same_bits(const MvaSolution& a,
                                     const MvaSolution& b) {
  if (!bits_equal(a.throughput, b.throughput))
    return ::testing::AssertionFailure() << "throughput bits differ";
  if (!bits_equal(a.waiting.data(), b.waiting.data()))
    return ::testing::AssertionFailure() << "waiting bits differ";
  if (!bits_equal(a.queue_length.data(), b.queue_length.data()))
    return ::testing::AssertionFailure() << "queue_length bits differ";
  if (!bits_equal(a.utilization, b.utilization))
    return ::testing::AssertionFailure() << "utilization bits differ";
  return ::testing::AssertionSuccess();
}

double max_rel_diff(const MvaSolution& a, const MvaSolution& b) {
  double worst = 0.0;
  for (std::size_t c = 0; c < a.throughput.size(); ++c) {
    const double denom = std::max(1e-300, std::fabs(b.throughput[c]));
    worst = std::max(worst,
                     std::fabs(a.throughput[c] - b.throughput[c]) / denom);
  }
  for (std::size_t i = 0; i < a.queue_length.data().size(); ++i) {
    const double denom = std::max(1.0, std::fabs(b.queue_length.data()[i]));
    worst = std::max(worst, std::fabs(a.queue_length.data()[i] -
                                      b.queue_length.data()[i]) /
                                denom);
  }
  return worst;
}

// Linear extrapolation along the sweep axis — the hint the batch runner
// feeds the solver (exp/runner.cpp): q ~ 2 q_prev - q_prev2, clamped.
MvaSolution extrapolate(const MvaSolution& p1, const MvaSolution& p2) {
  MvaSolution hint = p1;
  auto& d = hint.queue_length.data();
  const auto& d1 = p1.queue_length.data();
  const auto& d2 = p2.queue_length.data();
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = std::max(0.0, 2.0 * d1[i] - d2[i]);
  return hint;
}

TEST(WarmStart, IdenticallyHintedSolvesAreByteIdentical) {
  // Determinism, the property the sweep engine's byte-identity rests on:
  // same network, same options, same hint => same bytes, every time.
  const auto net = central_server(16, 3.5);
  const auto prior = solve_amva(central_server(16, 3.4), {}, SolveHints{});
  SolveHints hints;
  hints.prior = &prior;
  const auto a = solve_amva(net, {}, hints);
  const auto b = solve_amva(net, {}, hints);
  EXPECT_TRUE(same_bits(a, b));

  const auto la = solve_linearizer(net, {}, hints);
  const auto lb = solve_linearizer(net, {}, hints);
  EXPECT_TRUE(same_bits(la, lb));
}

TEST(WarmStart, ChainReplaysByteIdentically) {
  // A whole hint chain — each point seeded from the previous result, as
  // the runner chains a sweep row — replays byte-identically, which is
  // what makes shard splits and re-runs mergeable byte-for-byte.
  std::vector<MvaSolution> first_pass;
  for (int pass = 0; pass < 2; ++pass) {
    MvaSolution prev;
    bool have = false;
    for (int step = 0; step <= 20; ++step) {
      const auto net = central_server(16, 1.0 + 0.25 * step);
      SolveHints hints;
      hints.prior = have ? &prev : nullptr;
      auto sol = solve_amva(net, {}, hints);
      if (pass == 0) {
        first_pass.push_back(sol);
      } else {
        EXPECT_TRUE(same_bits(first_pass[static_cast<std::size_t>(step)],
                              sol))
            << "step " << step;
      }
      prev = std::move(sol);
      have = true;
    }
  }
}

TEST(WarmStart, WarmAgreesWithColdFarBelowTolerance) {
  // Warm and cold stop at different iterates inside the tolerance ball,
  // so they are not bitwise equal — but they must agree orders of
  // magnitude below the solver tolerance an analyst would ever read.
  MvaSolution prev;
  bool have = false;
  for (int step = 0; step <= 30; ++step) {
    const auto net = central_server(16, 1.0 + 0.25 * step);
    const auto cold = solve_amva(net, {}, SolveHints{});
    SolveHints hints;
    hints.prior = have ? &prev : nullptr;
    const auto warm = solve_amva(net, {}, hints);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    EXPECT_LT(max_rel_diff(warm, cold), 1e-9) << "step " << step;
    prev = warm;
    have = true;
  }
}

TEST(WarmStart, TighterToleranceShrinksHintSensitivity) {
  // The warm/cold gap is the width of the tolerance ball, so a caller who
  // wants near-identical warm and cold numbers tightens the tolerance:
  // at 1e-14 the chain above agrees to ~1e-14 relative.
  AmvaOptions tight;
  tight.tolerance = 1e-14;
  MvaSolution prev;
  bool have = false;
  for (int step = 0; step <= 30; ++step) {
    const auto net = central_server(16, 1.0 + 0.25 * step);
    const auto cold = solve_amva(net, tight);
    SolveHints hints;
    hints.prior = have ? &prev : nullptr;
    const auto warm = solve_amva(net, tight, hints);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    EXPECT_LT(max_rel_diff(warm, cold), 1e-13) << "step " << step;
    prev = warm;
    have = true;
  }
}

TEST(WarmStart, ExtrapolatedHintCutsIterationsByAThird) {
  // Fine axis at 1e5-point-surface granularity: the runner's linear
  // extrapolation from the two previous row points must deliver the
  // sweep engine's >= 30% mean iteration-count reduction.
  MvaSolution p1, p2;
  int have = 0;
  long cold_iters = 0;
  long warm_iters = 0;
  for (int step = 0; step < 400; ++step) {
    const auto net = central_server(16, 1.0 + 0.01 * step);
    const auto cold = solve_amva(net, {}, SolveHints{});
    SolveHints hints;
    MvaSolution extrapolated;
    if (have >= 2) {
      extrapolated = extrapolate(p1, p2);
      hints.prior = &extrapolated;
    } else if (have == 1) {
      hints.prior = &p1;
    }
    const auto warm = solve_amva(net, {}, hints);
    EXPECT_LT(max_rel_diff(warm, cold), 1e-9);
    if (have > 0) {
      cold_iters += cold.iterations;
      warm_iters += warm.iterations;
    }
    p2 = p1;
    p1 = warm;
    ++have;
  }
  EXPECT_LE(3 * warm_iters, 2 * cold_iters)
      << "warm " << warm_iters << " vs cold " << cold_iters << " iterations";
}

TEST(WarmStart, LinearizerWarmChainIsDeterministicAndSaves) {
  std::vector<MvaSolution> first_pass;
  long cold_iters = 0;
  long warm_iters = 0;
  for (int pass = 0; pass < 2; ++pass) {
    MvaSolution prev;
    bool have = false;
    for (int step = 0; step <= 20; ++step) {
      const auto net = two_class(5, 7, 1.0 + 0.1 * step);
      SolveHints hints;
      hints.prior = have ? &prev : nullptr;
      auto warm = solve_linearizer(net, {}, hints);
      if (pass == 0) {
        const auto cold = solve_linearizer(net, {}, SolveHints{});
        ASSERT_TRUE(cold.converged);
        // The outer correction cascade compounds the per-Core tolerance
        // ball, so the warm/cold gap is wider than AMVA's — still two
        // orders below the 1e-10 Core tolerance's kappa-amplified bound.
        EXPECT_LT(max_rel_diff(warm, cold), 1e-7) << "step " << step;
        if (have) {
          cold_iters += cold.iterations;
          warm_iters += warm.iterations;
        }
        first_pass.push_back(warm);
      } else {
        EXPECT_TRUE(same_bits(first_pass[static_cast<std::size_t>(step)],
                              warm))
            << "step " << step;
      }
      prev = std::move(warm);
      have = true;
    }
  }
  EXPECT_LT(warm_iters, cold_iters);
}

TEST(WarmStart, RobustSolveForwardsHints) {
  MvaSolution prev;
  bool have = false;
  long cold_iters = 0;
  long warm_iters = 0;
  for (int step = 0; step <= 15; ++step) {
    const auto net = central_server(12, 1.5 + 0.05 * step);

    RobustOptions cold_opts;
    const auto cold = robust_solve(net, cold_opts);

    SolveHints warm_hints;
    warm_hints.prior = have ? &prev : nullptr;
    RobustOptions warm_opts;
    warm_opts.hints = warm_hints;
    const auto warm = robust_solve(net, warm_opts);

    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(cold.solver, warm.solver);
    EXPECT_LT(max_rel_diff(warm.solution, cold.solution), 1e-9);
    if (have) {
      cold_iters += cold.solution.iterations;
      warm_iters += warm.solution.iterations;
    }
    prev = warm.solution;
    have = true;
  }
  // The hint must actually reach the AMVA link through RobustOptions.
  EXPECT_LT(warm_iters, cold_iters);
}

TEST(WarmStart, MalformedPriorIsIgnoredNotFatal) {
  const auto net = central_server(10, 3.0);
  const auto cold = solve_amva(net, {}, SolveHints{});

  // Wrong shape: a prior from a different network topology.
  const auto other = solve_amva(two_class(4, 4, 2.0), {}, SolveHints{});
  SolveHints wrong_shape;
  wrong_shape.prior = &other;
  EXPECT_TRUE(same_bits(cold, solve_amva(net, {}, wrong_shape)));

  // Right shape, poisoned values: ignored entirely, bitwise cold.
  MvaSolution poisoned = cold;
  poisoned.queue_length(0, 0) = std::numeric_limits<double>::quiet_NaN();
  SolveHints nan_prior;
  nan_prior.prior = &poisoned;
  EXPECT_TRUE(same_bits(cold, solve_amva(net, {}, nan_prior)));

  MvaSolution negative = cold;
  negative.queue_length(0, 2) = -1.0;
  SolveHints neg_prior;
  neg_prior.prior = &negative;
  EXPECT_TRUE(same_bits(cold, solve_amva(net, {}, neg_prior)));
}

TEST(WarmStart, ZeroPopulationClassStaysDead) {
  ClosedNetwork net = two_class(8, 0, 2.5);
  const auto cold = solve_amva(net, {}, SolveHints{});
  EXPECT_EQ(cold.throughput[1], 0.0);
  SolveHints warm_hints;
  warm_hints.prior = &cold;
  const auto warm = solve_amva(net, {}, warm_hints);
  EXPECT_LT(max_rel_diff(warm, cold), 1e-9);
  EXPECT_EQ(warm.throughput[1], 0.0);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(warm.queue_length(1, m), 0.0);
    EXPECT_EQ(warm.waiting(1, m), 0.0);
  }
}

TEST(WarmStart, WarmKernelAgreesWithPlainToTolerance) {
  // There is one loop per solver, so an empty hint is no hint: the
  // hinted overloads with a null prior give the hint-free bytes.
  for (int step = 0; step <= 10; ++step) {
    const auto net = central_server(20, 1.0 + 0.5 * step);
    EXPECT_TRUE(same_bits(solve_amva(net), solve_amva(net, {}, SolveHints{})))
        << "amva step " << step;
    EXPECT_TRUE(same_bits(solve_linearizer(net),
                          solve_linearizer(net, {}, SolveHints{})))
        << "linearizer step " << step;
  }
}

TEST(WarmStart, PlainSolverPathIsUntouched) {
  // Hint-free calls must keep producing the exact bytes they did before
  // warm starting existed (the paper-repro CSVs are pinned on them):
  // repeated solves agree bitwise and in iteration count.
  const auto net = central_server(16, 3.0);
  const auto a = solve_amva(net);
  const auto b = solve_amva(net);
  EXPECT_TRUE(same_bits(a, b));
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace
}  // namespace latol::qn
