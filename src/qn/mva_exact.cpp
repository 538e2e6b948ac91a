#include "qn/mva_exact.hpp"

#include <string>
#include <vector>

#include "qn/solver_error.hpp"
#include "qn/workspace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace latol::qn {

namespace {

/// Points per level below which the level is processed inline: fanning a
/// handful of tiny recursions out to the pool costs more than running
/// them.
constexpr std::size_t kParallelThreshold = 64;

}  // namespace

MvaSolution solve_mva_exact(const ClosedNetwork& net, std::size_t max_states,
                            std::size_t workers,
                            const util::CancelToken* cancel) {
  net.validate();
  net.require_no_orbits("exact MVA");
  LATOL_REQUIRE(net.is_product_form(),
                "exact MVA requires class-independent service times at "
                "shared FCFS stations");
  for (std::size_t m = 0; m < net.num_stations(); ++m) {
    LATOL_REQUIRE(net.station(m).kind != StationKind::kQueueing ||
                      net.station(m).servers == 1,
                  "exact MVA handles single-server queueing stations only; "
                  "use the CTMC solver (exact) or AMVA (Seidmann "
                  "approximation) for multi-server stations");
  }

  const std::size_t C = net.num_classes();
  const std::size_t M = net.num_stations();

  std::vector<std::size_t> stride(C);
  std::vector<std::size_t> span(C);
  std::size_t states = 1;
  for (std::size_t c = 0; c < C; ++c) {
    stride[c] = states;
    span[c] = static_cast<std::size_t>(net.population(c)) + 1;
    LATOL_REQUIRE(states <= max_states / span[c],
                  "population lattice exceeds max_states=" << max_states);
    states *= span[c];
  }

  // Flat per-class views of the network (visit/service/queueing per slot).
  // The plain reference matters: thread_local variables are not captured
  // by lambdas, so process_point below must name a normal variable to see
  // THIS thread's workspace from the pool workers.
  thread_local SolverWorkspace tls_workspace;
  SolverWorkspace& ws = tls_workspace;
  ws.bind(net);

  // A populated class with zero total demand would produce a zero cycle
  // time at its first lattice level; with positive total demand the cycle
  // time is bounded below by it at every point, so checking once here is
  // equivalent to the per-point check the serial recursion used to do.
  for (std::size_t c = 0; c < C; ++c) {
    LATOL_REQUIRE(ws.population[c] == 0 || ws.total_demand[c] > 0.0,
                  "class " << c << " has zero cycle time");
  }

  // Total queue length per station for every population vector <= N,
  // station-contiguous per lattice point.
  std::vector<double> total_queue(states * M, 0.0);

  // Group lattice points by total population level in one odometer pass
  // (the odometer enumerates points in mixed-radix order, so the running
  // counter IS the lattice index). Every N - 1_c predecessor of a level-L
  // point sits at level L-1, which makes each level embarrassingly
  // parallel: a point writes only its own total_queue row and reads only
  // level L-1 rows, so results are bit-identical for any worker count and
  // stealing order (DESIGN.md §10).
  const long total_pop = net.total_population();
  std::vector<std::vector<std::size_t>> levels(
      static_cast<std::size_t>(total_pop) + 1);
  {
    std::vector<long> pop(C, 0);
    long sum = 0;
    std::size_t idx = 0;
    for (;;) {
      levels[static_cast<std::size_t>(sum)].push_back(idx);
      std::size_t c = 0;
      for (; c < C; ++c) {
        if (pop[c] < net.population(c)) {
          ++pop[c];
          ++sum;
          break;
        }
        sum -= pop[c];
        pop[c] = 0;
      }
      if (c == C) break;
      ++idx;
    }
  }

  MvaSolution sol;
  sol.throughput.assign(C, 0.0);
  sol.waiting = util::Matrix(C, M, 0.0);
  sol.queue_length = util::Matrix(C, M, 0.0);
  sol.utilization.assign(M, 0.0);

  // One lattice point: apply the arrival theorem to every populated class
  // and accumulate this point's total queue lengths. The target point
  // (the full population, the lattice's single top point) additionally
  // materializes the solution.
  const auto process_point = [&](std::size_t idx, bool at_target) {
    thread_local std::vector<double> w;
    w.resize(ws.num_slots());
    double* nbar = &total_queue[idx * M];
    for (std::size_t c = 0; c < C; ++c) {
      const auto pop_c = static_cast<long>((idx / stride[c]) % span[c]);
      if (pop_c == 0) continue;
      const double* prev = &total_queue[(idx - stride[c]) * M];
      double cycle = 0.0;
      for (std::size_t k = ws.first[c]; k < ws.first[c + 1]; ++k) {
        const double s = ws.service[k];
        const double wk =
            ws.queueing[k] != 0 ? s * (1.0 + prev[ws.station[k]]) : s;
        w[k] = wk;
        cycle += ws.visit[k] * wk;
      }
      const double lambda = static_cast<double>(pop_c) / cycle;
      if (at_target) {
        sol.throughput[c] = lambda;
        for (std::size_t k = ws.first[c]; k < ws.first[c + 1]; ++k) {
          sol.waiting(c, ws.station[k]) = w[k];
          sol.queue_length(c, ws.station[k]) = lambda * ws.visit[k] * w[k];
        }
      }
      for (std::size_t k = ws.first[c]; k < ws.first[c + 1]; ++k) {
        nbar[ws.station[k]] += lambda * ws.visit[k] * w[k];
      }
    }
  };

  for (long level = 1; level <= total_pop; ++level) {
    // Per-level cancellation: parallel_for bodies must not throw, so the
    // check lives between levels (and each level is bounded work).
    if (cancel != nullptr && cancel->expired()) {
      throw SolverError(SolverErrorCode::kDeadlineExceeded,
                        "exact MVA cancelled at population level " +
                            std::to_string(level) + " of " +
                            std::to_string(total_pop));
    }
    const std::vector<std::size_t>& pts =
        levels[static_cast<std::size_t>(level)];
    const bool at_target = (level == total_pop);
    if (pts.size() < kParallelThreshold) {
      for (const std::size_t idx : pts) process_point(idx, at_target);
    } else {
      util::parallel_for(
          pts.size(), [&](std::size_t i) { process_point(pts[i], at_target); },
          workers);
    }
  }

  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t k = ws.first[c]; k < ws.first[c + 1]; ++k) {
      sol.utilization[ws.station[k]] += sol.throughput[c] * ws.demand[k];
    }
  }
  return sol;
}

}  // namespace latol::qn
