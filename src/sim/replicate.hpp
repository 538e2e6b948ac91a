// Parallel independent replications with deterministic early stopping.
//
// One simulation run is a point estimate; the paper's validation tables
// quote means over independent replications. This harness fans
// replications out over util::parallel_for while keeping the determinism
// contract of DESIGN.md §10: the returned result is bitwise identical
// for a given base seed at ANY worker count, including worker count 1.
//
// How that works (DESIGN.md §13):
//  - Replication i always runs with seed base_seed + i, in its own
//    simulator instance; nothing mutable is shared between replications.
//  - Replications execute in fixed-size rounds (plan.round_size, NOT the
//    worker count). Every round runs to completion, then the stopping
//    rule is evaluated *sequentially by replication index* over the
//    completed prefix: the accepted prefix is the shortest [0, n) with
//    n >= min_reps whose 95% CI half-width meets the relative target.
//  - Replications past the accepted prefix are speculative: their cost
//    was paid but their results are discarded, so neither scheduling
//    order nor worker count can leak into the output.
//
// The price of determinism is bounded speculation waste (at most
// round_size - 1 discarded runs); the benefit is that `latol simulate
// --reps N` reproduces exactly, and a failure report's [seed=N] tag
// identifies one replication regardless of how many threads ran it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "sim/mms_des.hpp"
#include "sim/mms_petri.hpp"
#include "sim/stats.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace latol::sim {

/// How many replications to run and when to stop early.
struct ReplicationPlan {
  std::size_t min_reps = 2;   ///< never stop before this many
  std::size_t max_reps = 8;   ///< hard cap
  /// Stop once hw95 <= target_rel_half_width * |mean| of the metric
  /// (0 disables early stopping: exactly max_reps run).
  double target_rel_half_width = 0.0;
  /// parallel_for worker count (0 = shared pool). Affects wall time
  /// only, never results.
  std::size_t workers = 0;
  /// Replications launched per round; the speculation window.
  std::size_t round_size = 4;
};

/// Replication results plus summary statistics of the chosen metric.
template <typename Result>
struct ReplicationRun {
  /// The accepted prefix, in replication order (seed base + i).
  std::vector<Result> runs;
  double mean = 0.0;           ///< metric mean over `runs`
  double half_width_95 = 0.0;  ///< 95% CI half-width (Student t)
  bool target_met = false;     ///< CI target reached within max_reps
  std::size_t speculative_discarded = 0;  ///< runs paid for but dropped
};

/// Run up to `plan.max_reps` replications of `run_one(i)` and summarize
/// `metric(result)` over the accepted prefix (see file comment for the
/// determinism argument). `run_one` must be safe to call concurrently
/// for distinct indices; exceptions are captured and rethrown for the
/// lowest failing index once its round completes.
template <typename Result, typename RunOne, typename Metric>
ReplicationRun<Result> run_replications(const ReplicationPlan& plan,
                                        RunOne&& run_one, Metric&& metric) {
  LATOL_REQUIRE(plan.min_reps >= 1, "min_reps " << plan.min_reps);
  LATOL_REQUIRE(plan.max_reps >= plan.min_reps,
                "max_reps " << plan.max_reps << " < min_reps "
                            << plan.min_reps);
  LATOL_REQUIRE(plan.round_size >= 1, "round_size " << plan.round_size);
  LATOL_REQUIRE(plan.target_rel_half_width >= 0.0,
                "target_rel_half_width " << plan.target_rel_half_width);

  std::vector<Result> results(plan.max_reps);
  std::vector<std::exception_ptr> errors(plan.max_reps);
  OnlineStats acc;
  ReplicationRun<Result> out;

  // Observability only — rounds/replications carry no result data, so
  // tracing cannot perturb the determinism contract above.
  obs::Span rep_span("sim.replications", "sim");
  const std::uint64_t rep_span_id = rep_span.id();

  std::size_t accepted = 0;  // prefix length once the rule fires
  for (std::size_t base = 0; base < plan.max_reps && accepted == 0;
       base += plan.round_size) {
    const std::size_t batch =
        std::min(plan.round_size, plan.max_reps - base);
    obs::Span round_span("sim.round", "sim", rep_span_id);
    round_span.arg("base", static_cast<double>(base));
    round_span.arg("batch", static_cast<double>(batch));
    const std::uint64_t round_span_id = round_span.id();
    util::parallel_for(
        batch,
        [&](std::size_t k) {
          obs::Span one_span("sim.replication", "sim", round_span_id);
          one_span.arg("index", static_cast<double>(base + k));
          try {
            results[base + k] = run_one(base + k);
          } catch (...) {
            errors[base + k] = std::current_exception();
          }
        },
        plan.workers);
    // Apply the stopping rule sequentially by index over the new
    // completions; the first index that satisfies it (or fails) wins,
    // so the outcome is independent of scheduling.
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t i = base + k;
      if (errors[i]) std::rethrow_exception(errors[i]);
      acc.add(metric(results[i]));
      const std::size_t n = i + 1;
      if (plan.target_rel_half_width > 0.0 && n >= plan.min_reps && n >= 2) {
        const double hw = half_width_95(acc);
        const double mean = acc.mean();
        const double scale = mean < 0.0 ? -mean : mean;
        if (hw <= plan.target_rel_half_width * scale) {
          accepted = n;
          out.target_met = true;
          out.mean = mean;
          out.half_width_95 = hw;
          out.speculative_discarded = batch - 1 - k;
          break;
        }
      }
    }
  }
  if (accepted == 0) {
    accepted = plan.max_reps;
    out.mean = acc.mean();
    out.half_width_95 = half_width_95(acc);
    out.target_met = plan.target_rel_half_width > 0.0 &&
                     out.half_width_95 <=
                         plan.target_rel_half_width *
                             (out.mean < 0.0 ? -out.mean : out.mean);
  }
  results.resize(accepted);
  rep_span.arg("accepted", static_cast<double>(accepted));
  rep_span.arg("discarded", static_cast<double>(out.speculative_discarded));
  out.runs = std::move(results);
  return out;
}

/// Replicate the MMS discrete-event simulation: replication i runs
/// `base.seed + i`. The CI metric is processor utilization (the paper's
/// headline measure).
[[nodiscard]] ReplicationRun<SimulationResult> replicate_mms(
    const SimulationConfig& base, const ReplicationPlan& plan);

/// Replicate the MMS STPN simulation. The net is built and compiled
/// once and shared read-only by all replications (the compiled net is
/// immutable; each replication owns its marking, clocks, and RNG). The
/// CI metric is processor utilization.
[[nodiscard]] ReplicationRun<PetriMmsResult> replicate_mms_petri(
    const core::MmsConfig& config, double sim_time, double warmup_fraction,
    std::uint64_t base_seed, const ReplicationPlan& plan,
    ServiceDistribution memory_dist = ServiceDistribution::kExponential);

}  // namespace latol::sim
