// Batch execution of a Scenario through one grid executor: its threads
// solve the grid through a bounded window via the SolveCache, with
// per-point failure isolation and optional warm-start chaining along each
// row, run simulator validation, and hand the points on in grid order —
// into memory (run_scenario) or straight to CSV/JSONL sinks
// (run_scenario_stream). Results serialize as CSV + JSON plus a run
// manifest recording provenance.
//
// Determinism contract: for a given scenario content and build, the
// result rows (and the CSV/JSON emitted from them) are bitwise identical
// regardless of worker count, cache warmth, shard split, streaming, or
// point arrival order — every point leaves in grid order and every
// solver and warm-start hint is deterministic. The manifest is the one
// artifact that varies run-to-run (wall time, cache statistics).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "obs/registry.hpp"
#include "util/cancel.hpp"

namespace latol::exp {

/// Simulator measurements for one validated grid point.
struct SimPoint {
  std::string engine;  ///< "des" | "petri"
  std::uint64_t seed = 0;
  double sim_time = 0;
  double processor_utilization = 0;
  double message_rate = 0;
  double network_latency = 0;
  double memory_latency = 0;
  /// Measured end-to-end latency of open background requests (DES engine
  /// with base.open_arrival_rate > 0 only; 0 otherwise).
  double open_latency = 0;
};

/// Everything computed for one grid point.
struct PointResult {
  /// Model answer + tolerance indices + error isolation (core type, so
  /// the bench health helpers work on scenario output too).
  core::SweepResult model;
  std::optional<SimPoint> sim;
  /// An ideal-system solve behind a tolerance index was degraded or
  /// unconverged (the actual-system health lives in `model`).
  bool ideal_degraded = false;
  /// The main solve of this point was served from the cache, or joined
  /// a duplicate point's solve in flight.
  bool cache_hit = false;
};

/// Aggregate run accounting for the manifest.
struct RunStats {
  std::size_t grid_points = 0;
  std::size_t unique_points = 0;   ///< points this process owned
  std::size_t solves = 0;          ///< analyze() calls actually executed
  std::size_t cache_hits = 0;      ///< served from the cache (incl. preload)
  std::size_t cache_preloaded = 0; ///< entries loaded from a cache file
  std::size_t cache_evictions = 0; ///< entries dropped by the capacity bound
  std::size_t degraded_points = 0; ///< answered by fallback / not converged
  std::size_t failed_points = 0;   ///< no answer at all (error recorded)
  std::size_t deadline_points = 0; ///< of the failed: hit a deadline/timeout
  std::size_t simulated_points = 0;
  std::size_t workers = 0;         ///< pool threads (the caller works too)
  // --- grid geometry and sharding (DESIGN.md §15) ---
  std::size_t row_length = 0;      ///< points per row (last-axis size)
  std::size_t rows_total = 0;      ///< rows in the full grid
  std::size_t rows_owned = 0;      ///< rows this process solved
  std::size_t shard_index = 0;     ///< this process's shard
  std::size_t shard_count = 1;     ///< total worker processes
  // --- warm-start accounting ---
  bool warm = false;               ///< warm-start chaining was active
  std::size_t warm_points = 0;     ///< points solved with a non-null hint
  std::size_t total_iterations = 0;  ///< solver iterations over all points
  double wall_seconds = 0;
  // Per-stage wall time (also mirrored into the obs registry as
  // exp.stage.* timers when one is installed); `latol profile` prints
  // these as its stage table.
  double expand_seconds = 0;    ///< set-up before the first solve
  double solve_seconds = 0;     ///< the rest of the solve/emit loop
  /// Simulator time summed over the threads, divided by their count (0
  /// when skipped): validation overlaps the solves.
  double validate_seconds = 0;
  /// Points answered per solver kind, name -> count, sorted by name.
  std::vector<std::pair<std::string, std::size_t>> solver_counts;
};

/// Execution knobs that are not part of the scenario content.
struct RunOptions {
  /// Overrides Scenario::workers when nonzero.
  std::size_t workers = 0;
  /// Shared/persistent cache; nullptr runs with a private transient one
  /// capped at 16384 entries (duplicate points and shared ideal solves
  /// still coalesce, nothing survives the call).
  SolveCache* cache = nullptr;
  /// Run-wide cooperative cancellation (server drain / request deadline):
  /// when non-null and expired, remaining points fail with
  /// deadline-exceeded instead of solving; in-flight solves abort at
  /// their next iteration. Per-point failure isolation applies — the run
  /// still returns, with the affected points marked.
  const util::CancelToken* cancel = nullptr;
  /// Per-point wall-clock budget in milliseconds (0 = none). A point
  /// exceeding it is marked failed with error code deadline-exceeded and
  /// counted in RunStats::deadline_points; other points are unaffected.
  double point_timeout_ms = 0.0;
  /// Chain warm-start hints along each grid row (forces the behavior on
  /// even when the scenario's solver.warm_start is false); see DESIGN.md
  /// §15.1 for the determinism contract.
  bool warm_start = false;
  /// Deterministic split across worker processes: this process solves
  /// the grid rows r with r % shard_count == shard_index. Concatenating
  /// the shards' outputs row-by-row (round-robin, scripts/merge_shards.py)
  /// reproduces the single-process artifacts byte-for-byte.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// The points the executor's window holds, in whole tasks and at least
  /// one task more than its threads. 0 picks a default (4096). For the
  /// streaming runner this is the memory bound: a million-point sweep
  /// holds the window's results, never the whole grid.
  std::size_t block_points = 0;
};

/// Output sinks for the streaming runner; null sinks are skipped. Rows
/// are written in grid order as they leave the executor's window, so
/// memory stays bounded by the window (RunOptions::block_points).
struct StreamSinks {
  std::ostream* csv = nullptr;    ///< header + one line per point
  std::ostream* jsonl = nullptr;  ///< one compact JSON object per point
};

/// A completed run.
struct RunResult {
  /// The owned points' configurations in grid order: the whole grid
  /// unless RunOptions shards it.
  std::vector<core::MmsConfig> grid;
  std::vector<PointResult> points;  ///< same order as `grid`
  RunStats stats;
};

/// Run the scenario and keep every point in memory. Throws
/// InvalidArgument on inconsistent inputs (e.g. validation indices
/// outside the grid); individual point failures are captured in
/// PointResult::model.error, never thrown.
///
/// Both runners are one executor. The caller and the pool's threads
/// claim tasks in grid order through a window (RunOptions::block_points):
/// a task is one point, or a whole row when warm starting, and simulates
/// each validation target after its solve. A row is one run of the
/// fastest-varying axis. Warm starting (scenario solver.warm_start or
/// RunOptions::warm_start) solves each row left to right and seeds each
/// solve from a linear extrapolation of the two previous solutions
/// (qn/hints.hpp). Chains never cross rows, so every point's hint — and
/// therefore its bytes — is a pure function of the scenario, whatever
/// the worker count or shard split. Warm main solves bypass the cache (a
/// cached value must not depend on which row computed it first); the
/// hint-free ideal-system solves behind tolerance indices still share it.
[[nodiscard]] RunResult run_scenario(const Scenario& scenario,
                                     const RunOptions& options = {});

/// Streaming variant for large sweeps: the same executor, writing each
/// point to the sinks as it leaves the window in grid order, so at most
/// the window's results are held in memory. For the same
/// scenario and build the emitted bytes equal write_results_csv over
/// run_scenario — regardless of worker count — and the shards of an i/n
/// split concatenate (round-robin by row) to the single-process output.
[[nodiscard]] RunStats run_scenario_stream(const Scenario& scenario,
                                           const RunOptions& options,
                                           const StreamSinks& sinks);

/// The exit code of a run (DESIGN.md §7): 3 when every owned point
/// failed, 1 when some point failed or is degraded, 0 when all are clean.
[[nodiscard]] int run_exit_code(const RunStats& stats);

/// Throws a failed point's recorded error as the exception its solve
/// raised, with the same what(): qn::SolverError with its code,
/// InvalidArgument for a rejected configuration, std::runtime_error for
/// the rest. A caller that stops at the first failed point (`latol
/// sweep`) thus keeps the exit code of a direct solve. Requires
/// point.model.error.
[[noreturn]] void rethrow_point_error(const PointResult& point);

/// Write the result rows as CSV (header = scenario.output_columns()).
/// Cells use the same formatting as the bench CSVs, so a scenario that
/// mirrors a bench reproduces its file byte-for-byte.
void write_results_csv(const Scenario& scenario, const RunResult& run,
                       std::ostream& out);

/// Result rows as a JSON document: {"scenario", "columns", "rows": [...]}
/// with one object per grid point (numbers as numbers, flags as bools).
[[nodiscard]] io::Json results_to_json(const Scenario& scenario,
                                       const RunResult& run);

/// The run manifest: scenario identity (name, content hash), build
/// version, seed, wall time, grid/cache accounting, per-solver
/// provenance counts, axis metadata (parameter names + point count per
/// axis, so shard-merge validation never re-parses the scenario), grid
/// geometry, and the shard/warm sections.
[[nodiscard]] io::Json manifest_to_json(const Scenario& scenario,
                                        const RunResult& run);

/// Manifest from bare stats — what the streaming runner returns (it never
/// materializes a RunResult).
[[nodiscard]] io::Json manifest_to_json(const Scenario& scenario,
                                        const RunStats& stats);

/// The metrics document ("latol-metrics-v1", DESIGN.md §9): per-point
/// solver diagnostics (iterations, residual + history length, invariant
/// checks, cache hit), cache accounting, stage timings, warnings, and —
/// when `registry` is non-null — a snapshot of its counters/gauges/timers.
/// Unlike the result rows this document varies run-to-run (timings).
[[nodiscard]] io::Json metrics_to_json(const Scenario& scenario,
                                       const RunResult& run,
                                       const obs::Snapshot* registry = nullptr);

/// Set one point's solver diagnostics on `point`: the keys every metrics
/// document (`latol analyze`, `sweep`, `run`, `profile`) shares per point,
/// in this order: solver ("error" when `failed`), converged, degraded,
/// iterations, residual, residual_history_length, littles_law_error,
/// flow_balance_error.
void set_point_diagnostics(io::Json& point, const core::MmsPerformance& perf,
                           bool failed, bool degraded);

/// Render a registry snapshot as {"counters": {...}, "gauges": {...},
/// "timers": {name: {"seconds", "count"}}} (slot-creation order).
[[nodiscard]] io::Json snapshot_to_json(const obs::Snapshot& snapshot);

/// Version string baked at configure time (`git describe --always
/// --dirty`), "unknown" outside a git checkout. Stamps manifests and
/// gates persistent cache reuse.
[[nodiscard]] std::string build_version();

}  // namespace latol::exp
