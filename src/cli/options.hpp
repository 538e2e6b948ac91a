// Command-line interface of the `latol` tool.
//
// The parser and the command implementations live in a library so they
// can be unit-tested without spawning processes; `main.cpp` only forwards
// argv and prints errors.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/mms_config.hpp"
#include "core/mms_model.hpp"
#include "qn/mva_approx.hpp"

namespace latol::cli {

/// Parsed invocation.
struct CliOptions {
  /// analyze | tolerance | bottleneck | sweep | simulate | run | profile |
  /// serve | help
  std::string command = "help";
  core::MmsConfig config = core::MmsConfig::paper_defaults();

  /// Solver knobs (--max-iterations); the commands degrade through the
  /// fallback chain when the budget is too small, and warn.
  qn::AmvaOptions amva{};
  /// --solver amva|linearizer|fesc: analytical machinery for `analyze`
  /// (fesc = hierarchical decomposition, symmetric configs only).
  /// Scenario files select theirs via solver.method.
  core::SolveMethod method = core::SolveMethod::kAmva;

  // --- sweep ---
  /// --param X: an axis row of exp::config_fields(), by name or alias
  /// (`latol help` lists them).
  std::string sweep_param = "p_remote";
  double sweep_from = 0.0;
  double sweep_to = 0.8;
  int sweep_steps = 9;

  // --- simulate ---
  double sim_time = 100000.0;
  std::uint64_t seed = 1;
  bool use_petri = false;  ///< STPN instead of the direct event simulator
  /// --reps N: independent replications (seeds seed..seed+N-1) run in
  /// parallel with deterministic early stopping (DESIGN.md §13).
  std::size_t reps = 1;
  std::size_t min_reps = 2;  ///< --min-reps: floor before early stopping
  /// --ci-rel X: stop once the 95% CI half-width of U_p is within X of
  /// the mean (0 = run all --reps).
  double ci_rel = 0.0;

  // --- instrumentation (analyze/sweep/run/profile; DESIGN.md §9, §14) ---
  std::string trace_path;    ///< --trace FILE: convergence traces as JSON
  std::string metrics_path;  ///< --metrics-out FILE: metrics document
  /// --trace-out FILE: span trace as Chrome trace_event JSON (loadable in
  /// chrome://tracing / Perfetto; analyze/sweep/run/simulate/serve).
  std::string trace_out_path;

  // --- profile --diff ---
  bool profile_diff = false;  ///< --diff: compare two metrics documents
  /// The two positional metrics JSON paths when --diff is given (A, B);
  /// without --diff the single positional is `scenario_path`.
  std::vector<std::string> profile_inputs;

  // --- run/profile (scenario batch) ---
  std::string scenario_path;       ///< positional `latol run <scenario.json>`
  std::string out_dir = ".";       ///< --out DIR
  std::string run_format = "both"; ///< --format json|csv|both|jsonl
  std::size_t run_workers = 0;  ///< --workers/--jobs N (0 = scenario/shared)
  bool run_cache = true;           ///< --no-cache disables persistence
  std::string cache_path;          ///< --cache FILE (default <out>/latol_cache.json)
  /// --point-timeout MS: per-point wall-clock budget for `run`; a point
  /// exceeding it is marked failed with error deadline-exceeded and
  /// counted in the manifest's deadline_points (0 = no budget).
  double point_timeout_ms = 0.0;
  /// --stream: bounded-memory execution (large sweeps). Forced on by
  /// --shard.
  bool run_stream = false;
  /// --warm-start: chain extrapolated solver seeds along each grid row
  /// (DESIGN.md §15).
  bool warm_start = false;
  /// --shard I/N: solve only rows r with r % N == I (deterministic split
  /// across worker processes; scripts/merge_shards.py reassembles).
  /// Implies --stream. Defaults to the whole grid (0/1).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  // --- serve ---
  std::string serve_config_path;  ///< positional `latol serve <config.json>`
};

/// Parse `args` (argv[1:]). Throws latol::InvalidArgument with a
/// user-facing message on unknown flags or malformed values.
[[nodiscard]] CliOptions parse_command_line(
    const std::vector<std::string>& args);

/// Execute the parsed command, writing the report to `out`. Returns the
/// process exit code: 0 on a clean result, 1 when the result is degraded
/// (a fallback solver answered or the solve did not converge), 2 for an
/// unknown command. Throws on invalid input or solver failure — cli_main
/// maps those to exit codes 2 and 3.
int run_command(const CliOptions& options, std::ostream& out);

/// Full CLI entry point used by main(): parse, run, and map errors to the
/// documented exit codes (0 ok, 1 degraded, 2 usage error, 3 solve
/// failed). Never throws.
int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

/// The help text (also printed by `latol help`).
[[nodiscard]] std::string usage();

}  // namespace latol::cli
