#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "core/tolerance.hpp"
#include "exp/parameter.hpp"
#include "obs/span.hpp"
#include "qn/robust.hpp"
#include "sim/mms_des.hpp"
#include "sim/mms_petri.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#ifndef LATOL_GIT_DESCRIBE
#define LATOL_GIT_DESCRIBE "unknown"
#endif

namespace latol::exp {

namespace {

/// Per-row warm-start state: the two most recent solutions of the chain
/// plus the extrapolated hint built from them (kept here so its storage
/// is reused across the row instead of reallocated per point).
struct WarmChain {
  qn::MvaSolution prev1;  // most recent
  qn::MvaSolution prev2;
  qn::MvaSolution hint;
  bool has1 = false;
  bool has2 = false;
  std::size_t solves = 0;  ///< main analyze() calls executed
  std::size_t hinted = 0;  ///< of those, seeded from a prior

  void reset() { has1 = has2 = false; }
};

/// The hint for the next point of a row: the linear extrapolation
/// q = max(0, 2*q1 - q2) of the two previous queue vectors, falling back
/// to the previous solution alone when only one exists (or when the
/// network shape changed along the row — the kernel would reject a
/// mismatched seed anyway). Extrapolating roughly doubles the iteration
/// savings of a plain previous-point seed on fig04-style axes
/// (docs/PERFORMANCE.md §7).
const qn::MvaSolution* chain_hint(WarmChain& chain) {
  if (!chain.has1) return nullptr;
  if (!chain.has2) return &chain.prev1;
  const util::Matrix& q1 = chain.prev1.queue_length;
  const util::Matrix& q2 = chain.prev2.queue_length;
  if (q1.rows() != q2.rows() || q1.cols() != q2.cols()) return &chain.prev1;
  chain.hint = chain.prev1;
  util::Matrix& q = chain.hint.queue_length;
  for (std::size_t c = 0; c < q.rows(); ++c) {
    for (std::size_t m = 0; m < q.cols(); ++m) {
      q(c, m) = std::max(0.0, 2.0 * q1(c, m) - q2(c, m));
    }
  }
  return &chain.hint;
}

/// Solve one grid point through the cache. Mirrors core::sweep's failure
/// isolation and tolerance_index's math exactly — same numbers, but the
/// ideal-system solve is shared across every point with the same ideal.
///
/// Deadlines: each point gets a child token chained to the run-wide one,
/// armed with the per-point budget when configured. The token is not part
/// of the cache key, so a timed-out point and a later retry still share
/// (and coalesce onto) the same cache entry.
///
/// Warm starting: with a non-null `chain`, the main solve bypasses the
/// cache — core::analyze seeded from the chain's extrapolated hint, the
/// accepted solution fed back into the chain. The cached value of a
/// configuration must never depend on which row's hint reached it first,
/// so hinted solves and the cache are mutually exclusive by construction;
/// the hint-free ideal-system solves still go through the cache. A failed
/// point resets the chain (the next point starts cold — deterministic,
/// since failures are).
void compute_point(const core::MmsConfig& cfg, const Scenario& scenario,
                   SolveCache& cache, const RunOptions& run_options,
                   PointResult& point, WarmChain* chain) {
  util::CancelToken point_token(run_options.cancel);
  qn::AmvaOptions amva = scenario.amva;
  if (run_options.cancel != nullptr || run_options.point_timeout_ms > 0.0) {
    if (run_options.point_timeout_ms > 0.0) {
      point_token.set_deadline_after(run_options.point_timeout_ms / 1000.0);
    }
    amva.cancel = &point_token;
  }
  core::SweepResult& r = point.model;
  try {
    // A point whose deadline fired while it sat in the queue never starts
    // a solve — the driving loop must not wedge behind dead work.
    if (amva.cancel != nullptr && amva.cancel->expired()) {
      throw qn::SolverError(qn::SolverErrorCode::kDeadlineExceeded,
                            "point deadline expired before solve started");
    }
    if (chain != nullptr) {
      const qn::MvaSolution* prior = chain_hint(*chain);
      core::AnalysisOptions opts;
      opts.amva = amva;
      opts.method = scenario.method;
      opts.hints.prior = prior;
      qn::MvaSolution solution;
      opts.solution_out = &solution;
      ++chain->solves;
      if (prior != nullptr) ++chain->hinted;
      r.perf = core::analyze(cfg, opts);
      chain->prev2 = std::move(chain->prev1);
      chain->prev1 = std::move(solution);
      chain->has2 = chain->has1;
      chain->has1 = true;
    } else {
      r.perf = cache.analyze(cfg, amva, &point.cache_hit, scenario.method);
    }
    if (scenario.network_tolerance) {
      const core::MmsPerformance ideal = cache.analyze(
          core::ideal_config(cfg, core::Subsystem::kNetwork,
                             scenario.network_method),
          amva, nullptr, scenario.method);
      LATOL_REQUIRE(ideal.processor_utilization > 0.0,
                    "ideal system has zero processor utilization");
      r.tol_network =
          r.perf.processor_utilization / ideal.processor_utilization;
      point.ideal_degraded |= ideal.degraded || !ideal.converged;
    }
    if (scenario.memory_tolerance) {
      const core::MmsPerformance ideal = cache.analyze(
          core::ideal_config(cfg, core::Subsystem::kMemory,
                             core::IdealMethod::kZeroDelay),
          amva, nullptr, scenario.method);
      LATOL_REQUIRE(ideal.processor_utilization > 0.0,
                    "ideal system has zero processor utilization");
      r.tol_memory =
          r.perf.processor_utilization / ideal.processor_utilization;
      point.ideal_degraded |= ideal.degraded || !ideal.converged;
    }
  } catch (const qn::SolverError& e) {
    r.error = e.what();
    r.error_code = e.code();
    if (chain != nullptr) chain->reset();
  } catch (const InvalidArgument& e) {
    r.error = e.what();
    r.error_code = qn::SolverErrorCode::kInvalidNetwork;
    if (chain != nullptr) chain->reset();
  } catch (const std::exception& e) {
    r.error = e.what();
    if (chain != nullptr) chain->reset();
  }
}

SimPoint simulate_point(const core::MmsConfig& cfg,
                        const ValidationSpec& spec, std::size_t index) {
  SimPoint sp;
  sp.engine = spec.engine;
  sp.seed = spec.seed + index;  // distinct, reproducible stream per point
  sp.sim_time = spec.sim_time;
  if (spec.engine == "petri") {
    const sim::PetriMmsResult r =
        sim::simulate_mms_petri(cfg, spec.sim_time, 0.1, sp.seed);
    sp.processor_utilization = r.processor_utilization;
    sp.message_rate = r.message_rate;
    sp.network_latency = r.network_latency;
    sp.memory_latency = r.memory_latency;
  } else {
    sim::SimulationConfig sc;
    sc.mms = cfg;
    sc.sim_time = spec.sim_time;
    sc.seed = sp.seed;
    const sim::SimulationResult r = sim::simulate_mms(sc);
    sp.processor_utilization = r.processor_utilization;
    sp.message_rate = r.message_rate;
    sp.network_latency = r.network_latency;
    sp.memory_latency = r.memory_latency;
    sp.open_latency = r.open_latency;
  }
  return sp;
}

/// Identical points in flight together coalesce onto whichever copy a
/// worker reached first. Hand the miss to the first copy in grid order
/// instead, so the per-point cache_hit flag does not depend on the
/// schedule. Only a run with both hits and misses can hold such a pair.
void order_cache_misses(const Scenario& scenario,
                        const std::vector<core::MmsConfig>& configs,
                        std::vector<PointResult>& points) {
  const auto hits = std::count_if(points.begin(), points.end(),
                                  [](const auto& p) { return p.cache_hit; });
  if (hits == 0 || hits == std::ssize(points)) return;
  std::unordered_map<std::string, std::size_t> first;  // key -> first copy
  for (std::size_t j = 0; j < points.size(); ++j) {
    const auto [it, fresh] = first.try_emplace(
        SolveCache::config_key(configs[j], scenario.amva, scenario.method), j);
    if (!fresh && !points[j].cache_hit) {
      std::swap(points[j].cache_hit, points[it->second].cache_hit);
    }
  }
}

/// Receives each owned point, in grid order, with its grid index. The
/// point's storage is the executor's; a sink may move from it.
using PointSink =
    std::function<void(std::size_t, core::MmsConfig&, PointResult&)>;

/// The one grid executor behind run_scenario and run_scenario_stream:
/// tasks over the rows this shard owns run through an ordered window
/// (util::ordered_for), so the run holds at most the window and `emit`
/// sees the points in grid order whatever the worker count.
RunStats execute(const Scenario& scenario, const RunOptions& options,
                 const PointSink& emit) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  const auto start = Clock::now();
  // The run span: per-point spans running on worker lanes link to it
  // explicitly by id (thread-local nesting cannot cross threads).
  obs::Span run_span("exp.run_scenario", "exp");
  const std::uint64_t run_span_id = run_span.id();

  LATOL_REQUIRE(options.shard_count >= 1, "shard_count must be >= 1");
  LATOL_REQUIRE(options.shard_index < options.shard_count,
                "shard_index " << options.shard_index << " outside 0.."
                               << options.shard_count - 1);
  RunStats st;
  st.grid_points = grid_size(scenario);
  st.row_length = scenario.axes.empty() ? 1 : scenario.axes.back().size();
  st.rows_total = st.grid_points / st.row_length;
  st.shard_index = options.shard_index;
  st.shard_count = options.shard_count;
  st.warm = options.warm_start || scenario.warm_start;
  const std::size_t workers =
      options.workers != 0 ? options.workers : scenario.workers;
  st.workers = workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency());

  // Validation targets, checked before anything solves.
  std::vector<std::size_t> targets;
  const bool validate_all =
      scenario.validation.has_value() && scenario.validation->points.empty();
  if (scenario.validation.has_value()) {
    targets = scenario.validation->points;
    for (const std::size_t i : targets) {
      LATOL_REQUIRE(i < st.grid_points,
                    "validation point " << i << " outside the grid (size "
                                        << st.grid_points << ")");
    }
    std::sort(targets.begin(), targets.end());
  }

  SolveCache transient;
  // Without a caller's cache, a bounded transient one still coalesces
  // duplicate points and shared ideal solves; unbounded, it would hold
  // every result of a million-point grid and defeat the window memory
  // bound. Far-apart duplicates may re-solve after eviction —
  // deterministically, so the bytes cannot change. A caller-provided
  // cache is the caller's policy.
  if (options.cache == nullptr) transient.set_capacity(1 << 14);
  SolveCache& cache = options.cache != nullptr ? *options.cache : transient;
  st.cache_preloaded = cache.size();
  const std::size_t hits_before = cache.hits();
  const std::size_t misses_before = cache.misses();
  const std::size_t evictions_before = cache.evictions();

  // This shard owns rows shard_index, shard_index + shard_count, ... —
  // the round-robin split the merge tool inverts.
  st.rows_owned = (st.rows_total + options.shard_count - 1 -
                   options.shard_index) / options.shard_count;
  st.unique_points = st.rows_owned * st.row_length;
  // A warm task is a whole row, solved left to right (hint chains never
  // cross rows); a cold task is one point. The participants are the
  // caller and the pool's threads, at most one per task; the window holds
  // one task more, or block_points points, but never more than all tasks.
  const std::size_t task_points = st.warm ? st.row_length : 1;
  const std::size_t tasks = st.unique_points / task_points;
  const std::size_t participants =
      std::clamp<std::size_t>(tasks, 1, st.workers + 1);
  const std::size_t block_points =
      options.block_points != 0 ? options.block_points : 4096;
  const std::size_t window = std::min(
      std::max(participants + 1,
               (block_points + task_points - 1) / task_points),
      std::max<std::size_t>(tasks, 1));
  const auto grid_index = [&](std::size_t j) {  // j: owned-point ordinal
    return (j / st.row_length * options.shard_count + options.shard_index) *
               st.row_length + j % st.row_length;
  };
  st.expand_seconds = elapsed(start);
  obs::time_add("exp.stage.expand", st.expand_seconds);

  std::map<std::string, std::size_t> counts;
  std::atomic<std::size_t> hinted = 0;
  std::atomic<std::size_t> warm_solves = 0;
  std::atomic<double> simulated_seconds = 0;  // summed over the threads
  const auto loop_start = Clock::now();
  {
    std::optional<util::ThreadPool> own_pool;
    util::ThreadPool& pool = workers != 0 ? own_pool.emplace(workers)
                                          : util::ThreadPool::shared();
    // Task t keeps its points in slot t % window, task_points long;
    // emission resets each point, freeing what it held.
    std::vector<core::MmsConfig> configs(window * task_points);
    std::vector<PointResult> points(window * task_points);
    const auto run_task = [&](std::size_t t) {
      const std::size_t slot = t % window * task_points;
      WarmChain chain;
      for (std::size_t k = 0; k < task_points; ++k) {
        const std::size_t i = grid_index(t * task_points + k);
        core::MmsConfig& cfg = configs[slot + k];
        PointResult& point = points[slot + k];
        {
          obs::Span point_span("exp.point", "exp", run_span_id);
          point_span.arg("index", static_cast<double>(i));
          const auto t_point = Clock::now();
          cfg = config_at(scenario, i);
          compute_point(cfg, scenario, cache, options, point,
                        st.warm ? &chain : nullptr);
          obs::observe("exp.point.latency_seconds", elapsed(t_point));
          point_span.arg("cache_hit", point.cache_hit ? 1.0 : 0.0);
        }
        // Simulator validation of a target, skipping a point whose model
        // solve already failed (the simulator would reject it too).
        if (point.model.error ||
            (!validate_all &&
             !std::binary_search(targets.begin(), targets.end(), i))) {
          continue;
        }
        const auto validate_start = Clock::now();
        // Simulations are not iterative solvers, so the run-wide token is
        // honoured between points: once it fires, remaining targets are
        // marked instead of simulated.
        if (options.cancel != nullptr && options.cancel->expired()) {
          point.model.error =
              "validation: deadline expired before simulation started";
          point.model.error_code = qn::SolverErrorCode::kDeadlineExceeded;
        } else {
          obs::Span sim_span("exp.sim_point", "exp", run_span_id);
          sim_span.arg("index", static_cast<double>(i));
          try {
            point.sim = simulate_point(cfg, *scenario.validation, i);
          } catch (const std::exception& e) {
            point.model.error = std::string("validation: ") + e.what();
          }
        }
        simulated_seconds += elapsed(validate_start);
      }
      if (st.warm) {  // cold tasks skip the shared counters
        hinted += chain.hinted;
        warm_solves += chain.solves;
      }
    };
    // Ordered emission: points leave in grid order, so a shard's output
    // is deterministic whatever the worker count, and shards interleave
    // back to the single-process bytes.
    const auto emit_task = [&](std::size_t t) {
      const std::size_t slot = t % window * task_points;
      for (std::size_t k = 0; k < task_points; ++k) {
        PointResult& p = points[slot + k];
        if (p.model.error) {
          ++st.failed_points;
          if (p.model.error_code == qn::SolverErrorCode::kDeadlineExceeded) {
            ++st.deadline_points;
          }
          ++counts["error"];
        } else {
          if (!p.model.healthy() || p.ideal_degraded) ++st.degraded_points;
          ++counts[qn::solver_kind_name(p.model.perf.solver)];
          st.total_iterations +=
              static_cast<std::size_t>(p.model.perf.solver_iterations);
          if (p.sim.has_value()) ++st.simulated_points;
        }
        emit(grid_index(t * task_points + k), configs[slot + k], p);
        p = {};
      }
    };
    util::ordered_for(pool, tasks, window, run_task, emit_task);
  }
  // Validation overlaps the solves: its stage time is its thread share.
  st.validate_seconds = simulated_seconds / static_cast<double>(participants);
  st.solve_seconds = elapsed(loop_start) - st.validate_seconds;
  obs::time_add("exp.stage.solve", st.solve_seconds);
  if (scenario.validation.has_value()) {
    obs::time_add("exp.stage.validate", st.validate_seconds);
  }

  st.warm_points = hinted;
  st.solves = (cache.misses() - misses_before) + warm_solves;
  st.cache_hits = cache.hits() - hits_before;
  st.cache_evictions = cache.evictions() - evictions_before;
  st.solver_counts.assign(counts.begin(), counts.end());
  if (st.warm) {
    obs::count("exp.warm.hinted_points", st.warm_points);
    obs::count("exp.warm.iterations", st.total_iterations);
  }
  st.wall_seconds = elapsed(start);
  run_span.arg("grid_points", static_cast<double>(st.grid_points));
  run_span.arg("rows_owned", static_cast<double>(st.rows_owned));
  return st;
}

// --- output --------------------------------------------------------------

/// One output cell, format-agnostic; CSV and JSON render it differently
/// but from the same value.
struct Cell {
  enum class Kind { kNumber, kFlag, kText, kMissing };
  Kind kind = Kind::kMissing;
  double number = 0;
  bool flag = false;
  std::string text;

  static Cell num(double v) { return {Kind::kNumber, v, false, {}}; }
  static Cell boolean(bool b) { return {Kind::kFlag, 0, b, {}}; }
  static Cell str(std::string s) {
    return {Kind::kText, 0, false, std::move(s)};
  }
  static Cell missing() { return {}; }
};

Cell cell_value(const std::string& column, const core::MmsConfig& cfg,
                const PointResult& p) {
  if (const ConfigField* field = find_axis(column)) {
    return Cell::num(field->get(cfg));
  }
  const core::MmsPerformance& perf = p.model.perf;
  if (const Measure* m = find_measure(column)) {
    return Cell::num(perf.*m->member);
  }
  if (column == "iterations") {
    return Cell::num(static_cast<double>(perf.solver_iterations));
  }
  if (column == "tol_network") {
    return Cell::num(p.model.tol_network.value_or(0.0));
  }
  if (column == "tol_memory") {
    return Cell::num(p.model.tol_memory.value_or(0.0));
  }
  const auto zone = [](const std::optional<double>& index) {
    return index ? Cell::str(core::zone_name(core::classify_tolerance(*index)))
                 : Cell::missing();
  };
  if (column == "zone_network") return zone(p.model.tol_network);
  if (column == "zone_memory") return zone(p.model.tol_memory);
  if (column == "solver") {
    return Cell::str(p.model.error ? "error"
                                   : qn::solver_kind_name(perf.solver));
  }
  if (column == "converged") {
    return Cell::boolean(
        qn::solve_converged(p.model.error.has_value(), perf.converged));
  }
  if (column == "error") {
    return p.model.error ? Cell::str(*p.model.error) : Cell::missing();
  }
  static constexpr std::pair<const char*, double SimPoint::*> kSim[] = {
      {"sim_U_p", &SimPoint::processor_utilization},
      {"sim_lambda_net", &SimPoint::message_rate},
      {"sim_S_obs", &SimPoint::network_latency},
      {"sim_L_obs", &SimPoint::memory_latency},
      {"sim_open_latency", &SimPoint::open_latency}};
  for (const auto& [name, member] : kSim) {
    if (column != name) continue;
    return p.sim ? Cell::num((*p.sim).*member) : Cell::missing();
  }
  throw InvalidArgument("unknown column `" + column + "`");
}

/// RFC 4180 quoting; bench-compatible cells (plain numbers, solver names)
/// pass through unchanged.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string csv_render(const Cell& cell) {
  switch (cell.kind) {
    case Cell::Kind::kNumber:
      return util::csv_number(cell.number);
    case Cell::Kind::kFlag:
      return cell.flag ? "1" : "0";
    case Cell::Kind::kText:
      return csv_escape(cell.text);
    case Cell::Kind::kMissing:
      return "";
  }
  return "";
}

io::Json json_render(const Cell& cell) {
  switch (cell.kind) {
    case Cell::Kind::kNumber:
      return io::Json(cell.number);
    case Cell::Kind::kFlag:
      return io::Json(cell.flag);
    case Cell::Kind::kText:
      return io::Json(cell.text);
    case Cell::Kind::kMissing:
      return io::Json(nullptr);
  }
  return io::Json(nullptr);
}

/// The CSV header line: one cell per output column.
void write_csv_header(const std::vector<std::string>& columns,
                      std::ostream& out) {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) out << ',';
    out << csv_escape(columns[c]);
  }
  out << '\n';
}

/// One point's CSV line.
void write_csv_row(const std::vector<std::string>& columns,
                   const core::MmsConfig& cfg, const PointResult& p,
                   std::ostream& out) {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) out << ',';
    out << csv_render(cell_value(columns[c], cfg, p));
  }
  out << '\n';
}

/// One point's cells as members of the JSON object `row`.
void set_json_cells(io::Json& row, const std::vector<std::string>& columns,
                    const core::MmsConfig& cfg, const PointResult& p) {
  for (const std::string& column : columns) {
    row.set(column, json_render(cell_value(column, cfg, p)));
  }
}

std::string hash_hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

RunResult run_scenario(const Scenario& scenario, const RunOptions& options) {
  RunResult run;
  run.stats = execute(
      scenario, options,
      [&](std::size_t, core::MmsConfig& cfg, PointResult& point) {
        run.grid.push_back(std::move(cfg));
        run.points.push_back(std::move(point));
      });
  order_cache_misses(scenario, run.grid, run.points);
  return run;
}

RunStats run_scenario_stream(const Scenario& scenario,
                             const RunOptions& options,
                             const StreamSinks& sinks) {
  const std::vector<std::string> columns = scenario.output_columns();
  if (sinks.csv != nullptr) write_csv_header(columns, *sinks.csv);
  const RunStats st = execute(
      scenario, options,
      [&](std::size_t index, core::MmsConfig& cfg, PointResult& point) {
        if (sinks.csv != nullptr) {
          write_csv_row(columns, cfg, point, *sinks.csv);
        }
        if (sinks.jsonl != nullptr) {
          io::Json row = io::Json::object();
          row.set("index", static_cast<double>(index));
          set_json_cells(row, columns, cfg, point);
          *sinks.jsonl << row.dump() << '\n';
        }
      });
  if (sinks.csv != nullptr) sinks.csv->flush();
  if (sinks.jsonl != nullptr) sinks.jsonl->flush();
  return st;
}

int run_exit_code(const RunStats& stats) {
  if (stats.unique_points > 0 && stats.failed_points == stats.unique_points) {
    return 3;
  }
  return stats.failed_points > 0 || stats.degraded_points > 0 ? 1 : 0;
}

void rethrow_point_error(const PointResult& point) {
  const core::SweepResult& r = point.model;
  LATOL_REQUIRE(r.error.has_value(), "the point did not fail");
  if (!r.error_code) throw std::runtime_error(*r.error);
  // compute_point keeps a SolverError's what(), "<code name>: <message>",
  // and records an InvalidArgument as kInvalidNetwork without the prefix.
  const qn::SolverErrorCode code = *r.error_code;
  const std::string prefix = std::string(qn::solver_error_name(code)) + ": ";
  if (r.error->starts_with(prefix)) {
    throw qn::SolverError(code, r.error->substr(prefix.size()));
  }
  if (code == qn::SolverErrorCode::kInvalidNetwork) {
    throw InvalidArgument(*r.error);
  }
  throw qn::SolverError(code, *r.error);
}

void write_results_csv(const Scenario& scenario, const RunResult& run,
                       std::ostream& out) {
  const std::vector<std::string> columns = scenario.output_columns();
  write_csv_header(columns, out);
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    write_csv_row(columns, run.grid[i], run.points[i], out);
  }
}

io::Json results_to_json(const Scenario& scenario, const RunResult& run) {
  const std::vector<std::string> columns = scenario.output_columns();
  io::Json rows = io::Json::array();
  io::Json errors = io::Json::array();
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    io::Json row = io::Json::object();
    set_json_cells(row, columns, run.grid[i], run.points[i]);
    rows.push_back(std::move(row));
    const core::SweepResult& m = run.points[i].model;
    if (m.error) {
      io::Json err = io::Json::object();
      err.set("point", static_cast<double>(i));
      err.set("message", *m.error);
      err.set("code", m.error_code
                          ? io::Json(qn::solver_error_name(*m.error_code))
                          : io::Json(nullptr));
      errors.push_back(std::move(err));
    }
  }
  io::Json doc = io::Json::object();
  doc.set("scenario", scenario.name);
  doc.set("scenario_hash", hash_hex(scenario.source_hash));
  io::Json cols = io::Json::array();
  for (const std::string& c : columns) cols.push_back(c);
  doc.set("columns", std::move(cols));
  doc.set("rows", std::move(rows));
  doc.set("errors", std::move(errors));
  return doc;
}
io::Json manifest_to_json(const Scenario& scenario, const RunResult& run) {
  return manifest_to_json(scenario, run.stats);
}

io::Json manifest_to_json(const Scenario& scenario, const RunStats& st) {
  io::Json doc = io::Json::object();
  doc.set("scenario", scenario.name);
  doc.set("scenario_hash", hash_hex(scenario.source_hash));
  doc.set("build", build_version());
  doc.set("grid_points", st.grid_points);
  doc.set("unique_points", st.unique_points);
  doc.set("solves", st.solves);
  doc.set("cache_hits", st.cache_hits);
  doc.set("cache_preloaded", st.cache_preloaded);
  doc.set("cache_evictions", st.cache_evictions);
  doc.set("degraded_points", st.degraded_points);
  doc.set("failed_points", st.failed_points);
  doc.set("deadline_points", st.deadline_points);
  doc.set("simulated_points", st.simulated_points);
  doc.set("workers", st.workers);
  doc.set("wall_seconds", st.wall_seconds);
  // Axis metadata: enough for shard-merge validation (point count per
  // axis, hence grid geometry) without re-parsing the scenario file.
  io::Json axes = io::Json::array();
  for (const Axis& axis : scenario.axes) {
    io::Json a = io::Json::object();
    io::Json params = io::Json::array();
    for (const AxisComponent& comp : axis.components) {
      params.push_back(comp.field->name);
    }
    a.set("params", std::move(params));
    a.set("points", axis.size());
    axes.push_back(std::move(a));
  }
  doc.set("axes", std::move(axes));
  const std::size_t row_length =
      scenario.axes.empty() ? 1 : scenario.axes.back().size();
  io::Json grid = io::Json::object();
  grid.set("total_points", grid_size(scenario));
  grid.set("row_length", row_length);
  grid.set("rows_total", grid_size(scenario) / row_length);
  doc.set("grid", std::move(grid));
  io::Json shard = io::Json::object();
  shard.set("index", st.shard_index);
  shard.set("count", st.shard_count);
  shard.set("rows_owned", st.rows_owned);
  doc.set("shard", std::move(shard));
  io::Json warm = io::Json::object();
  warm.set("enabled", st.warm);
  warm.set("hinted_points", st.warm_points);
  warm.set("total_iterations", st.total_iterations);
  doc.set("warm", std::move(warm));
  io::Json stages = io::Json::object();
  stages.set("expand_seconds", st.expand_seconds);
  stages.set("solve_seconds", st.solve_seconds);
  stages.set("validate_seconds", st.validate_seconds);
  doc.set("stages", std::move(stages));
  io::Json counts = io::Json::object();
  for (const auto& [name, n] : st.solver_counts) counts.set(name, n);
  doc.set("solver_provenance", std::move(counts));
  if (scenario.validation.has_value()) {
    io::Json v = io::Json::object();
    v.set("engine", scenario.validation->engine);
    v.set("time", scenario.validation->sim_time);
    v.set("seed", static_cast<double>(scenario.validation->seed));
    doc.set("validation", std::move(v));
  }
  return doc;
}

void set_point_diagnostics(io::Json& point, const core::MmsPerformance& perf,
                           bool failed, bool degraded) {
  point.set("solver", failed ? "error" : qn::solver_kind_name(perf.solver));
  point.set("converged", qn::solve_converged(failed, perf.converged));
  point.set("degraded", degraded);
  point.set("iterations", static_cast<double>(perf.solver_iterations));
  point.set("residual", perf.residual);
  point.set("residual_history_length",
            static_cast<double>(perf.residual_history.size()));
  point.set("littles_law_error", perf.littles_law_error);
  point.set("flow_balance_error", perf.flow_balance_error);
}

io::Json snapshot_to_json(const obs::Snapshot& snapshot) {
  io::Json doc = io::Json::object();
  io::Json counters = io::Json::object();
  for (const auto& c : snapshot.counters)
    counters.set(c.name, static_cast<double>(c.value));
  doc.set("counters", std::move(counters));
  io::Json gauges = io::Json::object();
  for (const auto& g : snapshot.gauges) gauges.set(g.name, g.value);
  doc.set("gauges", std::move(gauges));
  io::Json timers = io::Json::object();
  for (const auto& t : snapshot.timers) {
    io::Json entry = io::Json::object();
    entry.set("seconds", t.seconds);
    entry.set("count", static_cast<double>(t.count));
    timers.set(t.name, std::move(entry));
  }
  doc.set("timers", std::move(timers));
  io::Json histograms = io::Json::object();
  for (const auto& h : snapshot.histograms) {
    io::Json entry = io::Json::object();
    entry.set("count", static_cast<double>(h.count));
    entry.set("sum", h.sum);
    // Parallel arrays: `le[i]` is the inclusive upper bound of
    // `buckets[i]` in seconds; the final bucket (null bound) is overflow.
    io::Json le = io::Json::array();
    io::Json buckets = io::Json::array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const bool overflow = i >= obs::Histogram::kFiniteBuckets;
      le.push_back(overflow ? io::Json(nullptr)
                            : io::Json(obs::Histogram::upper_bound(i)));
      buckets.push_back(static_cast<double>(h.buckets[i]));
    }
    entry.set("le", std::move(le));
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

io::Json metrics_to_json(const Scenario& scenario, const RunResult& run,
                         const obs::Snapshot* registry) {
  const RunStats& st = run.stats;
  io::Json doc = io::Json::object();
  doc.set("format", "latol-metrics-v2");
  doc.set("scenario", scenario.name);
  doc.set("scenario_hash", hash_hex(scenario.source_hash));
  doc.set("build", build_version());

  io::Json stages = io::Json::object();
  stages.set("expand_seconds", st.expand_seconds);
  stages.set("solve_seconds", st.solve_seconds);
  stages.set("validate_seconds", st.validate_seconds);
  stages.set("wall_seconds", st.wall_seconds);
  doc.set("stages", std::move(stages));

  io::Json cache = io::Json::object();
  cache.set("hits", st.cache_hits);
  cache.set("misses", st.solves);
  cache.set("evictions", st.cache_evictions);
  cache.set("preloaded", st.cache_preloaded);
  doc.set("cache", std::move(cache));

  io::Json points = io::Json::array();
  io::Json warnings = io::Json::array();
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const PointResult& p = run.points[i];
    const core::MmsPerformance& perf = p.model.perf;
    const bool has_error = p.model.error.has_value();
    io::Json pt = io::Json::object();
    pt.set("index", static_cast<double>(i));
    set_point_diagnostics(pt, perf, has_error,
                          !has_error && (perf.degraded || p.ideal_degraded));
    pt.set("cache_hit", p.cache_hit);
    points.push_back(std::move(pt));

    const auto warn = [&](const std::string& message) {
      io::Json w = io::Json::object();
      w.set("point", static_cast<double>(i));
      w.set("message", message);
      warnings.push_back(std::move(w));
    };
    if (has_error) {
      warn("solve failed: " + *p.model.error);
    } else {
      if (perf.littles_law_error > qn::InvariantReport::kWarnThreshold) {
        warn("Little's law violated: relative error " +
             io::json_number(perf.littles_law_error));
      }
      if (perf.flow_balance_error > qn::InvariantReport::kWarnThreshold) {
        warn("flow balance violated: relative error " +
             io::json_number(perf.flow_balance_error));
      }
    }
  }
  doc.set("points", std::move(points));
  doc.set("warnings", std::move(warnings));
  if (registry != nullptr) doc.set("registry", snapshot_to_json(*registry));
  return doc;
}

std::string build_version() { return LATOL_GIT_DESCRIBE; }

}  // namespace latol::exp
