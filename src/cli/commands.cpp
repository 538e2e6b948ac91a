// Implementations of the `latol` CLI commands.
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "cli/serve_cmd.hpp"
#include "core/latol.hpp"
#include "exp/parameter.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "io/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/mms_des.hpp"
#include "sim/mms_petri.hpp"
#include "sim/replicate.hpp"
#include "util/table.hpp"

namespace latol::cli {

namespace {

/// True when the invocation asked for any instrumentation artifact — the
/// commands then opt into convergence tracing (and, for scenarios, the
/// metric registry), which is off by default to keep the reproduction
/// paths byte-identical and overhead-free.
bool wants_instrumentation(const CliOptions& opts) {
  return !opts.trace_path.empty() || !opts.metrics_path.empty();
}

/// Installs a metric registry as the process default for the lifetime of
/// the command, restoring whatever was there before (tests nest CLIs).
class ScopedRegistry {
 public:
  ScopedRegistry() : previous_(obs::set_default_registry(&registry_)) {}
  ~ScopedRegistry() { obs::set_default_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
  [[nodiscard]] obs::Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  obs::Registry registry_;
  obs::Registry* previous_;
};

/// Installs a span TraceSink as the process default for the lifetime of
/// the command (--trace-out; DESIGN.md §14). `write` must only run after
/// the command has returned — every recording thread is quiet by then
/// (worker pools have joined), which is what write_chrome_trace requires.
class ScopedTraceSink {
 public:
  ScopedTraceSink() : previous_(obs::set_default_trace_sink(&sink_)) {}
  ~ScopedTraceSink() { obs::set_default_trace_sink(previous_); }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

  void write(const std::string& path, std::ostream& out) {
    std::ofstream file(path);
    LATOL_REQUIRE(file.good(), "cannot open `" << path << "`");
    sink_.write_chrome_trace(file);
    out << "wrote span trace " << path << " (" << sink_.event_count()
        << " events)\n";
  }

 private:
  obs::TraceSink sink_;
  obs::TraceSink* previous_;
};

void write_json_artifact(const std::string& path, const io::Json& doc,
                         const char* what, std::ostream& out) {
  io::write_json_file(path, doc, 1);
  out << "wrote " << what << " " << path << '\n';
}

/// The `process` object of the run manifest and the metrics documents:
/// this process's own peak RSS so far.
io::Json process_json() {
  io::Json process = io::Json::object();
  process.set("peak_rss_kb", static_cast<double>(obs::peak_rss_kb()));
  return process;
}

/// One solve attempt (a link of the robust chain) as trace JSON.
io::Json attempt_to_json(const qn::SolveAttempt& attempt) {
  io::Json o = io::Json::object();
  o.set("solver", qn::solver_kind_name(attempt.solver));
  o.set("success", attempt.success);
  o.set("iterations", static_cast<double>(attempt.iterations));
  o.set("wall_seconds", attempt.wall_seconds);
  if (!attempt.detail.empty()) o.set("detail", attempt.detail);
  io::Json residuals = io::Json::array();
  for (const double d : attempt.trace.residuals()) residuals.push_back(d);
  o.set("residuals", std::move(residuals));
  o.set("recorded", static_cast<double>(attempt.trace.total_recorded()));
  o.set("truncated", attempt.trace.truncated());
  return o;
}

/// The --metrics-out / --trace artifacts of a scenario run (`run` and
/// `profile` share this; DESIGN.md §9 documents both formats).
void emit_scenario_instrumentation(const CliOptions& opts,
                                   const exp::Scenario& scenario,
                                   const exp::RunResult& run,
                                   const obs::Snapshot* snapshot,
                                   std::ostream& out) {
  if (!opts.metrics_path.empty()) {
    io::Json doc = exp::metrics_to_json(scenario, run, snapshot);
    doc.set("process", process_json());
    write_json_artifact(opts.metrics_path, doc, "metrics", out);
  }
  if (!opts.trace_path.empty()) {
    io::Json points = io::Json::array();
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      const exp::PointResult& p = run.points[i];
      if (p.model.error) continue;
      io::Json o = io::Json::object();
      o.set("point", static_cast<double>(i));
      o.set("solver", qn::solver_kind_name(p.model.perf.solver));
      io::Json residuals = io::Json::array();
      for (const double d : p.model.perf.residual_history)
        residuals.push_back(d);
      o.set("residuals", std::move(residuals));
      points.push_back(std::move(o));
    }
    io::Json doc = io::Json::object();
    doc.set("format", "latol-trace-v1");
    doc.set("scenario", scenario.name);
    doc.set("points", std::move(points));
    write_json_artifact(opts.trace_path, doc, "trace", out);
  }
}

/// Warn about a solve that did not come back clean; returns the exit code
/// contribution (1 = degraded, 0 = clean). `what` names the solve in the
/// warning line (e.g. "actual system").
int warn_if_degraded(const core::MmsPerformance& perf, const char* what,
                     std::ostream& out) {
  if (!perf.degraded && perf.converged) return 0;
  out << "warning: " << what << " result is degraded: answered by "
      << qn::solver_kind_name(perf.solver)
      << (perf.converged ? "" : " (not converged)") << ", residual "
      << perf.residual << '\n';
  return 1;
}

void print_machine(const core::MmsConfig& cfg, std::ostream& out) {
  out << "machine: " << topo::topology_kind_name(cfg.topology) << " k="
      << cfg.k << " (P=" << cfg.num_processors() << "), n_t="
      << cfg.threads_per_processor << ", R=" << cfg.runlength
      << ", C=" << cfg.context_switch << ", p_remote=" << cfg.p_remote
      << ", L=" << cfg.memory_latency << ", S=" << cfg.switch_delay;
  if (cfg.traffic.pattern == topo::AccessPattern::kGeometric) {
    out << ", geometric p_sw=" << cfg.traffic.p_sw;
  } else {
    out << ", uniform";
  }
  if (cfg.traffic.hotspot_node >= 0 && cfg.traffic.hotspot_fraction > 0.0) {
    out << ", hotspot node " << cfg.traffic.hotspot_node << " ("
        << cfg.traffic.hotspot_fraction * 100 << "%)";
  }
  if (cfg.open_arrival_rate > 0.0) {
    out << ", open arrivals " << cfg.open_arrival_rate << "/node";
  }
  out << "\n\n";
}

int cmd_analyze(const CliOptions& opts, std::ostream& out) {
  print_machine(opts.config, out);
  // The default AMVA path keeps the full robust-chain report for the
  // solver line and trace artifacts; the alternative methods report their
  // own provenance through MmsPerformance.
  std::optional<core::RobustAnalysis> robust;
  core::MmsPerformance solo;
  if (opts.method == core::SolveMethod::kAmva) {
    qn::RobustOptions ropts;
    ropts.amva = opts.amva;
    ropts.record_traces = wants_instrumentation(opts);
    robust = core::analyze_robust(opts.config, ropts);
  } else {
    core::AnalysisOptions aopts;
    aopts.amva = opts.amva;
    aopts.method = opts.method;
    solo = core::analyze(opts.config, aopts);
  }
  const core::MmsPerformance& perf = robust ? robust->perf : solo;
  const std::string solver_line =
      robust ? robust->report.summary()
             : std::string(qn::solver_kind_name(perf.solver)) +
                   (perf.converged ? " (converged)" : " (not converged)");
  out << "U_p (processor utilization) = " << perf.processor_utilization
      << '\n'
      << "lambda (access rate)        = " << perf.access_rate << '\n'
      << "lambda_net (message rate)   = " << perf.message_rate << '\n'
      << "S_obs (network latency)     = " << perf.network_latency << '\n'
      << "L_obs (memory latency)      = " << perf.memory_latency << '\n'
      << "memory utilization          = " << perf.memory_utilization << '\n'
      << "max switch utilization      = " << perf.switch_utilization << '\n'
      << "d_avg                       = " << perf.average_distance << '\n';
  if (opts.config.open_arrival_rate > 0.0) {
    out << "open request latency        = " << perf.open_latency << '\n'
        << "open utilization (max)      = " << perf.open_utilization << '\n';
  }
  out << "solver                      = " << solver_line << '\n';
  if (!opts.trace_path.empty()) {
    io::Json attempts = io::Json::array();
    if (robust) {
      for (const qn::SolveAttempt& a : robust->report.attempts)
        attempts.push_back(attempt_to_json(a));
    }
    io::Json doc = io::Json::object();
    doc.set("format", "latol-trace-v1");
    doc.set("command", "analyze");
    doc.set("attempts", std::move(attempts));
    write_json_artifact(opts.trace_path, doc, "trace", out);
  }
  if (!opts.metrics_path.empty()) {
    io::Json point = io::Json::object();
    exp::set_point_diagnostics(point, perf, false, perf.degraded);
    point.set("wall_seconds", robust ? robust->report.wall_seconds : 0.0);
    io::Json warnings = io::Json::array();
    if (robust) {
      for (const std::string& w : robust->report.invariants.warnings)
        warnings.push_back(w);
    }
    io::Json doc = io::Json::object();
    doc.set("format", "latol-metrics-v2");
    doc.set("command", "analyze");
    doc.set("build", exp::build_version());
    doc.set("point", std::move(point));
    doc.set("warnings", std::move(warnings));
    doc.set("process", process_json());
    write_json_artifact(opts.metrics_path, doc, "metrics", out);
  }
  return warn_if_degraded(perf, "analyze", out);
}

int cmd_tolerance(const CliOptions& opts, std::ostream& out) {
  print_machine(opts.config, out);
  // The network index solves the actual system; the memory index reuses it.
  const core::ToleranceResult net = core::tolerance_index(
      opts.config, core::Subsystem::kNetwork, opts.amva);
  const core::ToleranceResult mem = core::tolerance_index(
      opts.config, net.actual, core::Subsystem::kMemory,
      core::default_method(core::Subsystem::kMemory), opts.amva);
  out << "tol_network = " << net.index << " (" << core::zone_name(net.zone())
      << ")\n"
      << "tol_memory  = " << mem.index << " (" << core::zone_name(mem.zone())
      << ")\n"
      << "U_p = " << net.actual.processor_utilization
      << "  (ideal network: " << net.ideal.processor_utilization
      << ", ideal memory: " << mem.ideal.processor_utilization << ")\n";
  const core::Subsystem first = net.index < mem.index
                                    ? core::Subsystem::kNetwork
                                    : core::Subsystem::kMemory;
  out << "tune first: "
      << (first == core::Subsystem::kNetwork ? "network" : "memory")
      << " subsystem\n";
  int rc = warn_if_degraded(net.actual, "actual system", out);
  rc |= warn_if_degraded(net.ideal, "ideal network", out);
  rc |= warn_if_degraded(mem.ideal, "ideal memory", out);
  return rc;
}

int cmd_bottleneck(const CliOptions& opts, std::ostream& out) {
  print_machine(opts.config, out);
  const core::BottleneckAnalysis bn = core::bottleneck_analysis(opts.config);
  out << "d_avg                        = " << bn.d_avg << '\n'
      << "lambda_net saturation (Eq.4) = " << bn.lambda_net_sat << '\n'
      << "p_remote at saturation       = " << bn.p_remote_sat << '\n'
      << "critical p_remote (Eq.5)     = " << bn.p_remote_critical << '\n'
      << "unloaded one-way S_obs       = " << bn.unloaded_one_way << '\n'
      << "unloaded round trip          = " << bn.unloaded_round_trip << '\n'
      << "memory service rate          = " << bn.memory_service_rate << '\n';
  return 0;
}

int cmd_sweep(const CliOptions& opts, std::ostream& out) {
  print_machine(opts.config, out);
  LATOL_REQUIRE(opts.sweep_steps >= 1, "sweep needs >= 1 step");
  util::Table table({opts.sweep_param, "U_p", "S_obs", "L_obs", "lambda_net",
                     "tol_network", "zone", "solver"});

  // A one-axis scenario over the machine, solved by the grid executor
  // (--jobs; 0 = shared pool), so the table is byte-identical for every
  // worker count. An integral axis holds its grid values truncated (a
  // 1..8 sweep in 9 steps must still work), and its rows are labeled
  // with the values solved.
  exp::AxisComponent axis{
      &exp::axis_field(opts.sweep_param),
      exp::range_values(opts.sweep_from, opts.sweep_to, opts.sweep_steps)};
  if (axis.field->kind == exp::FieldKind::kInteger) {
    for (double& x : axis.values) x = std::trunc(x);
  }
  exp::Scenario scenario;
  scenario.name = "sweep";
  scenario.base = opts.config;
  scenario.axes.push_back(exp::Axis{{std::move(axis)}});
  scenario.network_tolerance = true;
  scenario.amva = opts.amva;
  scenario.amva.record_trace = wants_instrumentation(opts);
  // An invalid step is a usage error; the first in step order fails the
  // command before anything solves.
  const std::size_t steps = exp::grid_size(scenario);
  for (std::size_t s = 0; s < steps; ++s) {
    exp::config_at(scenario, s).validate();
  }
  exp::RunOptions ropts;
  ropts.workers = opts.run_workers;
  const exp::RunResult run = exp::run_scenario(scenario, ropts);
  // A step that failed to solve fails the command, the first in step
  // order, before anything is printed, with the exit code of its error.
  for (const exp::PointResult& p : run.points) {
    if (p.model.error) exp::rethrow_point_error(p);
  }

  io::Json metric_points = io::Json::array();
  io::Json trace_points = io::Json::array();
  int degraded = 0;
  const exp::ConfigField& field = *scenario.axes[0].components[0].field;
  for (std::size_t s = 0; s < steps; ++s) {
    const double x = field.get(run.grid[s]);
    const exp::PointResult& p = run.points[s];
    const core::MmsPerformance& actual = p.model.perf;
    const double index = *p.model.tol_network;
    // Shared health predicate (DESIGN.md §7/§9): a sweep point is clean
    // only when both the actual and the ideal solve are.
    const bool clean = p.model.healthy() && !p.ideal_degraded;
    if (!clean) ++degraded;
    std::string solver = qn::solver_kind_name(actual.solver);
    if (!clean) solver += " [degraded]";
    table.add_row({util::Table::num(x, 3),
                   util::Table::num(actual.processor_utilization, 4),
                   util::Table::num(actual.network_latency, 2),
                   util::Table::num(actual.memory_latency, 2),
                   util::Table::num(actual.message_rate, 4),
                   util::Table::num(index, 4),
                   core::zone_name(core::classify_tolerance(index)),
                   std::move(solver)});
    if (!opts.metrics_path.empty()) {
      io::Json point = io::Json::object();
      point.set("index", static_cast<double>(s));
      point.set(opts.sweep_param, x);
      exp::set_point_diagnostics(point, actual, false, !clean);
      metric_points.push_back(std::move(point));
    }
    if (!opts.trace_path.empty()) {
      io::Json point = io::Json::object();
      point.set("point", static_cast<double>(s));
      point.set(opts.sweep_param, x);
      point.set("solver", qn::solver_kind_name(actual.solver));
      io::Json residuals = io::Json::array();
      for (const double d : actual.residual_history)
        residuals.push_back(d);
      point.set("residuals", std::move(residuals));
      trace_points.push_back(std::move(point));
    }
  }
  table.print(out);
  if (!opts.metrics_path.empty()) {
    io::Json doc = io::Json::object();
    doc.set("format", "latol-metrics-v2");
    doc.set("command", "sweep");
    doc.set("build", exp::build_version());
    doc.set("points", std::move(metric_points));
    write_json_artifact(opts.metrics_path, doc, "metrics", out);
  }
  if (!opts.trace_path.empty()) {
    io::Json doc = io::Json::object();
    doc.set("format", "latol-trace-v1");
    doc.set("command", "sweep");
    doc.set("points", std::move(trace_points));
    write_json_artifact(opts.trace_path, doc, "trace", out);
  }
  if (degraded > 0) {
    out << "warning: " << degraded << " of " << opts.sweep_steps
        << " sweep points are degraded (fallback solver or not converged)\n";
    return 1;
  }
  return 0;
}

/// Replication-mode body of `latol simulate --reps N`: mean over the
/// accepted replication prefix, with the 95% CI half-width on U_p. The
/// accepted prefix — and therefore every byte below — is identical for
/// any --jobs value (DESIGN.md §13).
int simulate_replicated(const CliOptions& opts,
                        const core::MmsPerformance& model,
                        util::Table& table, std::ostream& out) {
  sim::ReplicationPlan plan;
  plan.min_reps = std::min(opts.min_reps, opts.reps);
  plan.max_reps = opts.reps;
  plan.target_rel_half_width = opts.ci_rel;
  plan.workers = opts.run_workers;
  auto row = [&](const std::string& name, double m, double s, int prec) {
    const double dev = m != 0.0 ? 100.0 * (s - m) / m : 0.0;
    table.add_row({name, util::Table::num(m, prec), util::Table::num(s, prec),
                   util::Table::num(dev, 1)});
  };
  auto header = [&](const char* kind, std::size_t used, double hw) {
    out << kind << ", " << opts.sim_time << " time units, " << used << " of "
        << opts.reps << " replications (seeds " << opts.seed << ".."
        << opts.seed + used - 1 << "), U_p half-width " << hw << '\n';
  };
  if (opts.use_petri) {
    const auto run = sim::replicate_mms_petri(opts.config, opts.sim_time,
                                              0.1, opts.seed, plan);
    header("stochastic Petri net", run.runs.size(), run.half_width_95);
    double lam = 0, s_obs = 0, l_obs = 0;
    for (const sim::PetriMmsResult& r : run.runs) {
      lam += r.message_rate;
      s_obs += r.network_latency;
      l_obs += r.memory_latency;
    }
    const double n = static_cast<double>(run.runs.size());
    row("U_p", model.processor_utilization, run.mean, 4);
    row("lambda_net", model.message_rate, lam / n, 5);
    row("S_obs", model.network_latency, s_obs / n, 2);
    row("L_obs", model.memory_latency, l_obs / n, 2);
  } else {
    sim::SimulationConfig sc;
    sc.mms = opts.config;
    sc.sim_time = opts.sim_time;
    sc.seed = opts.seed;
    const auto run = sim::replicate_mms(sc, plan);
    header("discrete-event simulation", run.runs.size(), run.half_width_95);
    double lam = 0, s_obs = 0, l_obs = 0, open_lat = 0;
    for (const sim::SimulationResult& r : run.runs) {
      lam += r.message_rate;
      s_obs += r.network_latency;
      l_obs += r.memory_latency;
      open_lat += r.open_latency;
    }
    const double n = static_cast<double>(run.runs.size());
    row("U_p", model.processor_utilization, run.mean, 4);
    row("lambda_net", model.message_rate, lam / n, 5);
    row("S_obs", model.network_latency, s_obs / n, 2);
    row("L_obs", model.memory_latency, l_obs / n, 2);
    if (opts.config.open_arrival_rate > 0.0) {
      row("open_latency", model.open_latency, open_lat / n, 2);
    }
  }
  table.print(out);
  return warn_if_degraded(model, "model", out);
}

int cmd_simulate(const CliOptions& opts, std::ostream& out) {
  print_machine(opts.config, out);
  const core::MmsPerformance model = core::analyze(opts.config, opts.amva);
  util::Table table({"measure", "model", "simulation", "dev%"});
  if (opts.reps > 1) return simulate_replicated(opts, model, table, out);
  auto row = [&](const std::string& name, double m, double s, int prec) {
    const double dev = m != 0.0 ? 100.0 * (s - m) / m : 0.0;
    table.add_row({name, util::Table::num(m, prec), util::Table::num(s, prec),
                   util::Table::num(dev, 1)});
  };
  if (opts.use_petri) {
    const sim::PetriMmsResult r =
        sim::simulate_mms_petri(opts.config, opts.sim_time, 0.1, opts.seed);
    out << "stochastic Petri net, " << opts.sim_time << " time units, "
        << r.total_firings << " firings\n";
    row("U_p", model.processor_utilization, r.processor_utilization, 4);
    row("lambda_net", model.message_rate, r.message_rate, 5);
    row("S_obs", model.network_latency, r.network_latency, 2);
    row("L_obs", model.memory_latency, r.memory_latency, 2);
  } else {
    sim::SimulationConfig sc;
    sc.mms = opts.config;
    sc.sim_time = opts.sim_time;
    sc.seed = opts.seed;
    const sim::SimulationResult r = sim::simulate_mms(sc);
    out << "discrete-event simulation, " << opts.sim_time
        << " time units, " << r.events << " events\n";
    row("U_p", model.processor_utilization, r.processor_utilization, 4);
    row("lambda_net", model.message_rate, r.message_rate, 5);
    row("S_obs", model.network_latency, r.network_latency, 2);
    row("L_obs", model.memory_latency, r.memory_latency, 2);
    if (opts.config.open_arrival_rate > 0.0) {
      row("open_latency", model.open_latency, r.open_latency, 2);
    }
  }
  table.print(out);
  return warn_if_degraded(model, "model", out);
}

/// The exit code of a scenario run (exp::run_exit_code) for `run` and
/// `profile`: warns on 1, and throws a solve failure (exit 3) when every
/// owned point failed.
int scenario_exit_code(const exp::RunStats& st, std::ostream& out) {
  const int rc = exp::run_exit_code(st);
  if (rc == 3) {
    throw qn::SolverError(qn::SolverErrorCode::kNumerical,
                          "every grid point failed to solve");
  }
  if (rc == 1) {
    out << "warning: " << st.degraded_points << " degraded, "
        << st.failed_points << " failed of " << st.unique_points
        << " points";
    if (st.deadline_points > 0) {
      out << " (" << st.deadline_points << " hit the point timeout)";
    }
    out << '\n';
  }
  return rc;
}

/// `latol run`: one pass of the grid executor. By default the results are
/// materialized, then written as CSV/JSON (and --trace/--metrics-out
/// artifacts); --stream and --shard stream CSV/JSONL rows in grid order
/// as they finish instead, with bounded memory (DESIGN.md §15).
int cmd_run(const CliOptions& opts, std::ostream& out) {
  LATOL_REQUIRE(!opts.scenario_path.empty(),
                "run needs a scenario file: latol run <scenario.json>");
  const bool stream = opts.run_stream || opts.shard_count > 1;
  // Instrumented runs record solver traces; the flag is part of the
  // solve-cache key, so traced and untraced runs never share entries and
  // the untraced cache file stays byte-stable.
  const bool instrumented = wants_instrumentation(opts);
  LATOL_REQUIRE(!stream || !instrumented,
                "streaming run (--stream/--shard) does not "
                "support --trace/--metrics-out (they need the materialized "
                "results); drop the flag or run without --stream");
  LATOL_REQUIRE(stream || opts.run_format != "jsonl",
                "--format jsonl needs the streaming runner; add --stream");
  exp::Scenario scenario = exp::load_scenario(opts.scenario_path);
  std::filesystem::create_directories(opts.out_dir);
  scenario.amva.record_trace = instrumented;
  std::optional<ScopedRegistry> registry;
  if (instrumented) registry.emplace();

  // One cache shard per worker (min 8); a saved cache of any layout loads
  // into any shard count (DESIGN.md §15.4).
  exp::SolveCache cache(opts.run_workers > 1 ? opts.run_workers : 8);
  const std::string version = exp::build_version();
  const std::string cache_path = opts.cache_path.empty()
                                     ? opts.out_dir + "/latol_cache.json"
                                     : opts.cache_path;
  if (opts.run_cache) {
    std::string cache_warning;
    cache.load(cache_path, version, &cache_warning);
    if (!cache_warning.empty()) out << "warning: " << cache_warning << '\n';
  }

  exp::RunOptions ropts;
  ropts.workers = opts.run_workers;
  // With --no-cache there is nothing to persist, so let the runner use
  // its bounded transient cache — an unbounded store would grow with the
  // point count and defeat the streaming memory bound.
  ropts.cache = opts.run_cache ? &cache : nullptr;
  ropts.point_timeout_ms = opts.point_timeout_ms;
  ropts.warm_start = opts.warm_start;
  ropts.shard_index = opts.shard_index;
  ropts.shard_count = opts.shard_count;

  // Shards write side-by-side artifacts (<name>.shard<i>of<n>.*) that
  // scripts/merge_shards.py reassembles into the single-process files.
  std::string base = opts.out_dir + "/" + scenario.name;
  if (opts.shard_count > 1) {
    base += ".shard" + std::to_string(opts.shard_index) + "of" +
            std::to_string(opts.shard_count);
  }
  // Streamed, the row-oriented JSON shape is JSONL; a monolithic .json
  // document would defeat the bounded-memory point.
  const bool want_csv =
      opts.run_format == "csv" || opts.run_format == "both";
  const bool want_json = opts.run_format != "csv";
  const std::string json_path = base + (stream ? ".jsonl" : ".json");
  std::ofstream csv;
  if (want_csv) {
    csv.open(base + ".csv");
    LATOL_REQUIRE(csv.good(), "cannot open `" << base << ".csv`");
  }
  std::optional<exp::RunResult> run;
  exp::RunStats st;
  if (stream) {
    std::ofstream jsonl;
    exp::StreamSinks sinks;
    if (want_csv) sinks.csv = &csv;
    if (want_json) {
      jsonl.open(json_path);
      LATOL_REQUIRE(jsonl.good(), "cannot open `" << json_path << "`");
      sinks.jsonl = &jsonl;
    }
    st = exp::run_scenario_stream(scenario, ropts, sinks);
  } else {
    run = exp::run_scenario(scenario, ropts);
    st = run->stats;
    if (want_csv) exp::write_results_csv(scenario, *run, csv);
    if (want_json) {
      io::write_json_file(json_path, exp::results_to_json(scenario, *run));
    }
  }
  if (want_csv) out << "wrote " << base << ".csv\n";
  if (want_json) out << "wrote " << json_path << '\n';
  io::Json manifest = exp::manifest_to_json(scenario, st);
  manifest.set("process", process_json());
  io::write_json_file(base + ".manifest.json", manifest);
  out << "wrote " << base << ".manifest.json\n";
  if (opts.run_cache) cache.save(cache_path, version);
  if (instrumented) {
    const obs::Snapshot snapshot = registry->snapshot();
    emit_scenario_instrumentation(opts, scenario, *run, &snapshot, out);
  }

  out << "scenario `" << scenario.name << "`: " << st.grid_points
      << " grid points, " << st.rows_owned << "/" << st.rows_total
      << " rows";
  if (st.shard_count > 1) {
    out << " (shard " << st.shard_index << "/" << st.shard_count << ")";
  }
  out << ", " << st.solves << " solves, " << st.cache_hits << " cache hits";
  if (st.cache_preloaded > 0) out << " (" << st.cache_preloaded << " preloaded)";
  out << ", " << st.workers << " workers, " << std::setprecision(3)
      << st.wall_seconds << " s\n";
  if (st.warm) {
    out << "warm start: " << st.warm_points << " of " << st.unique_points
        << " points hinted, " << st.total_iterations
        << " solver iterations total\n";
  }
  if (st.simulated_points > 0) {
    out << "validated " << st.simulated_points << " points with the "
        << scenario.validation->engine << " simulator\n";
  }
  if (run) {
    for (std::size_t i = 0; i < run->points.size(); ++i) {
      const exp::PointResult& p = run->points[i];
      if (p.model.error) {
        out << "[solve failed] point " << i << ": " << *p.model.error << '\n';
      }
    }
  }
  return scenario_exit_code(st, out);
}

/// Scientific notation for residuals/errors that span many decades (the
/// fixed-precision Table::num would render 8e-11 as 0.000).
std::string sci(double v) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(2) << v;
  return os.str();
}

/// Collect every numeric leaf of a metrics document as "dotted.path" ->
/// value. Arrays (points, warnings, histogram buckets) and strings
/// (format, build) are not scalar metrics and are skipped, so the walk
/// works for every latol-metrics version and for both the per-command
/// and the scenario document shapes.
void flatten_metrics(const io::Json& node, const std::string& prefix,
                     std::map<std::string, double>& flat) {
  if (node.is_number()) {
    if (!prefix.empty()) flat[prefix] = node.as_number();
    return;
  }
  if (node.is_bool()) {
    if (!prefix.empty()) flat[prefix] = node.as_bool() ? 1.0 : 0.0;
    return;
  }
  if (!node.is_object()) return;
  for (const auto& [key, value] : node.as_object()) {
    flatten_metrics(value, prefix.empty() ? key : prefix + "." + key, flat);
  }
}

/// General-format number for the diff table: counts print as integers,
/// seconds keep enough digits to see sub-millisecond shifts.
std::string diff_num(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

/// `latol profile --diff A.json B.json`: compare two metrics documents
/// (any latol-metrics version) metric by metric. Prints one row per
/// scalar found in either document — stages, cache traffic, registry
/// counters/gauges/timers, histogram count/sum — with the absolute delta
/// and the percent change relative to A.
int cmd_profile_diff(const CliOptions& opts, std::ostream& out) {
  const io::Json a = io::parse_json_file(opts.profile_inputs[0]);
  const io::Json b = io::parse_json_file(opts.profile_inputs[1]);
  for (const io::Json* doc : {&a, &b}) {
    LATOL_REQUIRE(doc->is_object() && doc->contains("format"),
                  "not a latol metrics document (no `format` key)");
  }
  std::map<std::string, double> fa;
  std::map<std::string, double> fb;
  flatten_metrics(a, "", fa);
  flatten_metrics(b, "", fb);

  out << "metrics diff\n"
      << "  A: " << opts.profile_inputs[0] << " ("
      << a.find("format")->as_string() << ")\n"
      << "  B: " << opts.profile_inputs[1] << " ("
      << b.find("format")->as_string() << ")\n\n";

  // Union of metric names in lexicographic order (std::map keeps the
  // output stable regardless of document member order).
  std::map<std::string, std::pair<const double*, const double*>> merged;
  for (const auto& [name, value] : fa) merged[name].first = &value;
  for (const auto& [name, value] : fb) merged[name].second = &value;

  util::Table table({"metric", "A", "B", "delta", "delta%"});
  for (const auto& [name, values] : merged) {
    const double* va = values.first;
    const double* vb = values.second;
    std::string delta = "-";
    std::string pct = "-";
    if (va != nullptr && vb != nullptr) {
      const double d = *vb - *va;
      delta = diff_num(d);
      if (*va != 0.0) {
        pct = util::Table::num(100.0 * d / *va, 1) + "%";
      } else if (d == 0.0) {
        pct = util::Table::num(0.0, 1) + "%";
      }
    }
    table.add_row({name, va != nullptr ? diff_num(*va) : "-",
                   vb != nullptr ? diff_num(*vb) : "-", std::move(delta),
                   std::move(pct)});
  }
  table.print(out);
  return 0;
}

/// `latol profile <scenario.json>`: solve the scenario with convergence
/// tracing and the metric registry enabled, then print where the time
/// went and how every point converged. Uses a transient solve cache (no
/// load/save) so the timings reflect real solves; exit semantics match
/// `run` (0 clean, 1 degraded/failed points, 3 everything failed).
int cmd_profile(const CliOptions& opts, std::ostream& out) {
  if (opts.profile_diff) return cmd_profile_diff(opts, out);
  LATOL_REQUIRE(
      !opts.scenario_path.empty(),
      "profile needs a scenario file: latol profile <scenario.json>");
  exp::Scenario scenario = exp::load_scenario(opts.scenario_path);
  scenario.amva.record_trace = true;
  ScopedRegistry registry;

  exp::SolveCache cache;
  exp::RunOptions ropts;
  ropts.workers = opts.run_workers;
  ropts.cache = &cache;
  const exp::RunResult run = exp::run_scenario(scenario, ropts);
  const exp::RunStats& st = run.stats;

  out << "profile of scenario `" << scenario.name << "`: " << st.grid_points
      << " grid points, " << st.solves << " solves, " << st.workers
      << " workers\n\n";

  // Stage table: where run_scenario's wall time went (loading and output
  // happen outside it, so shares are relative to the run itself).
  util::Table stages({"stage", "seconds", "share"});
  const double wall = st.wall_seconds > 0 ? st.wall_seconds : 1.0;
  auto stage_row = [&](const char* name, double s) {
    stages.add_row({name, util::Table::num(s, 6),
                    util::Table::num(100.0 * s / wall, 1) + "%"});
  };
  stage_row("expand", st.expand_seconds);
  stage_row("solve", st.solve_seconds);
  stage_row("validate", st.validate_seconds);
  stage_row("total", st.wall_seconds);
  stages.print(out);
  out << '\n';

  // Per-solver timers from the registry: unlike the stage table these
  // count every robust_solve link, including the ideal-system solves
  // behind tolerance indices.
  const obs::Snapshot snapshot = registry.snapshot();
  util::Table timers({"timer", "calls", "seconds"});
  for (const obs::Snapshot::TimerSample& t : snapshot.timers) {
    timers.add_row({t.name, std::to_string(t.count),
                    util::Table::num(t.seconds, 6)});
  }
  if (timers.rows() > 0) {
    timers.print(out);
    out << '\n';
  }

  // Simulator counters (scenarios with a `sim` validation block): event,
  // firing, queue-operation, and RNG-draw totals across every
  // replication the run executed.
  util::Table sim_counters({"counter", "value"});
  for (const obs::Snapshot::CounterSample& c : snapshot.counters) {
    if (c.name.rfind("sim.", 0) == 0)
      sim_counters.add_row({c.name, std::to_string(c.value)});
  }
  if (sim_counters.rows() > 0) {
    sim_counters.print(out);
    out << '\n';
  }

  // Convergence table: one row per grid point, in grid order.
  util::Table conv({"point", "solver", "iters", "residual", "trace",
                    "littles_err", "flow_err", "cache"});
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const exp::PointResult& p = run.points[i];
    const char* cache_cell = p.cache_hit ? "hit" : "miss";
    if (p.model.error) {
      conv.add_row({std::to_string(i), "failed", "-", "-", "-", "-", "-",
                    cache_cell});
      continue;
    }
    const core::MmsPerformance& perf = p.model.perf;
    std::string solver = qn::solver_kind_name(perf.solver);
    if (!qn::solve_clean(false, perf.converged, perf.degraded))
      solver += " [degraded]";
    conv.add_row({std::to_string(i), std::move(solver),
                  std::to_string(perf.solver_iterations), sci(perf.residual),
                  std::to_string(perf.residual_history.size()),
                  sci(perf.littles_law_error), sci(perf.flow_balance_error),
                  cache_cell});
  }
  conv.print(out);
  out << "cache: " << cache.hits() << " hits, " << cache.misses()
      << " misses, " << cache.evictions() << " evictions\n";

  emit_scenario_instrumentation(opts, scenario, run, &snapshot, out);
  return scenario_exit_code(st, out);
}

int dispatch_command(const CliOptions& opts, std::ostream& out) {
  if (opts.command == "run") return cmd_run(opts, out);
  if (opts.command == "profile") return cmd_profile(opts, out);
  if (opts.command == "serve") return cmd_serve(opts, out);
  opts.config.validate();
  if (opts.command == "analyze") return cmd_analyze(opts, out);
  if (opts.command == "tolerance") return cmd_tolerance(opts, out);
  if (opts.command == "bottleneck") return cmd_bottleneck(opts, out);
  if (opts.command == "sweep") return cmd_sweep(opts, out);
  if (opts.command == "simulate") return cmd_simulate(opts, out);
  out << usage();
  return 2;
}

}  // namespace

int run_command(const CliOptions& opts, std::ostream& out) {
  if (opts.command == "help") {
    out << usage();
    return 0;
  }
  // --trace-out: spans record for the whole command (for `serve`, the
  // whole daemon lifetime — run() joins its workers before returning, so
  // the write below sees a quiescent sink). Note this deliberately does
  // NOT flip wants_instrumentation(): span tracing must never alter the
  // solve path or the cache key (byte-identity; DESIGN.md §14).
  if (opts.trace_out_path.empty()) return dispatch_command(opts, out);
  ScopedTraceSink trace;
  const int rc = dispatch_command(opts, out);
  trace.write(opts.trace_out_path, out);
  return rc;
}

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    const CliOptions opts = parse_command_line(args);
    return run_command(opts, out);
  } catch (const InvalidArgument& e) {
    err << "latol: " << e.what() << '\n';
    return 2;  // usage error: bad command, flag, or parameter value
  } catch (const qn::SolverError& e) {
    err << "latol: " << e.what() << '\n';
    return 3;  // solve failed even through the fallback chain
  } catch (const std::exception& e) {
    err << "latol: " << e.what() << '\n';
    return 3;
  }
}

}  // namespace latol::cli
