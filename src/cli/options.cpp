#include "cli/options.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/parameter.hpp"
#include "util/error.hpp"

namespace latol::cli {

namespace {

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    LATOL_REQUIRE(used == value.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("flag " + flag + " expects a number, got `" +
                          value + "`");
  }
}

int parse_int(const std::string& flag, const std::string& value) {
  int out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw InvalidArgument("flag " + flag + " expects an integer, got `" +
                          value + "`");
  }
  return out;
}

topo::TopologyKind parse_topology(const std::string& value) {
  if (value == "torus") return topo::TopologyKind::kTorus2D;
  if (value == "mesh") return topo::TopologyKind::kMesh2D;
  if (value == "ring") return topo::TopologyKind::kRing;
  if (value == "hypercube") return topo::TopologyKind::kHypercube;
  throw InvalidArgument("unknown topology `" + value +
                        "` (torus|mesh|ring|hypercube)");
}

topo::AccessPattern parse_pattern(const std::string& value) {
  if (value == "geometric") return topo::AccessPattern::kGeometric;
  if (value == "uniform") return topo::AccessPattern::kUniform;
  throw InvalidArgument("unknown pattern `" + value +
                        "` (geometric|uniform)");
}

core::SolveMethod parse_solver(const std::string& value) {
  if (value == "amva") return core::SolveMethod::kAmva;
  if (value == "linearizer") return core::SolveMethod::kLinearizer;
  if (value == "fesc") return core::SolveMethod::kHierarchical;
  throw InvalidArgument("unknown solver `" + value +
                        "` (amva|linearizer|fesc)");
}

}  // namespace

CliOptions parse_command_line(const std::vector<std::string>& args) {
  CliOptions opts;
  if (args.empty()) return opts;

  opts.command = args[0];
  const bool known =
      opts.command == "analyze" || opts.command == "tolerance" ||
      opts.command == "bottleneck" || opts.command == "sweep" ||
      opts.command == "simulate" || opts.command == "run" ||
      opts.command == "profile" || opts.command == "serve" ||
      opts.command == "help";
  if (!known) {
    throw InvalidArgument("unknown command `" + opts.command + "`\n" +
                          usage());
  }

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      LATOL_REQUIRE(i + 1 < args.size(), "flag " << flag << " needs a value");
      return args[++i];
    };
    if (opts.command == "profile" && !flag.starts_with("--")) {
      // Deferred: one scenario file normally, two metrics files with
      // --diff — validated after the whole line is parsed.
      opts.profile_inputs.push_back(flag);
    } else if (opts.command == "run" && !flag.starts_with("--")) {
      LATOL_REQUIRE(opts.scenario_path.empty(),
                    opts.command << " takes one scenario file, got `"
                                 << opts.scenario_path << "` and `" << flag
                                 << "`");
      opts.scenario_path = flag;
    } else if (opts.command == "serve" && !flag.starts_with("--")) {
      LATOL_REQUIRE(opts.serve_config_path.empty(),
                    "serve takes one config file, got `"
                        << opts.serve_config_path << "` and `" << flag << "`");
      opts.serve_config_path = flag;
    } else if (flag == "--out") {
      opts.out_dir = value();
    } else if (flag == "--format") {
      opts.run_format = value();
      LATOL_REQUIRE(opts.run_format == "json" || opts.run_format == "csv" ||
                        opts.run_format == "both" ||
                        opts.run_format == "jsonl",
                    "--format expects json|csv|both|jsonl, got `"
                        << opts.run_format << "`");
    } else if (flag == "--stream") {
      opts.run_stream = true;
    } else if (flag == "--warm-start") {
      opts.warm_start = true;
    } else if (flag == "--shard") {
      const std::string& spec = value();
      const std::size_t slash = spec.find('/');
      LATOL_REQUIRE(slash != std::string::npos,
                    "--shard expects I/N (e.g. 0/4), got `" << spec << "`");
      const int index = parse_int(flag, spec.substr(0, slash));
      const int count = parse_int(flag, spec.substr(slash + 1));
      LATOL_REQUIRE(count >= 1, "--shard count must be >= 1, got " << count);
      LATOL_REQUIRE(index >= 0 && index < count,
                    "--shard index must be in [0, " << count << "), got "
                                                    << index);
      opts.shard_index = static_cast<std::size_t>(index);
      opts.shard_count = static_cast<std::size_t>(count);
    } else if (flag == "--block-points") {
      const int n = parse_int(flag, value());
      LATOL_REQUIRE(n >= 1, "--block-points must be >= 1");
      opts.block_points = static_cast<std::size_t>(n);
    } else if (flag == "--workers" || flag == "--jobs") {
      const int n = parse_int(flag, value());
      LATOL_REQUIRE(n >= 0, flag << " must be >= 0");
      opts.run_workers = static_cast<std::size_t>(n);
    } else if (flag == "--cache") {
      opts.cache_path = value();
    } else if (flag == "--no-cache") {
      opts.run_cache = false;
    } else if (flag == "--point-timeout") {
      opts.point_timeout_ms = parse_double(flag, value());
      LATOL_REQUIRE(opts.point_timeout_ms >= 0,
                    "--point-timeout must be >= 0 (milliseconds)");
    } else if (flag == "--trace") {
      opts.trace_path = value();
    } else if (flag == "--trace-out") {
      opts.trace_out_path = value();
    } else if (flag == "--metrics-out") {
      opts.metrics_path = value();
    } else if (flag == "--diff") {
      LATOL_REQUIRE(opts.command == "profile",
                    "--diff only applies to `latol profile`");
      opts.profile_diff = true;
    } else if (flag == "--k") {
      opts.config.k = parse_int(flag, value());
    } else if (flag == "--topology") {
      opts.config.topology = parse_topology(value());
    } else if (flag == "--threads") {
      opts.config.threads_per_processor = parse_int(flag, value());
    } else if (flag == "--runlength") {
      opts.config.runlength = parse_double(flag, value());
    } else if (flag == "--context-switch") {
      opts.config.context_switch = parse_double(flag, value());
    } else if (flag == "--p-remote") {
      opts.config.p_remote = parse_double(flag, value());
    } else if (flag == "--p-sw") {
      opts.config.traffic.p_sw = parse_double(flag, value());
    } else if (flag == "--pattern") {
      opts.config.traffic.pattern = parse_pattern(value());
    } else if (flag == "--memory-latency") {
      opts.config.memory_latency = parse_double(flag, value());
    } else if (flag == "--switch-delay") {
      opts.config.switch_delay = parse_double(flag, value());
    } else if (flag == "--hotspot-node") {
      opts.config.traffic.hotspot_node = parse_int(flag, value());
    } else if (flag == "--hotspot-fraction") {
      opts.config.traffic.hotspot_fraction = parse_double(flag, value());
    } else if (flag == "--open-arrival") {
      opts.config.open_arrival_rate = parse_double(flag, value());
    } else if (flag == "--solver") {
      opts.method = parse_solver(value());
    } else if (flag == "--memory-ports") {
      opts.config.memory_ports = parse_int(flag, value());
    } else if (flag == "--pipelined-switches") {
      opts.config.pipelined_switches = true;
    } else if (flag == "--max-iterations") {
      opts.amva.max_iterations = parse_int(flag, value());
      LATOL_REQUIRE(opts.amva.max_iterations >= 1,
                    "--max-iterations must be >= 1");
    } else if (flag == "--param") {
      opts.sweep_param = value();
    } else if (flag == "--from") {
      opts.sweep_from = parse_double(flag, value());
    } else if (flag == "--to") {
      opts.sweep_to = parse_double(flag, value());
    } else if (flag == "--steps") {
      opts.sweep_steps = parse_int(flag, value());
    } else if (flag == "--time") {
      opts.sim_time = parse_double(flag, value());
    } else if (flag == "--seed") {
      opts.seed = static_cast<std::uint64_t>(parse_int(flag, value()));
    } else if (flag == "--petri") {
      opts.use_petri = true;
    } else if (flag == "--reps") {
      opts.reps = static_cast<std::size_t>(parse_int(flag, value()));
      LATOL_REQUIRE(opts.reps >= 1, "--reps must be >= 1");
    } else if (flag == "--min-reps") {
      opts.min_reps = static_cast<std::size_t>(parse_int(flag, value()));
      LATOL_REQUIRE(opts.min_reps >= 1, "--min-reps must be >= 1");
    } else if (flag == "--ci-rel") {
      opts.ci_rel = parse_double(flag, value());
      LATOL_REQUIRE(opts.ci_rel >= 0.0, "--ci-rel must be >= 0");
    } else {
      throw InvalidArgument("unknown flag `" + flag + "`\n" + usage());
    }
  }
  if (opts.command == "profile") {
    if (opts.profile_diff) {
      LATOL_REQUIRE(opts.profile_inputs.size() == 2,
                    "profile --diff takes exactly two metrics JSON files, got "
                        << opts.profile_inputs.size());
    } else {
      LATOL_REQUIRE(opts.profile_inputs.size() <= 1,
                    "profile takes one scenario file, got "
                        << opts.profile_inputs.size());
      if (!opts.profile_inputs.empty()) {
        opts.scenario_path = opts.profile_inputs.front();
      }
    }
  }
  return opts;
}

std::string usage() {
  std::ostringstream os;
  os << "latol - latency tolerance analysis for multithreaded architectures\n"
        "        (Nemawarkar & Gao, IPPS'97)\n\n"
        "usage: latol <command> [flags]\n\n"
        "commands:\n"
        "  analyze     solve the model; print U_p, S_obs, L_obs, rates\n"
        "  tolerance   tolerance indices (network & memory) with zones\n"
        "  bottleneck  closed-form Eq. 4/5 constants and operating zones\n"
        "  sweep       vary one parameter; print U_p and tol_network\n"
        "  simulate    discrete-event (or --petri) simulation vs the model\n"
        "  run         execute a JSON scenario file; write CSV/JSON results\n"
        "              plus a run manifest (DESIGN.md §8)\n"
        "  profile     run a scenario with instrumentation on; print\n"
        "              per-stage timings and per-point convergence\n"
        "  serve       long-running analysis daemon (HTTP over TCP) with\n"
        "              admission control, request deadlines, and graceful\n"
        "              drain (DESIGN.md §11)\n"
        "  help        this text\n\n"
        "machine/workload flags (defaults = paper Table 1):\n"
        "  --k N                 size parameter (torus/mesh side, ring size,\n"
        "                        hypercube dimension)        [4]\n"
        "  --topology T          torus|mesh|ring|hypercube   [torus]\n"
        "  --threads N           threads per processor n_t   [8]\n"
        "  --runlength R         mean thread runlength       [10]\n"
        "  --context-switch C    switch overhead             [0]\n"
        "  --p-remote P          remote access probability   [0.2]\n"
        "  --pattern X           geometric|uniform           [geometric]\n"
        "  --p-sw X              geometric locality factor   [0.5]\n"
        "  --memory-latency L    memory access time          [10]\n"
        "  --switch-delay S      per-switch routing time     [10]\n"
        "  --hotspot-node N      redirect traffic to node N  [off]\n"
        "  --hotspot-fraction F  redirected fraction         [0]\n"
        "  --memory-ports N      servers per memory module   [1]\n"
        "  --pipelined-switches  switches as pure delays     [off]\n"
        "  --open-arrival F      per-node Poisson rate of background open\n"
        "                        remote requests (mixed open/closed solve;\n"
        "                        DESIGN.md §12)               [0]\n"
        "  --solver X            amva|linearizer|fesc        [amva]\n"
        "  --max-iterations N    AMVA iteration budget       [200000]\n\n"
        "sweep flags:\n";
  // The --param axes come from the sweep parameter table, so the help
  // names every axis the sweep accepts.
  const std::vector<std::string>& names = exp::parameter_names();
  std::string line = "  --param X   ";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string item = names[i] + (i + 1 < names.size() ? "|" : "");
    if (line.size() + item.size() > 53) {
      os << line << '\n';
      line = std::string(14, ' ');
    }
    line += item;
  }
  line.resize(std::max<std::size_t>(line.size() + 1, 52), ' ');
  os << line << "[p_remote]\n"
        "  --from A --to B --steps N                         [0 0.8 9]\n"
        "  --jobs N    parallel sweep workers (0 = shared pool sized to\n"
        "              the hardware); output is byte-identical for every\n"
        "              worker count                          [0]\n\n"
        "simulate flags:\n"
        "  --time T    simulated time units                  [100000]\n"
        "  --seed N    RNG seed                              [1]\n"
        "  --petri     use the stochastic Petri net simulator\n"
        "  --reps N    independent replications (seeds N..N+reps-1), run\n"
        "              in parallel; results are identical for any worker\n"
        "              count                                 [1]\n"
        "  --min-reps N  replications before early stopping  [2]\n"
        "  --ci-rel X  stop when the 95% CI half-width of U_p is within\n"
        "              X of the mean (0 = run all --reps)    [0]\n"
        "  --jobs N    replication workers (0 = shared pool) [0]\n\n"
        "run usage: latol run <scenario.json> [flags]\n"
        "  --out DIR       output directory                  [.]\n"
        "  --format F      json|csv|both|jsonl               [both]\n"
        "  --workers N     worker threads (0 = hardware); --jobs is an\n"
        "                  alias                             [0]\n"
        "  --cache FILE    solve-cache file    [<out>/latol_cache.json]\n"
        "  --no-cache      do not load/save the solve cache\n"
        "  --point-timeout MS  per-point wall-clock budget; a point over\n"
        "                  budget is marked failed (deadline-exceeded) and\n"
        "                  the run continues                 [off]\n"
        "  --stream        bounded-memory row-by-row execution: results\n"
        "                  stream to CSV/JSONL as blocks complete instead\n"
        "                  of materializing the grid (large sweeps;\n"
        "                  --format json emits JSONL). Bytes match the\n"
        "                  non-streamed CSV exactly.\n"
        "  --warm-start    seed each solve from an extrapolation of its row\n"
        "                  neighbors (DESIGN.md §15); implies --stream\n"
        "  --shard I/N     solve rows r with r % N == I only; implies\n"
        "                  --stream. scripts/merge_shards.py reassembles\n"
        "                  the N outputs byte-identically    [0/1]\n"
        "  --block-points N  streamed-emission memory bound  [4096]\n\n"
        "profile usage: latol profile <scenario.json> [--workers N]\n"
        "  solves the scenario with convergence tracing and the metric\n"
        "  registry enabled (transient cache; results are not written)\n"
        "profile diff:  latol profile --diff <metrics_A.json> <metrics_B.json>\n"
        "  per-stage / per-counter / per-histogram delta table with percent\n"
        "  change between two --metrics-out documents\n\n"
        "serve usage: latol serve <config.json>\n"
        "  binds host:port from the config and answers GET /healthz,\n"
        "  GET /metrics (Prometheus text), POST /v1/{analyze,tolerance,\n"
        "  bottleneck,sweep} ({\"args\": [...]}; output matches the CLI\n"
        "  byte-for-byte), and POST /v1/scenario (scenario JSON body)\n"
        "  against one warm solve cache. X-Deadline-Ms arms a per-request\n"
        "  deadline (expired -> 504). SIGTERM/SIGINT drain gracefully:\n"
        "  stop accepting, shed queued (503), finish in-flight, flush the\n"
        "  cache atomically.\n"
        "  server exit codes: 0 clean drain, 2 usage/config error,\n"
        "  4 runtime failure (accept loop died)\n\n"
        "instrumentation flags (analyze, sweep, run, profile; DESIGN.md §9):\n"
        "  --metrics-out FILE  write the metrics JSON document\n"
        "  --trace FILE        write per-iteration convergence traces\n"
        "  --trace-out FILE    write a span trace as Chrome trace_event\n"
        "                      JSON (chrome://tracing / Perfetto; also on\n"
        "                      simulate and serve; DESIGN.md §14)\n\n"
        "exit codes:\n"
        "  0  clean result\n"
        "  1  degraded result (fallback solver answered / not converged)\n"
        "  2  usage error (unknown command/flag, invalid parameter)\n"
        "  3  solve failed (even the fallback chain produced nothing)\n";
  return os.str();
}

}  // namespace latol::cli
