#include "cli/options.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/parameter.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "util/error.hpp"

namespace latol::cli {
namespace {

TEST(CliParse, EmptyDefaultsToHelp) {
  const CliOptions opts = parse_command_line({});
  EXPECT_EQ(opts.command, "help");
}

TEST(CliParse, UnknownCommandThrows) {
  EXPECT_THROW((void)parse_command_line({"frobnicate"}), InvalidArgument);
}

TEST(CliParse, MachineFlagsApply) {
  const CliOptions opts = parse_command_line(
      {"analyze", "--k", "8", "--topology", "mesh", "--threads", "4",
       "--runlength", "20", "--p-remote", "0.3", "--pattern", "uniform",
       "--memory-latency", "15", "--switch-delay", "5", "--context-switch",
       "2"});
  EXPECT_EQ(opts.command, "analyze");
  EXPECT_EQ(opts.config.k, 8);
  EXPECT_EQ(opts.config.topology, topo::TopologyKind::kMesh2D);
  EXPECT_EQ(opts.config.threads_per_processor, 4);
  EXPECT_DOUBLE_EQ(opts.config.runlength, 20.0);
  EXPECT_DOUBLE_EQ(opts.config.p_remote, 0.3);
  EXPECT_EQ(opts.config.traffic.pattern, topo::AccessPattern::kUniform);
  EXPECT_DOUBLE_EQ(opts.config.memory_latency, 15.0);
  EXPECT_DOUBLE_EQ(opts.config.switch_delay, 5.0);
  EXPECT_DOUBLE_EQ(opts.config.context_switch, 2.0);
}

TEST(CliParse, ExtensionFlagsApply) {
  const CliOptions opts = parse_command_line(
      {"analyze", "--memory-ports", "2", "--pipelined-switches",
       "--hotspot-node", "3", "--hotspot-fraction", "0.4"});
  EXPECT_EQ(opts.config.memory_ports, 2);
  EXPECT_TRUE(opts.config.pipelined_switches);
  EXPECT_EQ(opts.config.traffic.hotspot_node, 3);
  EXPECT_DOUBLE_EQ(opts.config.traffic.hotspot_fraction, 0.4);
}

TEST(CliRun, SweepSupportsExtensionParameters) {
  struct Case {
    const char* param;
    const char* from;
    const char* to;
  };
  for (const Case c : {Case{"p_sw", "0.2", "0.8"},
                       Case{"context_switch", "0", "5"},
                       Case{"memory_ports", "1", "2"}}) {
    std::ostringstream out;
    const CliOptions opts = parse_command_line(
        {"sweep", "--param", c.param, "--from", c.from, "--to", c.to,
         "--steps", "2"});
    EXPECT_EQ(run_command(opts, out), 0) << c.param;
  }
}

TEST(CliParse, SweepAndSimulateFlags) {
  const CliOptions sweep = parse_command_line(
      {"sweep", "--param", "threads", "--from", "1", "--to", "8", "--steps",
       "8"});
  EXPECT_EQ(sweep.sweep_param, "threads");
  EXPECT_DOUBLE_EQ(sweep.sweep_from, 1.0);
  EXPECT_DOUBLE_EQ(sweep.sweep_to, 8.0);
  EXPECT_EQ(sweep.sweep_steps, 8);

  const CliOptions sim = parse_command_line(
      {"simulate", "--time", "5000", "--seed", "7", "--petri"});
  EXPECT_DOUBLE_EQ(sim.sim_time, 5000.0);
  EXPECT_EQ(sim.seed, 7u);
  EXPECT_TRUE(sim.use_petri);
}

TEST(CliParse, RejectsBadValues) {
  EXPECT_THROW((void)parse_command_line({"analyze", "--k", "four"}),
               InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"analyze", "--p-remote"}),
               InvalidArgument);
  struct BadChoice {
    const char* flag;
    const char* value;
    const char* message;
  };
  for (const BadChoice& c :
       {BadChoice{"--topology", "star",
                  "unknown topology `star` (torus|mesh|ring|hypercube)"},
        BadChoice{"--pattern", "zipf",
                  "unknown pattern `zipf` (geometric|uniform)"}}) {
    try {
      (void)parse_command_line({"analyze", c.flag, c.value});
      ADD_FAILURE() << "expected an error for " << c.flag;
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), c.message);
    }
  }
  EXPECT_THROW((void)parse_command_line({"analyze", "--bogus", "1"}),
               InvalidArgument);
}

TEST(CliRun, HelpPrintsUsage) {
  std::ostringstream out;
  CliOptions opts;
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("usage: latol"), std::string::npos);
}

TEST(CliRun, AnalyzeReportsHeadlineNumbers) {
  std::ostringstream out;
  const CliOptions opts = parse_command_line({"analyze"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("U_p"), std::string::npos);
  EXPECT_NE(out.str().find("S_obs"), std::string::npos);
  EXPECT_NE(out.str().find("0.81"), std::string::npos);  // default U_p
}

TEST(CliRun, ToleranceReportsZones) {
  std::ostringstream out;
  const CliOptions opts = parse_command_line({"tolerance"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("tol_network"), std::string::npos);
  EXPECT_NE(out.str().find("tolerated"), std::string::npos);
  EXPECT_NE(out.str().find("tune first"), std::string::npos);
}

TEST(CliRun, BottleneckPrintsClosedForms) {
  std::ostringstream out;
  const CliOptions opts = parse_command_line({"bottleneck"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("Eq.4"), std::string::npos);
  EXPECT_NE(out.str().find("1.73"), std::string::npos);  // d_avg
}

TEST(CliRun, SweepProducesRequestedRows) {
  std::ostringstream out;
  const CliOptions opts = parse_command_line(
      {"sweep", "--param", "threads", "--from", "1", "--to", "4", "--steps",
       "4"});
  EXPECT_EQ(run_command(opts, out), 0);
  // Header + rule + 4 rows appear in the table.
  EXPECT_NE(out.str().find("1.000"), std::string::npos);
  EXPECT_NE(out.str().find("4.000"), std::string::npos);
}

TEST(CliRun, SweepRejectsUnknownParameter) {
  std::ostringstream out;
  CliOptions opts = parse_command_line({"sweep", "--param", "voltage"});
  EXPECT_THROW((void)run_command(opts, out), InvalidArgument);
}

TEST(CliRun, SimulateComparesAgainstModel) {
  std::ostringstream out;
  const CliOptions opts =
      parse_command_line({"simulate", "--time", "20000", "--seed", "3"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("dev%"), std::string::npos);
  EXPECT_NE(out.str().find("discrete-event"), std::string::npos);
}

TEST(CliRun, SimulatePetriVariant) {
  std::ostringstream out;
  CliOptions opts = parse_command_line(
      {"simulate", "--time", "10000", "--k", "2", "--petri"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("Petri"), std::string::npos);
}

TEST(CliRun, InvalidConfigSurfacesAsError) {
  std::ostringstream out;
  CliOptions opts = parse_command_line({"analyze", "--p-remote", "1.5"});
  EXPECT_THROW((void)run_command(opts, out), InvalidArgument);
}

TEST(CliRun, MaxIterationsFlagApplies) {
  const CliOptions opts =
      parse_command_line({"analyze", "--max-iterations", "50"});
  EXPECT_EQ(opts.amva.max_iterations, 50);
  EXPECT_THROW((void)parse_command_line({"analyze", "--max-iterations", "0"}),
               InvalidArgument);
}

TEST(CliRun, AnalyzeReportsItsSolver) {
  std::ostringstream out;
  const CliOptions opts = parse_command_line({"analyze"});
  EXPECT_EQ(run_command(opts, out), 0);
  EXPECT_NE(out.str().find("solved by amva"), std::string::npos);
}

// --- exit-code contract of the full entry point ---

TEST(CliMain, CleanRunExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"analyze"}, out, err), 0);
  EXPECT_TRUE(err.str().empty());
}

TEST(CliMain, DegradedRunExitsOneWithWarning) {
  // A starved iteration budget forces the fallback chain; the answer is
  // still printed but flagged, and the exit code says "degraded".
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"analyze", "--max-iterations", "1"}, out, err), 1);
  EXPECT_NE(out.str().find("warning"), std::string::npos);
  EXPECT_NE(out.str().find("degraded"), std::string::npos);
}

TEST(CliMain, DegradedSweepExitsOne) {
  std::ostringstream out, err;
  const int rc = cli_main({"sweep", "--param", "threads", "--from", "1",
                           "--to", "4", "--steps", "2", "--max-iterations",
                           "1"},
                          out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.str().find("[degraded]"), std::string::npos);
}

TEST(CliMain, SweepLabelsIntegerRowsWithTheValueItSolves) {
  // 1..8 in 9 steps spaces the grid at 1, 1.875, 2.75, ...; an integer
  // axis solves those truncated (1, 1, 2, 3, ...), and each table row and
  // metrics point carries the value solved.
  const std::string metrics_path =
      (std::filesystem::temp_directory_path() / "latol_sweep_labels.json")
          .string();
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"sweep", "--param", "threads", "--from", "1", "--to",
                      "8", "--steps", "9", "--metrics-out", metrics_path},
                     out, err),
            0)
      << err.str();
  std::vector<std::string> labels;
  std::vector<std::string> rows;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    // Table rows read "|   1.000 | 0.2936 | ..."; keep those whose
    // first cell is a number.
    std::istringstream cells(line);
    std::string bar;
    std::string first;
    cells >> bar >> first;
    if (bar != "|" || first.empty() ||
        std::isdigit(static_cast<unsigned char>(first[0])) == 0)
      continue;
    labels.push_back(first);
    rows.push_back(line);
  }
  const std::vector<std::string> expected = {"1.000", "1.000", "2.000",
                                             "3.000", "4.000", "5.000",
                                             "6.000", "7.000", "8.000"};
  EXPECT_EQ(labels, expected) << out.str();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0], rows[1]);  // the same solve under the same label
  const io::Json doc = io::parse_json_file(metrics_path);
  std::filesystem::remove(metrics_path);
  const auto& points = doc.find("points")->as_array();
  ASSERT_EQ(points.size(), 9u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].find("threads")->as_number(), std::stod(expected[i]))
        << i;
  }
}

TEST(CliMain, UsageErrorsExitTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.str().find("latol:"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"analyze", "--p-remote", "1.5"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("p_remote"), std::string::npos);

  // A sweep step with a hotspot node off the 16-node machine is a usage
  // error, found before anything solves.
  std::ostringstream out3, err3;
  EXPECT_EQ(cli_main({"sweep", "--hotspot-node", "0", "--hotspot-fraction",
                      "0.2", "--param", "hotspot_node", "--from", "0", "--to",
                      "99", "--steps", "2"},
                     out3, err3),
            2);
  EXPECT_NE(err3.str().find("hotspot_node=99"), std::string::npos)
      << err3.str();
}

TEST(CliMain, UsageDocumentsExitCodes) {
  EXPECT_NE(usage().find("exit codes"), std::string::npos);
  EXPECT_NE(usage().find("solve failed"), std::string::npos);
  EXPECT_NE(usage().find("run"), std::string::npos);
}

TEST(CliMain, UsageNamesEverySweepAxis) {
  const std::string text = usage();
  const std::string flags = text.substr(text.find("sweep flags:"));
  for (const exp::ConfigField& f : exp::config_fields()) {
    if (f.is_axis()) {
      EXPECT_NE(flags.find(f.name), std::string::npos) << f.name;
    }
  }
}

TEST(CliMain, HelpFlagAfterACommandPrintsUsage) {
  for (const char* command : {"analyze", "sweep", "run", "serve", "help"}) {
    for (const char* flag : {"--help", "-h"}) {
      std::ostringstream out, err;
      EXPECT_EQ(cli_main({command, "--k", "8", flag}, out, err), 0)
          << command << ' ' << flag;
      EXPECT_EQ(out.str(), usage());
      EXPECT_TRUE(err.str().empty()) << err.str();
    }
  }
}

// --- the MmsConfig field table --------------------------------------------

/// `cfg` with row `f` moved off its value: a number by +0.5, an integer by
/// +1, a bool flipped, a choice to its next value.
core::MmsConfig perturbed(const exp::ConfigField& f, core::MmsConfig cfg) {
  const double v = f.get(cfg);
  switch (f.kind) {
    case exp::FieldKind::kNumber:
      f.set(cfg, v + 0.5);
      break;
    case exp::FieldKind::kInteger:
      f.set(cfg, v + 1.0);
      break;
    case exp::FieldKind::kBool:
      f.set(cfg, v == 0.0 ? 1.0 : 0.0);
      break;
    case exp::FieldKind::kChoice:
      f.set(cfg, std::fmod(v + 1.0, static_cast<double>(f.choices.size())));
      break;
  }
  return cfg;
}

TEST(ConfigFieldTable, EveryRowReachesTheKeyTheScenarioAndItsFlag) {
  ASSERT_EQ(exp::config_fields().size(), 17u);
  const core::MmsConfig defaults = CliOptions{}.config;
  const auto key = [](const core::MmsConfig& c) {
    return exp::SolveCache::config_key(c, {});
  };
  for (const exp::ConfigField& f : exp::config_fields()) {
    SCOPED_TRACE(f.name);
    const core::MmsConfig changed = perturbed(f, defaults);
    EXPECT_NE(key(changed), key(defaults));

    std::string value;
    exp::append_value(value, f, changed);
    const std::string json = f.kind == exp::FieldKind::kChoice
                                 ? '"' + value + '"'
                                 : value;
    const exp::Scenario s = exp::scenario_from_json(io::parse_json(
        std::string(R"({"name": "t", "base": {")") + f.name + "\": " + json +
        "}}"));
    EXPECT_EQ(key(s.base), key(changed));

    if (f.flag == nullptr) continue;
    std::vector<std::string> args = {"analyze", f.flag};
    if (f.kind != exp::FieldKind::kBool) args.push_back(value);
    EXPECT_EQ(key(parse_command_line(args).config), key(changed));
  }
}

TEST(ConfigFieldTable, MachineFlagsKeepTheirSpellings) {
  std::vector<std::string> flags;
  for (const exp::ConfigField& f : exp::config_fields()) {
    if (f.flag != nullptr) flags.emplace_back(f.flag);
  }
  const std::vector<std::string> expected = {
      "--k", "--topology", "--threads", "--runlength", "--context-switch",
      "--p-remote", "--pattern", "--p-sw", "--memory-latency",
      "--switch-delay", "--hotspot-node", "--hotspot-fraction",
      "--memory-ports", "--pipelined-switches", "--open-arrival"};
  EXPECT_EQ(flags, expected);
}

// --- latol run ------------------------------------------------------------

TEST(CliParse, RunFlagsAndPositionalScenario) {
  const CliOptions opts = parse_command_line(
      {"run", "exp.json", "--out", "results", "--format", "csv", "--workers",
       "3", "--no-cache"});
  EXPECT_EQ(opts.command, "run");
  EXPECT_EQ(opts.scenario_path, "exp.json");
  EXPECT_EQ(opts.out_dir, "results");
  EXPECT_EQ(opts.run_format, "csv");
  EXPECT_EQ(opts.run_workers, 3u);
  EXPECT_FALSE(opts.run_cache);
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "b.json"}),
               InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "--format", "xml"}),
               InvalidArgument);
}

TEST(CliParse, StreamingShardAndWarmStartFlags) {
  const CliOptions opts = parse_command_line(
      {"run", "exp.json", "--stream", "--warm-start", "--shard", "2/5",
       "--format", "jsonl"});
  EXPECT_TRUE(opts.run_stream);
  EXPECT_TRUE(opts.warm_start);
  EXPECT_EQ(opts.shard_index, 2u);
  EXPECT_EQ(opts.shard_count, 5u);
  EXPECT_EQ(opts.run_format, "jsonl");
  // Defaults: whole grid, no streaming.
  const CliOptions plain = parse_command_line({"run", "exp.json"});
  EXPECT_FALSE(plain.run_stream);
  EXPECT_FALSE(plain.warm_start);
  EXPECT_EQ(plain.shard_index, 0u);
  EXPECT_EQ(plain.shard_count, 1u);
}

TEST(CliParse, RejectsMalformedShardSpecs) {
  // Index must be in [0, count); the spec must be I/N with integers.
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "--shard", "3"}),
               InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "--shard", "2/2"}),
               InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "--shard", "a/b"}),
               InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"run", "a.json", "--shard", "1/0"}),
               InvalidArgument);
  // The window bound is not a flag (RunOptions::block_points sets it).
  try {
    (void)parse_command_line({"run", "a.json", "--block-points", "512"});
    ADD_FAILURE() << "--block-points parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag `--block-points`"),
              std::string::npos)
        << e.what();
  }
}

class CliRunScenario : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("latol_cli_run_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_scenario(const std::string& text) {
    const std::string path = dir_ + "/scenario.json";
    std::ofstream out(path);
    out << text;
    return path;
  }

  std::string read_all(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string dir_;
};

TEST_F(CliRunScenario, WritesResultsAndManifest) {
  const std::string path = write_scenario(R"({
    "name": "cli_small",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2]}],
    "outputs": {"network_tolerance": true}
  })");
  std::ostringstream out, err;
  const int rc = cli_main({"run", path, "--out", dir_}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const std::string csv = read_all(dir_ + "/cli_small.csv");
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "p_remote,U_p,S_obs,L_obs,lambda_net,tol_network,solver,converged");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows
  const std::string manifest = read_all(dir_ + "/cli_small.manifest.json");
  EXPECT_NE(manifest.find("\"degraded_points\": 0"), std::string::npos);
  EXPECT_NE(manifest.find("\"scenario_hash\": \"fnv1a64:"), std::string::npos);
  EXPECT_GT(io::parse_json_file(dir_ + "/cli_small.manifest.json")
                .find("process")
                ->find("peak_rss_kb")
                ->as_number(),
            0.0);
  // JSON results parse and carry one row object per grid point.
  const io::Json results = io::parse_json_file(dir_ + "/cli_small.json");
  EXPECT_EQ(results.find("rows")->as_array().size(), 2u);
  // The default cache file was written and a re-run uses it.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/latol_cache.json"));
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"run", path, "--out", dir_}, out2, err2), 0);
  EXPECT_NE(out2.str().find("0 solves"), std::string::npos) << out2.str();
}

TEST_F(CliRunScenario, StreamedRunMatchesMaterializedAndShardsCompose) {
  const std::string path = write_scenario(R"({
    "name": "clistream",
    "base": {"k": 2},
    "axes": [
      {"param": "threads", "values": [1, 2, 3]},
      {"param": "p_remote", "values": [0.1, 0.2]}
    ],
    "outputs": {"network_tolerance": true}
  })");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"run", path, "--out", dir_, "--no-cache"}, out, err), 0)
      << err.str();
  const std::string whole = read_all(dir_ + "/clistream.csv");
  // --stream reproduces the bytes and adds a .jsonl for --format both.
  ASSERT_EQ(cli_main({"run", path, "--out", dir_ + "/s", "--no-cache",
                      "--stream"},
                     out, err),
            0)
      << err.str();
  EXPECT_EQ(read_all(dir_ + "/s/clistream.csv"), whole);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/s/clistream.jsonl"));
  // A 2-shard split writes side-by-side artifacts whose row-interleave
  // is the single-process file (rows here are 2 points long).
  for (const char* shard : {"0/2", "1/2"}) {
    ASSERT_EQ(cli_main({"run", path, "--out", dir_ + "/sh", "--no-cache",
                        "--shard", shard, "--format", "csv"},
                       out, err),
              0)
        << err.str();
  }
  const std::string s0 = read_all(dir_ + "/sh/clistream.shard0of2.csv");
  const std::string s1 = read_all(dir_ + "/sh/clistream.shard1of2.csv");
  auto lines = [](const std::string& text) {
    std::vector<std::string> out_lines;
    std::istringstream is(text);
    for (std::string l; std::getline(is, l);) out_lines.push_back(l);
    return out_lines;
  };
  const auto l0 = lines(s0);
  const auto l1 = lines(s1);
  ASSERT_EQ(l0.size(), 5u);  // header + rows 0 and 2 of 2 points each
  ASSERT_EQ(l1.size(), 3u);  // header + row 1
  const std::string merged = l0[0] + "\n" + l0[1] + "\n" + l0[2] + "\n" +
                             l1[1] + "\n" + l1[2] + "\n" + l0[3] + "\n" +
                             l0[4] + "\n";
  EXPECT_EQ(merged, whole);
  const std::string manifest =
      read_all(dir_ + "/sh/clistream.shard0of2.manifest.json");
  EXPECT_NE(manifest.find("\"shard\""), std::string::npos);
  EXPECT_NE(manifest.find("\"rows_owned\": 2"), std::string::npos);
}

TEST_F(CliRunScenario, StreamRejectsResultBasedInstrumentation) {
  const std::string path = write_scenario(R"({
    "name": "streambad",
    "base": {"k": 2}
  })");
  std::ostringstream out, err;
  // --trace/--metrics-out need materialized results: usage error (2).
  EXPECT_EQ(cli_main({"run", path, "--out", dir_, "--stream", "--trace",
                      dir_ + "/t.json"},
                     out, err),
            2);
  // --format jsonl without streaming is a usage error too.
  EXPECT_EQ(cli_main({"run", path, "--out", dir_, "--format", "jsonl"},
                     out, err),
            2);
}

TEST_F(CliRunScenario, WarmStartAloneRunsMaterialized) {
  const std::string path = write_scenario(R"({
    "name": "warmmat",
    "base": {"k": 2},
    "axes": [
      {"param": "threads", "values": [1, 2]},
      {"param": "p_remote", "values": [0.1, 0.2, 0.3]}
    ],
    "outputs": {"network_tolerance": true}
  })");
  std::ostringstream out, err;
  // --warm-start alone keeps the materialized run: a .json document, no
  // .jsonl, and the result-based instrumentation is allowed.
  ASSERT_EQ(cli_main({"run", path, "--out", dir_ + "/m", "--no-cache",
                      "--warm-start", "--metrics-out", dir_ + "/m.json"},
                     out, err),
            0)
      << err.str();
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/m/warmmat.json"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/m/warmmat.jsonl"));
  EXPECT_EQ(io::parse_json_file(dir_ + "/m.json")
                .find("points")
                ->as_array()
                .size(),
            6u);
  EXPECT_NE(out.str().find("warm start: 4 of 6 points hinted"),
            std::string::npos)
      << out.str();
  // Streamed, the same warm run writes the same CSV bytes.
  ASSERT_EQ(cli_main({"run", path, "--out", dir_ + "/s", "--no-cache",
                      "--warm-start", "--stream"},
                     out, err),
            0)
      << err.str();
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/s/warmmat.jsonl"));
  EXPECT_EQ(read_all(dir_ + "/s/warmmat.csv"),
            read_all(dir_ + "/m/warmmat.csv"));
}

TEST_F(CliRunScenario, FormatJsonSkipsCsv) {
  const std::string path = write_scenario(R"({
    "name": "jsononly",
    "base": {"k": 2}
  })");
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"run", path, "--out", dir_, "--format", "json",
                      "--no-cache"},
                     out, err),
            0);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/jsononly.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/jsononly.json"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/latol_cache.json"));
}

TEST_F(CliRunScenario, PartialFailureExitsOneTotalFailureThree) {
  const std::string partial = write_scenario(R"({
    "name": "partial",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 2.0]}]
  })");
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"run", partial, "--out", dir_, "--no-cache"}, out, err),
            1);
  EXPECT_NE(out.str().find("[solve failed]"), std::string::npos);

  const std::string total = dir_ + "/total.json";
  {
    std::ofstream f(total);
    f << R"({"name": "total", "base": {"k": 2},
            "axes": [{"param": "p_remote", "values": [1.5, 2.0]}]})";
  }
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"run", total, "--out", dir_, "--no-cache"}, out2, err2),
            3);

  // A hotspot node off the 16-node machine fails every point through
  // MmsConfig::validate, which names the field: still exit 3.
  const std::string hotspot = dir_ + "/hotspot.json";
  {
    std::ofstream f(hotspot);
    f << R"({"name": "hotspot",
            "base": {"hotspot_node": 99, "hotspot_fraction": 0.2},
            "axes": [{"param": "p_remote", "values": [0.1, 0.2]}]})";
  }
  std::ostringstream out3, err3;
  EXPECT_EQ(
      cli_main({"run", hotspot, "--out", dir_, "--no-cache"}, out3, err3), 3);
  EXPECT_NE(out3.str().find("hotspot_node=99"), std::string::npos)
      << out3.str();
}

// --- instrumentation: --metrics-out / --trace / latol profile -------------

TEST(CliParse, ProfileAndInstrumentationFlags) {
  const CliOptions opts = parse_command_line(
      {"profile", "exp.json", "--workers", "2", "--metrics-out", "m.json",
       "--trace", "t.json"});
  EXPECT_EQ(opts.command, "profile");
  EXPECT_EQ(opts.scenario_path, "exp.json");
  EXPECT_EQ(opts.run_workers, 2u);
  EXPECT_EQ(opts.metrics_path, "m.json");
  EXPECT_EQ(opts.trace_path, "t.json");
  // The flags parse on the single-config commands too.
  EXPECT_EQ(parse_command_line({"analyze", "--metrics-out", "m.json"})
                .metrics_path,
            "m.json");
  EXPECT_EQ(parse_command_line({"sweep", "--trace", "t.json"}).trace_path,
            "t.json");
  // profile takes exactly one scenario file, and usage documents it.
  EXPECT_THROW((void)parse_command_line({"profile", "a.json", "b.json"}),
               InvalidArgument);
  EXPECT_NE(usage().find("profile"), std::string::npos);
  EXPECT_NE(usage().find("--metrics-out"), std::string::npos);
}

TEST_F(CliRunScenario, RunEmitsMetricsAndTraceArtifacts) {
  const std::string path = write_scenario(R"({
    "name": "instr",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2]}],
    "outputs": {"network_tolerance": true}
  })");
  const std::string metrics_path = dir_ + "/metrics.json";
  const std::string trace_path = dir_ + "/trace.json";
  std::ostringstream out, err;
  const int rc = cli_main({"run", path, "--out", dir_, "--no-cache",
                           "--metrics-out", metrics_path, "--trace",
                           trace_path},
                          out, err);
  EXPECT_EQ(rc, 0) << err.str();

  const io::Json metrics = io::parse_json_file(metrics_path);
  EXPECT_EQ(metrics.find("format")->as_string(), "latol-metrics-v2");
  EXPECT_EQ(metrics.find("scenario")->as_string(), "instr");
  ASSERT_NE(metrics.find("cache"), nullptr);
  ASSERT_NE(metrics.find("stages"), nullptr);
  const auto& points = metrics.find("points")->as_array();
  ASSERT_EQ(points.size(), 2u);
  for (const io::Json& p : points) {
    EXPECT_GT(p.find("iterations")->as_number(), 0.0);
    EXPECT_GT(p.find("residual_history_length")->as_number(), 0.0);
    EXPECT_LT(p.find("littles_law_error")->as_number(), 1e-6);
  }
  ASSERT_NE(metrics.find("process"), nullptr);
  EXPECT_GT(metrics.find("process")->find("peak_rss_kb")->as_number(), 0.0);
  // The registry snapshot rode along (run installs one when instrumented).
  ASSERT_NE(metrics.find("registry"), nullptr);
  EXPECT_NE(metrics.find("registry")->find("counters")->find(
                "qn.robust.solves"),
            nullptr);

  const io::Json trace = io::parse_json_file(trace_path);
  EXPECT_EQ(trace.find("format")->as_string(), "latol-trace-v1");
  const auto& tpoints = trace.find("points")->as_array();
  ASSERT_EQ(tpoints.size(), 2u);
  EXPECT_FALSE(tpoints[0].find("residuals")->as_array().empty());

  // Byte-identity: instrumentation must not change the result artifacts.
  const std::string instrumented_csv = read_all(dir_ + "/instr.csv");
  std::filesystem::remove(dir_ + "/instr.csv");
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"run", path, "--out", dir_, "--no-cache"}, out2, err2),
            0);
  EXPECT_EQ(read_all(dir_ + "/instr.csv"), instrumented_csv);
}

TEST_F(CliRunScenario, AnalyzeAndSweepEmitMetricsAndTraces) {
  const std::string metrics_path = dir_ + "/analyze_metrics.json";
  const std::string trace_path = dir_ + "/analyze_trace.json";
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"analyze", "--k", "2", "--metrics-out", metrics_path,
                      "--trace", trace_path},
                     out, err),
            0);
  const io::Json metrics = io::parse_json_file(metrics_path);
  EXPECT_EQ(metrics.find("command")->as_string(), "analyze");
  const io::Json* point = metrics.find("point");
  ASSERT_NE(point, nullptr);
  EXPECT_GT(point->find("iterations")->as_number(), 0.0);
  EXPECT_EQ(point->find("iterations")->as_number(),
            point->find("residual_history_length")->as_number());
  ASSERT_NE(metrics.find("process"), nullptr);
  EXPECT_GT(metrics.find("process")->find("peak_rss_kb")->as_number(), 0.0);
  const io::Json trace = io::parse_json_file(trace_path);
  const auto& attempts = trace.find("attempts")->as_array();
  ASSERT_EQ(attempts.size(), 1u);  // amva answered first try
  EXPECT_EQ(attempts[0].find("solver")->as_string(), "amva");
  EXPECT_FALSE(attempts[0].find("residuals")->as_array().empty());
  EXPECT_FALSE(attempts[0].find("truncated")->as_bool());

  const std::string sweep_metrics = dir_ + "/sweep_metrics.json";
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"sweep", "--k", "2", "--steps", "3", "--metrics-out",
                      sweep_metrics},
                     out2, err2),
            0);
  const io::Json sm = io::parse_json_file(sweep_metrics);
  EXPECT_EQ(sm.find("command")->as_string(), "sweep");
  EXPECT_EQ(sm.find("points")->as_array().size(), 3u);
}

TEST(CliParse, TraceOutAndProfileDiffFlags) {
  EXPECT_EQ(parse_command_line({"analyze", "--trace-out", "spans.json"})
                .trace_out_path,
            "spans.json");
  EXPECT_EQ(parse_command_line({"run", "s.json", "--trace-out", "t.json"})
                .trace_out_path,
            "t.json");
  const CliOptions diff =
      parse_command_line({"profile", "--diff", "a.json", "b.json"});
  EXPECT_TRUE(diff.profile_diff);
  ASSERT_EQ(diff.profile_inputs.size(), 2u);
  EXPECT_EQ(diff.profile_inputs[0], "a.json");
  EXPECT_EQ(diff.profile_inputs[1], "b.json");
  // Flag order must not matter.
  EXPECT_TRUE(parse_command_line({"profile", "a.json", "b.json", "--diff"})
                  .profile_diff);
  // --diff needs exactly two inputs, and only profile takes it.
  EXPECT_THROW((void)parse_command_line({"profile", "--diff", "a.json"}),
               InvalidArgument);
  EXPECT_THROW(
      (void)parse_command_line({"profile", "--diff", "a", "b", "c"}),
      InvalidArgument);
  EXPECT_THROW((void)parse_command_line({"analyze", "--diff"}),
               InvalidArgument);
  EXPECT_NE(usage().find("--trace-out"), std::string::npos);
  EXPECT_NE(usage().find("--diff"), std::string::npos);
}

/// `--trace-out` on a multi-worker scenario run: the Chrome trace
/// document is well formed, the per-point spans nest under the batch
/// runner's span across worker lanes, and the result artifacts stay
/// byte-identical to an untraced run. (Test name carries "Trace" so the
/// TSan CI job exercises the concurrent recording path.)
TEST_F(CliRunScenario, TraceOutWritesChromeSpansWithoutPerturbingResults) {
  const std::string path = write_scenario(R"({
    "name": "spans",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2, 0.3, 0.4]}],
    "outputs": {"network_tolerance": true}
  })");
  const std::string trace_path = dir_ + "/spans_trace.json";
  std::ostringstream out, err;
  const int rc = cli_main({"run", path, "--out", dir_, "--no-cache",
                           "--workers", "4", "--trace-out", trace_path},
                          out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("wrote span trace"), std::string::npos);

  const io::Json doc = io::parse_json_file(trace_path);
  const auto& events = doc.find("traceEvents")->as_array();
  double run_span_id = 0.0;
  for (const io::Json& e : events) {
    if (e.find("ph")->as_string() == "B" &&
        e.find("name")->as_string() == "exp.run_scenario") {
      run_span_id = e.find("args")->find("span_id")->as_number();
    }
  }
  ASSERT_NE(run_span_id, 0.0);
  std::size_t points = 0;
  for (const io::Json& e : events) {
    if (e.find("ph")->as_string() != "B" ||
        e.find("name")->as_string() != "exp.point")
      continue;
    ++points;
    EXPECT_EQ(e.find("args")->find("parent_id")->as_number(), run_span_id);
  }
  EXPECT_EQ(points, 4u);  // one per grid point, whatever lane ran it

  // Byte-identity: tracing must not change the result artifacts.
  const std::string traced_csv = read_all(dir_ + "/spans.csv");
  const std::string traced_json = read_all(dir_ + "/spans.json");
  std::filesystem::remove(dir_ + "/spans.csv");
  std::filesystem::remove(dir_ + "/spans.json");
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"run", path, "--out", dir_, "--no-cache",
                      "--workers", "4"},
                     out2, err2),
            0);
  EXPECT_EQ(read_all(dir_ + "/spans.csv"), traced_csv);
  EXPECT_EQ(read_all(dir_ + "/spans.json"), traced_json);
  // The trace artifact only appears when asked for.
  EXPECT_EQ(out2.str().find("wrote span trace"), std::string::npos);
}

TEST_F(CliRunScenario, ProfileDiffPrintsPerMetricDeltas) {
  const std::string a = dir_ + "/a.json";
  const std::string b = dir_ + "/b.json";
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"analyze", "--k", "2", "--p-remote", "0.1",
                      "--metrics-out", a},
                     out, err),
            0);
  EXPECT_EQ(cli_main({"analyze", "--k", "2", "--p-remote", "0.4",
                      "--metrics-out", b},
                     out, err),
            0);
  std::ostringstream diff_out, diff_err;
  const int rc = cli_main({"profile", "--diff", a, b}, diff_out, diff_err);
  EXPECT_EQ(rc, 0) << diff_err.str();
  const std::string text = diff_out.str();
  EXPECT_NE(text.find("metrics diff"), std::string::npos);
  EXPECT_NE(text.find("latol-metrics-v2"), std::string::npos);
  EXPECT_NE(text.find("delta%"), std::string::npos);
  EXPECT_NE(text.find("point.iterations"), std::string::npos);
  EXPECT_NE(text.find("point.residual"), std::string::npos);

  // A non-metrics JSON input is a usage error (exit 2), as is a missing
  // file.
  const std::string junk = dir_ + "/junk.json";
  { std::ofstream f(junk); f << "[1, 2]"; }
  std::ostringstream o3, e3;
  EXPECT_EQ(cli_main({"profile", "--diff", a, junk}, o3, e3), 2);
  std::ostringstream o4, e4;
  EXPECT_EQ(cli_main({"profile", "--diff", a, dir_ + "/nope.json"}, o4, e4),
            2);
}

TEST_F(CliRunScenario, ProfilePrintsStageAndConvergenceTables) {
  const std::string path = write_scenario(R"({
    "name": "prof",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2, 0.3]}],
    "outputs": {"network_tolerance": true}
  })");
  std::ostringstream out, err;
  const int rc = cli_main({"profile", path}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const std::string text = out.str();
  // Stage timing table.
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("expand"), std::string::npos);
  EXPECT_NE(text.find("solve"), std::string::npos);
  // Per-solver timers fed by the registry it installed.
  EXPECT_NE(text.find("qn.solver.amva"), std::string::npos);
  // Convergence table with one row per grid point plus cache accounting.
  EXPECT_NE(text.find("residual"), std::string::npos);
  EXPECT_NE(text.find("littles_err"), std::string::npos);
  EXPECT_NE(text.find("cache:"), std::string::npos);
  // No result/cache files: profile only reports.
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/prof.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/latol_cache.json"));
}

TEST_F(CliRunScenario, ProfileFlagsDegradedScenarios) {
  const std::string path = write_scenario(R"({
    "name": "starved",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.2]}],
    "solver": {"max_iterations": 2}
  })");
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"profile", path}, out, err), 1);
  EXPECT_NE(out.str().find("[degraded]"), std::string::npos);
  EXPECT_NE(out.str().find("warning"), std::string::npos);
}

TEST_F(CliRunScenario, UsageErrorsExitTwo) {
  std::ostringstream out, err;
  // Missing scenario file argument.
  EXPECT_EQ(cli_main({"run"}, out, err), 2);
  // `profile` shares the scenario plumbing and the exit code.
  EXPECT_EQ(cli_main({"profile"}, out, err), 2);
  // Nonexistent scenario file.
  EXPECT_EQ(cli_main({"run", dir_ + "/nope.json"}, out, err), 2);
  // Malformed JSON names line/column.
  const std::string bad = write_scenario("{broken");
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"run", bad}, out2, err2), 2);
  EXPECT_NE(err2.str().find("line 1"), std::string::npos);
  // Schema violations name the offending key.
  const std::string schema = write_scenario(R"({"name": "x", "typo": 1})");
  std::ostringstream out3, err3;
  EXPECT_EQ(cli_main({"run", schema}, out3, err3), 2);
  EXPECT_NE(err3.str().find("typo"), std::string::npos);
}

}  // namespace
}  // namespace latol::cli
