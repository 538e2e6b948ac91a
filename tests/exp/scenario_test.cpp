#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/parameter.hpp"
#include "io/json.hpp"
#include "util/error.hpp"

namespace latol::exp {
namespace {

Scenario from_text(const std::string& text) {
  return scenario_from_json(io::parse_json(text));
}

/// Every grid point's configuration, in grid order.
std::vector<core::MmsConfig> expand_grid(const Scenario& s) {
  std::vector<core::MmsConfig> grid;
  for (std::size_t i = 0; i < grid_size(s); ++i) {
    grid.push_back(config_at(s, i));
  }
  return grid;
}

// --- parameter registry ---------------------------------------------------

TEST(Parameter, AliasesResolveToCanonicalNames) {
  EXPECT_STREQ(axis_field("n_t").name, "threads");
  EXPECT_STREQ(axis_field("R").name, "runlength");
  EXPECT_STREQ(axis_field("L").name, "memory_latency");
  EXPECT_STREQ(axis_field("S").name, "switch_delay");
  EXPECT_STREQ(axis_field("C").name, "context_switch");
  EXPECT_STREQ(axis_field("p_remote").name, "p_remote");
  EXPECT_THROW((void)axis_field("nope"), InvalidArgument);
  // Choice and bool rows are not axes.
  EXPECT_EQ(find_axis("topology"), nullptr);
  EXPECT_EQ(find_axis("pipelined_switches"), nullptr);
}

TEST(Parameter, ApplyAndReadRoundTrip) {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  for (const ConfigField& f : config_fields()) {
    if (!f.is_axis()) continue;
    const double v = f.kind == FieldKind::kInteger ? 2.0 : 0.25;
    f.set(cfg, v);
    EXPECT_EQ(f.get(cfg), v) << f.name;
  }
}

TEST(Parameter, IntegralParametersRejectFractions) {
  EXPECT_THROW(
      from_text(R"({"name":"t","axes":[{"param":"threads","values":[2.5]}]})"),
      InvalidArgument);
  EXPECT_THROW(
      from_text(R"({"name":"t","axes":[{"param":"k","values":[3.7]}]})"),
      InvalidArgument);
  // A whole number no int holds, as an axis value and as a base key.
  EXPECT_THROW(
      from_text(R"({"name":"t","axes":[{"param":"threads","values":[1e10]}]})"),
      InvalidArgument);
  EXPECT_THROW(from_text(R"({"name":"t","base":{"k":1e10}})"), InvalidArgument);
  // A range whose points fall between integers.
  EXPECT_THROW(from_text(R"({"name":"t","axes":[{"param":"memory_ports",
      "range":{"from":1,"to":2,"steps":3}}]})"),
               InvalidArgument);
  const Scenario s = from_text(
      R"({"name":"t","axes":[{"param":"runlength","values":[2.5]}]})");
  EXPECT_EQ(expand_grid(s)[0].runlength, 2.5);  // real-valued: fine
}

// --- scenario parsing -----------------------------------------------------

TEST(Scenario, MinimalScenarioUsesPaperDefaults) {
  const Scenario s = from_text(R"({"name": "t"})");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.base.runlength,
            core::MmsConfig::paper_defaults().runlength);
  EXPECT_TRUE(s.axes.empty());
  EXPECT_EQ(expand_grid(s).size(), 1u);  // base config alone
  EXPECT_NE(s.source_hash, 0u);
}

TEST(Scenario, CrossProductGridFirstAxisOutermost) {
  const Scenario s = from_text(R"({
    "name": "t",
    "axes": [
      {"param": "threads", "values": [1, 2]},
      {"param": "p_remote", "values": [0.1, 0.2, 0.3]}
    ]
  })");
  const auto grid = expand_grid(s);
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].threads_per_processor, 1);
  EXPECT_EQ(grid[0].p_remote, 0.1);
  EXPECT_EQ(grid[2].p_remote, 0.3);
  EXPECT_EQ(grid[3].threads_per_processor, 2);  // inner axis wrapped
  EXPECT_EQ(grid[3].p_remote, 0.1);
}

TEST(Scenario, RangeAxisMatchesCliSweepInterpolation) {
  const Scenario s = from_text(R"({
    "name": "t",
    "axes": [{"param": "p_remote", "range": {"from": 0, "to": 0.8, "steps": 9}}]
  })");
  const auto grid = expand_grid(s);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_EQ(grid[0].p_remote, 0.0);
  EXPECT_EQ(grid[1].p_remote, 0.8 * 1 / 8);
  EXPECT_EQ(grid[8].p_remote, 0.8);
}

TEST(Scenario, ZipAxisVariesParametersInLockstep) {
  const Scenario s = from_text(R"({
    "name": "t",
    "axes": [{"zip": [
      {"param": "threads", "values": [1, 2, 4]},
      {"param": "runlength", "values": [40, 20, 10]}
    ]}]
  })");
  const auto grid = expand_grid(s);
  ASSERT_EQ(grid.size(), 3u);
  for (const auto& cfg : grid) {
    EXPECT_EQ(cfg.threads_per_processor * cfg.runlength, 40.0);
  }
}

TEST(Scenario, BaseOverridesAndAliases) {
  const Scenario s = from_text(R"({
    "name": "t",
    "base": {"runlength": 20, "topology": "mesh", "p_sw": 0.7},
    "axes": [{"param": "n_t", "values": [4]}]
  })");
  EXPECT_EQ(s.base.runlength, 20.0);
  EXPECT_EQ(s.base.topology, topo::TopologyKind::kMesh2D);
  EXPECT_STREQ(s.axes[0].components[0].field->name, "threads");  // alias
}

TEST(Scenario, DefaultColumnsListAxisParamsThenMetrics) {
  const Scenario s = from_text(R"({
    "name": "t",
    "axes": [{"param": "p_remote", "values": [0.1]}],
    "outputs": {"network_tolerance": true}
  })");
  const auto cols = s.output_columns();
  ASSERT_GE(cols.size(), 2u);
  EXPECT_EQ(cols.front(), "p_remote");
  EXPECT_NE(std::find(cols.begin(), cols.end(), "tol_network"), cols.end());
}

TEST(Scenario, ContentHashIgnoresFormattingButNotContent) {
  const char* doc = R"({"name": "t", "axes": [{"param": "k", "values": [2]}]})";
  const char* reformatted = R"({
    "name": "t",
    "axes": [ { "param" : "k", "values": [ 2 ] } ]
  })";
  const char* different =
      R"({"name": "t", "axes": [{"param": "k", "values": [3]}]})";
  EXPECT_EQ(from_text(doc).source_hash, from_text(reformatted).source_hash);
  EXPECT_NE(from_text(doc).source_hash, from_text(different).source_hash);
}

// --- strict schema --------------------------------------------------------

TEST(ScenarioSchema, RejectsUnknownAndMissingKeys) {
  EXPECT_THROW(from_text(R"({"name": "t", "typo": 1})"), InvalidArgument);
  EXPECT_THROW(from_text(R"({})"), InvalidArgument);  // missing name
  EXPECT_THROW(from_text(R"({"name": "bad/name"})"), InvalidArgument);
  EXPECT_THROW(from_text(R"({"name": "t", "base": {"nope": 1}})"),
               InvalidArgument);
}

TEST(ScenarioSchema, RejectsBadAxes) {
  // Unknown parameter.
  EXPECT_THROW(
      from_text(R"({"name":"t","axes":[{"param":"x","values":[1]}]})"),
      InvalidArgument);
  // values and range together.
  EXPECT_THROW(from_text(R"({"name":"t","axes":[
      {"param":"k","values":[1],"range":{"from":0,"to":1,"steps":2}}]})"),
               InvalidArgument);
  // Ragged zip.
  EXPECT_THROW(from_text(R"({"name":"t","axes":[{"zip":[
      {"param":"threads","values":[1,2]},
      {"param":"runlength","values":[40]}]}]})"),
               InvalidArgument);
  // Same parameter on two axes.
  EXPECT_THROW(from_text(R"({"name":"t","axes":[
      {"param":"k","values":[2]},{"param":"k","values":[3]}]})"),
               InvalidArgument);
  // Fractional value for an integral parameter, rejected at parse time.
  EXPECT_THROW(
      from_text(R"({"name":"t","axes":[{"param":"threads","values":[1.5]}]})"),
      InvalidArgument);
}

TEST(ScenarioSchema, ColumnsRequireMatchingOutputs) {
  EXPECT_THROW(from_text(R"({"name":"t",
      "outputs":{"columns":["tol_network"]}})"),
               InvalidArgument);
  EXPECT_THROW(from_text(R"({"name":"t",
      "outputs":{"columns":["sim_U_p"]}})"),
               InvalidArgument);
  EXPECT_THROW(from_text(R"({"name":"t",
      "outputs":{"columns":["nonsense"]}})"),
               InvalidArgument);
  // With the matching switches they parse.
  EXPECT_NO_THROW(from_text(R"({"name":"t",
      "outputs":{"network_tolerance":true,"columns":["tol_network"]},
      "validation":{"engine":"des","time":100}})"));
}

TEST(ScenarioSchema, ValidationAndSolverSections) {
  const Scenario s = from_text(R"({
    "name": "t",
    "solver": {"max_iterations": 500, "workers": 2},
    "validation": {"engine": "petri", "time": 5000, "seed": 7, "points": [0]}
  })");
  EXPECT_EQ(s.amva.max_iterations, 500);
  EXPECT_EQ(s.workers, 2u);
  ASSERT_TRUE(s.validation.has_value());
  EXPECT_EQ(s.validation->engine, "petri");
  EXPECT_EQ(s.validation->seed, 7u);
  ASSERT_EQ(s.validation->points.size(), 1u);
  EXPECT_THROW(from_text(R"({"name":"t","validation":{"engine":"x"}})"),
               InvalidArgument);
  EXPECT_THROW(from_text(R"({"name":"t","solver":{"max_iterations":0}})"),
               InvalidArgument);
}

TEST(ScenarioSchema, ChoiceKeysNameTheirValues) {
  EXPECT_EQ(from_text(R"({"name":"t","base":{"geometric_mode":"per_module"}})")
                .base.traffic.mode,
            topo::GeometricMode::kPerModule);
  try {
    (void)from_text(R"({"name":"t","base":{"topology":"star"}})");
    FAIL() << "expected an error";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "scenario: base.topology: unknown topology `star` "
                 "(torus|mesh|ring|hypercube)");
  }
}

TEST(ScenarioSchema, EveryMeasureAndAxisIsAColumn) {
  for (const Measure& m : measures()) EXPECT_TRUE(is_known_column(m.name));
  EXPECT_TRUE(is_known_column("hotspot_node"));
  EXPECT_TRUE(is_known_column("n_t"));
  EXPECT_FALSE(is_known_column("topology"));
}

// --- open workloads (DESIGN.md §12) ---------------------------------------

TEST(ScenarioOpen, BaseAcceptsOpenArrivalRate) {
  const Scenario s = from_text(R"({
    "name": "t",
    "base": {"open_arrival_rate": 0.02}
  })");
  EXPECT_EQ(s.base.open_arrival_rate, 0.02);
  // And it sweeps like any other parameter (alias lambda0).
  const Scenario axis = from_text(R"({
    "name": "t",
    "axes": [{"param": "lambda0", "values": [0.0, 0.01, 0.02]}]
  })");
  const auto grid = expand_grid(axis);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[2].open_arrival_rate, 0.02);
}

TEST(ScenarioOpen, SolverMethodSelectsTheMachinery) {
  EXPECT_EQ(from_text(R"({"name":"t"})").method, core::SolveMethod::kAmva);
  EXPECT_EQ(from_text(R"({"name":"t","solver":{"method":"amva"}})").method,
            core::SolveMethod::kAmva);
  EXPECT_EQ(
      from_text(R"({"name":"t","solver":{"method":"linearizer"}})").method,
      core::SolveMethod::kLinearizer);
  EXPECT_EQ(from_text(R"({"name":"t","solver":{"method":"fesc"}})").method,
            core::SolveMethod::kHierarchical);
  try {
    (void)from_text(R"({"name":"t","solver":{"method":"magic"}})");
    FAIL() << "expected an error";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("solver.method"), std::string::npos);
  }
}

TEST(ScenarioOpen, OpenMetricColumnsAreKnown) {
  const Scenario s = from_text(R"({
    "name": "t",
    "base": {"open_arrival_rate": 0.01},
    "outputs": {"columns": ["open_arrival_rate", "U_p", "open_latency",
                            "open_util"]}
  })");
  const auto cols = s.output_columns();
  EXPECT_NE(std::find(cols.begin(), cols.end(), "open_latency"), cols.end());
  // sim_open_latency needs a DES validation block, like the other sim_*.
  EXPECT_THROW(from_text(R"({"name":"t",
      "outputs":{"columns":["sim_open_latency"]}})"),
               InvalidArgument);
}

}  // namespace
}  // namespace latol::exp
