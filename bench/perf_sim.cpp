// Simulator performance: events/firings per second for the two validation
// vehicles, the cost of building the MMS Petri net, and the parallel
// replication harness.
#include <benchmark/benchmark.h>

#include "core/mms_config.hpp"
#include "json_reporter.hpp"
#include "sim/mms_des.hpp"
#include "sim/mms_petri.hpp"
#include "sim/replicate.hpp"

namespace {

using namespace latol;

void BM_DesSimulation(benchmark::State& state) {
  sim::SimulationConfig cfg;
  cfg.mms = core::MmsConfig::paper_defaults();
  cfg.mms.k = static_cast<int>(state.range(0));
  cfg.sim_time = 5000.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    cfg.seed++;
    const sim::SimulationResult r = sim::simulate_mms(cfg);
    events += r.events;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("items = kernel events");
}
BENCHMARK(BM_DesSimulation)->Arg(2)->Arg(4)->Arg(8);

void BM_PetriNetBuild(benchmark::State& state) {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::build_mms_petri(cfg));
  }
}
BENCHMARK(BM_PetriNetBuild)->Arg(2)->Arg(4);

void BM_PetriSimulation(benchmark::State& state) {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = static_cast<int>(state.range(0));
  std::uint64_t firings = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const sim::PetriMmsResult r =
        sim::simulate_mms_petri(cfg, 5000.0, 0.1, seed++);
    firings += r.total_firings;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(firings));
  state.SetLabel("items = transition firings");
}
BENCHMARK(BM_PetriSimulation)->Arg(2)->Arg(4);

void BM_ParallelReplications(benchmark::State& state) {
  // End-to-end replication harness: arg = worker count. Results are
  // bitwise identical across arg values; only wall time may differ.
  sim::SimulationConfig cfg;
  cfg.mms = core::MmsConfig::paper_defaults();
  cfg.mms.k = 4;
  cfg.sim_time = 2000.0;
  sim::ReplicationPlan plan;
  plan.min_reps = 8;
  plan.max_reps = 8;
  plan.round_size = 8;
  plan.workers = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    cfg.seed += plan.max_reps;
    const auto run = sim::replicate_mms(cfg, plan);
    for (const auto& r : run.runs) events += r.events;
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("items = kernel events, all replications");
}
BENCHMARK(BM_ParallelReplications)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return latol::bench::run_benchmarks_with_json(argc, argv,
                                                "BENCH_sim.json");
}
