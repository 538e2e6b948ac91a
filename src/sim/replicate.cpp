#include "sim/replicate.hpp"

#include "obs/registry.hpp"

namespace latol::sim {

ReplicationRun<SimulationResult> replicate_mms(const SimulationConfig& base,
                                               const ReplicationPlan& plan) {
  auto run = run_replications<SimulationResult>(
      plan,
      [&](std::size_t i) {
        obs::ScopedTimer timer("sim.rep.seconds");
        SimulationConfig cfg = base;
        cfg.seed = base.seed + i;
        return simulate_mms(cfg);
      },
      [](const SimulationResult& r) { return r.processor_utilization; });
  obs::count("sim.rep.runs", run.runs.size());
  obs::count("sim.rep.discarded", run.speculative_discarded);
  return run;
}

ReplicationRun<PetriMmsResult> replicate_mms_petri(
    const core::MmsConfig& config, double sim_time, double warmup_fraction,
    std::uint64_t base_seed, const ReplicationPlan& plan,
    ServiceDistribution memory_dist) {
  // One build + compile, shared by every replication (and by the
  // speculative ones — the compiled net is read-only).
  const MmsPetriModel model = build_mms_petri(config, memory_dist);
  const CompiledPetriNet compiled(model.net);
  auto run = run_replications<PetriMmsResult>(
      plan,
      [&](std::size_t i) {
        obs::ScopedTimer timer("sim.rep.seconds");
        return simulate_mms_petri_compiled(model, compiled, config, sim_time,
                                           warmup_fraction, base_seed + i);
      },
      [](const PetriMmsResult& r) { return r.processor_utilization; });
  obs::count("sim.rep.runs", run.runs.size());
  obs::count("sim.rep.discarded", run.speculative_discarded);
  return run;
}

}  // namespace latol::sim
